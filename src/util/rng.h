// Deterministic random number generation for reproducible simulation runs.
//
// Every simulation run is parameterized by a single 64-bit seed; independent
// streams (node placement, query phases, MAC backoff per node, ...) are
// derived with `fork`, so adding a consumer never perturbs other streams.
#pragma once

#include <cstdint>
#include <memory>
#include <random>

#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::util {

// SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014): the one mixer behind seeding, `Rng::fork` and
// the link models' keyed draws (net/link_model.cpp). util_rng_test pins a
// few outputs, because an edit here moves every stream of every trial.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A stream builds its mt19937_64 engine on its first draw: until then it is
// just its seed (16 bytes, no seeding work). A city-scale trial gives every
// node a MAC backoff stream, but only the routing tree's members ever draw
// from theirs. Draws and snapshot bytes are those of an eagerly seeded
// engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Move-only: a copied generator silently replays the same random sequence
  // in two places, which breaks run reproducibility in ways no test sees
  // directly. Components own their stream (constructed from `fork`) and
  // everything else takes `Rng&` — the essat-rng-by-ref lint check enforces
  // the signatures, this enforces the call sites.
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  // Derives an independent generator; deterministic in (seed, stream).
  Rng fork(std::uint64_t stream) const;

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Uniform Time in [lo, hi).
  Time uniform_time(Time lo, Time hi);
  // Exponential with the given mean (> 0).
  double exponential(double mean);
  // Gaussian with the given mean and standard deviation (>= 0; zero
  // returns `mean` after the same engine draws). Throws
  // std::invalid_argument for a negative or NaN stddev.
  double normal(double mean, double stddev);
  bool bernoulli(double p);

  std::uint64_t seed() const { return seed_; }

  // Snapshot hook (attestation only: restore replays). Every distribution
  // above is constructed fresh per call, so (seed_, engine state) is the
  // complete stream state; an undrawn stream writes a freshly seeded
  // engine's state.
  void save_state(snap::Serializer& out) const;

 private:
  // The engine, built from the seed on first use.
  std::mt19937_64& engine();

  std::uint64_t seed_;
  std::unique_ptr<std::mt19937_64> gen_;
};

}  // namespace essat::util
