// Deterministic random number generation for reproducible simulation runs.
//
// Every simulation run is parameterized by a single 64-bit seed; independent
// streams (node placement, query phases, MAC backoff per node, ...) are
// derived with `fork`, so adding a consumer never perturbs other streams.
#pragma once

#include <cstdint>
#include <random>

#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::util {

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
  // complete stream state.
  void save_state(snap::Serializer& out) const;

 private:
  std::uint64_t seed_;
  std::mt19937_64 gen_;
};

}  // namespace essat::util
