#include "src/util/rng.h"

#include <sstream>
#include <stdexcept>

#include "src/snap/serializer.h"

namespace essat::util {

Rng::Rng(std::uint64_t seed) : seed_{seed} {}

std::mt19937_64& Rng::engine() {
  if (!gen_) gen_ = std::make_unique<std::mt19937_64>(splitmix64(seed_));
  return *gen_;
}

Rng Rng::fork(std::uint64_t stream) const {
  return Rng{splitmix64(seed_ ^ splitmix64(stream + 0x517cc1b727220a95ULL))};
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d{lo, hi};
  return d(engine());
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d{lo, hi};
  return d(engine());
}

Time Rng::uniform_time(Time lo, Time hi) {
  if (hi <= lo) return lo;
  return Time::nanoseconds(uniform_int(lo.ns(), hi.ns() - 1));
}

double Rng::exponential(double mean) {
  std::exponential_distribution<double> d{1.0 / mean};
  return d(engine());
}

double Rng::normal(double mean, double stddev) {
  // std::normal_distribution requires stddev > 0, but a zero spread is a
  // valid config (point-like clusters). Scaling a standard normal is
  // libstdc++'s own last step, so draws and engine consumption match
  // normal_distribution{mean, stddev} bit for bit.
  if (!(stddev >= 0.0)) {
    throw std::invalid_argument{"Rng::normal: stddev must be >= 0"};
  }
  std::normal_distribution<double> d{0.0, 1.0};
  return d(engine()) * stddev + mean;
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution d{p};
  return d(engine());
}

void Rng::save_state(snap::Serializer& out) const {
  out.u64(seed_);
  std::ostringstream ss;
  if (gen_) {
    ss << *gen_;
  } else {
    ss << std::mt19937_64{splitmix64(seed_)};
  }
  out.str(ss.str());
}

}  // namespace essat::util
