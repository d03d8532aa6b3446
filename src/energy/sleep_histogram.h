// Counts of completed sleep (OFF) intervals for the paper's break-even
// analysis (§5.3): Fig. 8's 25 ms bins up to 200 ms, an overflow count past
// the last edge, and how many intervals are shorter than the 2.5 ms
// break-even time. Each radio fills one as its sleeps close; a trial's
// histogram is the merge of its radios'. Storage is inline counts only.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace essat::energy {

class SleepHistogram {
 public:
  static constexpr std::size_t kNumBins = 8;
  static constexpr double kBinWidthS = 0.025;
  // MICA2's t_OFF->ON + t_ON->OFF, the break-even time Fig. 8 measures against.
  static constexpr double kShortS = 0.0025;

  // Counts one interval of `s` >= 0 seconds.
  void add(double s) {
    const auto bin = static_cast<std::size_t>(s / kBinWidthS);
    if (bin < kNumBins) {
      ++bins_[bin];
    } else {
      ++overflow_;
    }
    if (s < kShortS) ++short_;
  }

  void merge(const SleepHistogram& other) {
    for (std::size_t i = 0; i < kNumBins; ++i) bins_[i] += other.bins_[i];
    overflow_ += other.overflow_;
    short_ += other.short_;
  }

  std::size_t num_bins() const { return kNumBins; }
  std::uint64_t count(std::size_t bin) const { return bins_.at(bin); }
  // Intervals of at least kNumBins * kBinWidthS.
  std::uint64_t overflow() const { return overflow_; }
  // Intervals shorter than kShortS.
  std::uint64_t short_count() const { return short_; }
  std::uint64_t total() const {
    std::uint64_t t = overflow_;
    for (std::uint64_t c : bins_) t += c;
    return t;
  }
  // Inclusive upper edge label as used by the paper's Fig. 8 ("the number of
  // sleep intervals whose length falls in the range [x-25, x] ms").
  double bin_upper_edge(std::size_t bin) const {
    return kBinWidthS * static_cast<double>(bin + 1);
  }

  // Field list for snap::Writer and snap::Reader (src/snap/field_codec.h;
  // the second parameter is its Field<IO, SleepHistogram>), shared by the
  // RunMetrics and Radio encodings: the bins, overflow, then the short count.
  template <typename IO>
  friend void fields(IO& io, typename IO::template Of<SleepHistogram>& h) {
    for (auto& c : h.bins_) io(c);
    io(h.overflow_, h.short_);
  }

 private:
  std::array<std::uint64_t, kNumBins> bins_{};
  std::uint64_t overflow_ = 0;
  std::uint64_t short_ = 0;
};

}  // namespace essat::energy
