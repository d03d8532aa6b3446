// Round-trip property test for the sleep histogram's field list
// (energy/sleep_histogram.h), which RunMetrics' RMET section and each
// radio's RADI section encode. The snapshot layer decodes only the
// scenario config: simulation components have save_state hooks only,
// because restore replays from t = 0 and byte-compares the state, and two
// RunMetrics are compared by their encodings. The invariant: the list
// encodes counts only, decode then re-encode reproduces the original bytes
// exactly, and the decoded histogram answers every query like the original.
#include <gtest/gtest.h>

#include <cstddef>

#include "src/energy/sleep_histogram.h"
#include "src/snap/field_codec.h"
#include "src/snap/serializer.h"
#include "src/util/rng.h"

namespace essat {
namespace {

using snap::Deserializer;
using snap::Serializer;

TEST(HistogramRoundTrip, BinsOverflowAndShortCount) {
  energy::SleepHistogram h;
  util::Rng rng{5};
  for (int i = 0; i < 500; ++i) h.add(rng.uniform(0.0, 0.3));

  Serializer out;
  snap::Writer{out}(h);
  const auto bytes = out.take();
  EXPECT_EQ(bytes.size(), (h.num_bins() + 2) * 8);  // counts only

  energy::SleepHistogram back;
  Deserializer in{bytes};
  snap::Reader{in}(back);
  EXPECT_TRUE(in.at_end());

  EXPECT_EQ(back.total(), h.total());
  EXPECT_EQ(back.overflow(), h.overflow());
  EXPECT_EQ(back.short_count(), h.short_count());
  for (std::size_t b = 0; b < h.num_bins(); ++b) {
    EXPECT_EQ(back.count(b), h.count(b));
  }
  EXPECT_GT(h.overflow(), 0u);
  EXPECT_GT(h.short_count(), 0u);

  Serializer again;
  snap::Writer{again}(back);
  EXPECT_EQ(again.data(), bytes);
}

}  // namespace
}  // namespace essat
