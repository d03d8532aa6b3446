// Round-trip property tests for the one loader the snapshot layer has: the
// RunMetrics codec (the sweep ledger decodes finished metrics), including
// the sleep histogram's field list inside it. Simulation components have
// save_state hooks only, because restore replays from t = 0 and
// byte-compares the state. The invariant: decode then re-encode reproduces
// the original bytes exactly, and the decoded object answers every query
// like the original.
#include <gtest/gtest.h>

#include <cstddef>

#include "src/energy/sleep_histogram.h"
#include "src/harness/metrics.h"
#include "src/snap/field_codec.h"
#include "src/snap/metrics_codec.h"
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

harness::RunMetrics sample_metrics() {
  harness::RunMetrics m;
  m.avg_duty_cycle = 0.123456789;
  m.duty_by_rank = {0.5, 0.25, 0.125};
  m.avg_latency_s = 1.5;
  m.p95_latency_s = 2.5;
  m.max_latency_s = 3.5;
  m.delivery_ratio = 0.99;
  m.epochs_measured = 40;
  m.sleep_hist.add(0.01);
  m.sleep_hist.add(0.15);
  m.sleep_hist.add(0.9);
  m.frac_sleep_below_2_5ms = 0.0625;
  m.phase_update_bits_per_report = 0.75;
  m.phase_updates = 12;
  for (int i = 0; i < 5; ++i) {
    harness::RunMetrics::NodeDiag d;
    d.id = i;
    d.rank = i % 3;
    d.level = i;
    d.leaf = (i % 2) == 0;
    d.duty_cycle = 0.1 * i;
    d.reports_sent = 10u * i;
    d.send_failures = i;
    d.retx_no_ack = 2u * i;
    d.cca_busy_defers = 3u * i;
    m.per_node.push_back(d);
  }
  m.reports_sent = 50;
  m.mac_transmissions = 200;
  m.mac_send_failures = 5;
  m.mac_retx_no_ack = 20;
  m.mac_cca_busy_defers = 30;
  m.channel_collisions = 7;
  m.channel_delivered = 180;
  m.channel_dropped_by_model = 13;
  m.pass_through_forwarded = 4;
  m.tree_members = 5;
  m.max_rank = 2;
  m.backbone_size = 3;
  m.sim_events = 123456;
  m.peak_pending_events = 789;
  return m;
}

TEST(RunMetricsCodec, RoundTripReproducesBytesExactly) {
  const harness::RunMetrics m = sample_metrics();
  const auto bytes = snap::run_metrics_to_bytes(m);
  const harness::RunMetrics back = snap::run_metrics_from_bytes(bytes);
  // Two RunMetrics are equal iff their encodings are equal — the same
  // equivalence the restored-vs-straight-run conformance tests use.
  EXPECT_EQ(snap::run_metrics_to_bytes(back), bytes);
  EXPECT_EQ(back.avg_duty_cycle, m.avg_duty_cycle);
  EXPECT_EQ(back.per_node.size(), m.per_node.size());
  EXPECT_EQ(back.sleep_hist.total(), m.sleep_hist.total());
  EXPECT_EQ(back.sim_events, m.sim_events);
}

}  // namespace
}  // namespace essat
