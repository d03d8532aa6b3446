// Crash-resumable sweeps: the checkpoint ledger (src/exp/checkpoint) plus
// resumable path-backed sinks must make a killed-and-resumed sweep emit
// output byte-identical to an uninterrupted one — including a SIGKILL
// delivered mid-run (fork-in-gtest: the child dies for real, the parent
// resumes against the surviving checkpoint directory).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/checkpoint.h"
#include "src/exp/sinks.h"
#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/harness/scenario.h"

namespace essat::exp {
namespace {

namespace fs = std::filesystem;

// Deterministic stand-in for run_scenario: every metric is a pure function
// of (seed, rate), so resume equivalence is isolated from simulator cost.
harness::RunMetrics stub_run(const harness::ScenarioConfig& c) {
  harness::RunMetrics m;
  const double s = static_cast<double>(c.seed);
  m.avg_duty_cycle = 0.01 * s + c.workload.base_rate_hz;
  m.avg_latency_s = 1.0 / (s + 1.0);
  m.p95_latency_s = 2.0 / (s + 1.0);
  m.delivery_ratio = 1.0 - 0.001 * s;
  m.phase_update_bits_per_report = 0.5 * s;
  m.mac_send_failures = c.seed % 7;
  m.duty_by_rank = {0.1 * s, 0.2 * s};
  return m;
}

SweepSpec small_spec() {
  harness::ScenarioConfig base;
  base.seed = 100;
  SweepSpec spec(base);
  spec.runs(2).axis_rate({0.5, 1.0, 2.0, 4.0});
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

// Runs the sweep to completion in `dir` with path-backed sinks; returns
// the two output files' contents.
std::pair<std::string, std::string> run_with_sinks(
    const std::string& dir, const std::string& csv, const std::string& jsonl,
    SweepRunner::Options opts) {
  CsvSink csv_sink{csv};
  JsonLinesSink jsonl_sink{jsonl};
  opts.run_fn = stub_run;
  opts.checkpoint_dir = dir;
  SweepRunner{opts}.run(small_spec(), {&csv_sink, &jsonl_sink});
  return {read_file(csv), read_file(jsonl)};
}

TEST(SweepResume, CheckpointedRunMatchesLegacyOutput) {
  // SweepRunner has one loop; a checkpoint directory only adds the ledger.
  // A sweep with a ledger must write the same bytes as one without.
  std::string legacy_csv, legacy_jsonl;
  {
    TempDir t{"sweep_resume_test.legacy"};
    CsvSink csv{t.file("out.csv")};
    JsonLinesSink jsonl{t.file("out.jsonl")};
    SweepRunner::Options opts;
    opts.jobs = 2;
    opts.run_fn = stub_run;
    SweepRunner{opts}.run(small_spec(), {&csv, &jsonl});
    legacy_csv = read_file(t.file("out.csv"));
    legacy_jsonl = read_file(t.file("out.jsonl"));
  }
  TempDir t{"sweep_resume_test.ckpt"};
  const auto [csv, jsonl] = run_with_sinks(t.file("ckpt"), t.file("out.csv"),
                                           t.file("out.jsonl"), [] {
                                             SweepRunner::Options o;
                                             o.jobs = 2;
                                             return o;
                                           }());
  EXPECT_EQ(csv, legacy_csv);
  EXPECT_EQ(jsonl, legacy_jsonl);
}

TEST(SweepResume, SigkillMidSweepResumesByteIdentical) {
  TempDir t{"sweep_resume_test.kill"};
  const std::string dir = t.file("ckpt");
  const std::string csv = t.file("out.csv");
  const std::string jsonl = t.file("out.jsonl");

  // Reference: the same sweep, uninterrupted, in a sibling directory.
  TempDir ref{"sweep_resume_test.ref"};
  const auto [ref_csv, ref_jsonl] = run_with_sinks(
      ref.file("ckpt"), ref.file("out.csv"), ref.file("out.jsonl"), {});

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die by SIGKILL partway through — after enough trials that
    // some points have been emitted to the sinks and marked.
    int trials = 0;
    SweepRunner::Options opts;
    opts.jobs = 1;
    opts.checkpoint_dir = dir;
    opts.run_fn = [&trials](const harness::ScenarioConfig& c) {
      if (++trials == 5) raise(SIGKILL);
      return stub_run(c);
    };
    CsvSink csv_sink{csv};
    JsonLinesSink jsonl_sink{jsonl};
    SweepRunner{opts}.run(small_spec(), {&csv_sink, &jsonl_sink});
    _exit(0);  // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child was supposed to die by SIGKILL";

  // Parent: resume against the survivors. Output must be byte-identical
  // to the uninterrupted run — no duplicated, missing, or torn rows.
  const auto [resumed_csv, resumed_jsonl] = run_with_sinks(dir, csv, jsonl, {});
  EXPECT_EQ(resumed_csv, ref_csv);
  EXPECT_EQ(resumed_jsonl, ref_jsonl);
}

TEST(SweepResume, ResumeSkipsCompletedTrials) {
  TempDir t{"sweep_resume_test.skip"};
  SweepRunner::Options opts;
  opts.checkpoint_dir = t.file("ckpt");
  opts.run_fn = stub_run;
  const auto first = SweepRunner{opts}.run(small_spec());

  int reruns = 0;
  opts.run_fn = [&reruns](const harness::ScenarioConfig& c) {
    ++reruns;
    return stub_run(c);
  };
  const auto second = SweepRunner{opts}.run(small_spec());
  EXPECT_EQ(reruns, 0) << "a completed sweep must resume with zero re-runs";
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t p = 0; p < first.size(); ++p) {
    EXPECT_EQ(second[p].metrics.duty_cycle.mean(),
              first[p].metrics.duty_cycle.mean());
    EXPECT_EQ(second[p].metrics.duty_cycle.count(),
              first[p].metrics.duty_cycle.count());
  }
}

TEST(SweepResume, TornLedgerTailIsTruncated) {
  TempDir t{"sweep_resume_test.torn"};
  SweepRunner::Options opts;
  opts.checkpoint_dir = t.file("ckpt");
  opts.run_fn = stub_run;
  SweepRunner{opts}.run(small_spec());

  // Simulate a crash mid-append: garbage (and half a magic) at the tail.
  const std::string ledger = (fs::path(opts.checkpoint_dir) / "sweep.ledger").string();
  {
    std::ofstream f{ledger, std::ios::binary | std::ios::app};
    f << "ESSATSNP\x01\x00garbage";
  }
  int reruns = 0;
  opts.run_fn = [&reruns](const harness::ScenarioConfig& c) {
    ++reruns;
    return stub_run(c);
  };
  const auto out = SweepRunner{opts}.run(small_spec());
  EXPECT_EQ(reruns, 0);
  EXPECT_EQ(out.size(), 4u);
}

TEST(SweepResume, FingerprintMismatchRefusesToResume) {
  TempDir t{"sweep_resume_test.mismatch"};
  SweepRunner::Options opts;
  opts.checkpoint_dir = t.file("ckpt");
  opts.run_fn = stub_run;
  SweepRunner{opts}.run(small_spec());

  harness::ScenarioConfig other_base;
  other_base.seed = 999;  // different grid -> different fingerprint
  SweepSpec other{other_base};
  other.runs(2).axis_rate({0.5, 1.0, 2.0, 4.0});
  EXPECT_THROW((void)SweepRunner{opts}.run(other), std::runtime_error);
}

TEST(SweepResume, StreamSinksReportNotResumable) {
  std::ostringstream os;
  CsvSink sink{os};
  EXPECT_EQ(sink.output_offset(), -1);
  sink.resume_at(0);  // must be a harmless no-op on a borrowed stream
}

}  // namespace
}  // namespace essat::exp
