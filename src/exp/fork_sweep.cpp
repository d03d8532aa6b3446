#include "src/exp/fork_sweep.h"

#include <stdexcept>
#include <string>

#include "src/exp/thread_pool.h"
#include "src/snap/metrics_codec.h"
#include "src/snap/snapshot.h"
#include "src/snap/trial.h"

#if defined(__unix__) || defined(__APPLE__)
#define ESSAT_FORK_SWEEP 1
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace essat::exp {

#if defined(ESSAT_FORK_SWEEP)

bool fork_sweep_available() { return true; }

namespace {

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      // The parent died or closed the pipe; nothing useful left to do.
      ::_exit(3);
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> read_until_eof(int fd) {
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error{std::string{"run_fork_sweep: pipe read: "} +
                               std::strerror(errno)};
    }
    if (n == 0) return buf;
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

struct PendingChild {
  pid_t pid = -1;
  int read_fd = -1;
  std::size_t variant = 0;
};

// Child: adopt the variant's workload, run the trial out, and ship its
// metrics as a CRC-framed kMetrics snapshot. Never returns: _exit skips the
// atexit handlers and static destructors the process shares with the
// parent, and an exception must not unwind into the parent's caller.
[[noreturn]] void run_child(harness::Trial& trial,
                            const harness::WorkloadSpec& workload, int fd) {
  try {
    trial.set_workload(workload);
    snap::Snapshot snap;
    snap.kind = snap::SnapshotKind::kMetrics;
    snap.payload = snap::run_metrics_to_bytes(trial.finish());
    const std::vector<std::uint8_t> wire = snap.to_bytes();
    write_all(fd, wire.data(), wire.size());
  } catch (...) {
    ::_exit(1);
  }
  ::_exit(0);
}

// Collects every pending child's metrics and reaps it, even after a
// failure. Returns the first failure ("" if none).
std::string drain(std::vector<PendingChild>& pending,
                  std::vector<harness::RunMetrics>& results) {
  std::string failure;
  for (const PendingChild& c : pending) {
    std::string error;
    try {
      // The child writes only after its run completes, so this read is
      // also the wait for the slowest child in the batch.
      const std::vector<std::uint8_t> wire = read_until_eof(c.read_fd);
      results[c.variant] = snap::run_metrics_from_bytes(
          snap::Snapshot::from_bytes(wire.data(), wire.size()).payload);
    } catch (const std::exception& e) {
      error = std::string{" sent a malformed result: "} + e.what();
    }
    ::close(c.read_fd);
    int status = 0;
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      error = " exited abnormally";
    }
    if (failure.empty() && !error.empty()) {
      failure = "run_fork_sweep: child for variant " +
                std::to_string(c.variant) + error;
    }
  }
  pending.clear();
  return failure;
}

}  // namespace

std::vector<harness::RunMetrics> run_fork_sweep(
    const harness::ScenarioConfig& base,
    const std::vector<harness::WorkloadSpec>& workloads, int max_parallel) {
  if (workloads.empty()) return {};
  const std::size_t batch =
      static_cast<std::size_t>(max_parallel > 0 ? max_parallel : default_jobs());

  // The shared prefix, simulated once; every child inherits it paused.
  // set_workload rejects a changed query_start_window, so trying every
  // variant here fails the sweep before any fork.
  harness::Trial prefix{base};
  for (const harness::WorkloadSpec& w : workloads) prefix.set_workload(w);
  prefix.advance_to(snap::capture_barrier(base));

  std::vector<harness::RunMetrics> results(workloads.size());
  std::vector<PendingChild> pending;
  std::string failure;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    if (pending.size() >= batch) failure = drain(pending, results);
    if (!failure.empty()) break;
    int fds[2];
    if (::pipe(fds) != 0) {
      failure = std::string{"run_fork_sweep: pipe: "} + std::strerror(errno);
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      failure = std::string{"run_fork_sweep: fork: "} + std::strerror(errno);
      ::close(fds[0]);
      ::close(fds[1]);
      break;
    }
    if (pid == 0) {
      ::close(fds[0]);
      run_child(prefix, workloads[i], fds[1]);
    }
    ::close(fds[1]);
    pending.push_back(PendingChild{pid, fds[0], i});
  }
  const std::string last = drain(pending, results);
  if (failure.empty()) failure = last;
  if (!failure.empty()) throw std::runtime_error{failure};
  return results;
}

#else  // !ESSAT_FORK_SWEEP

bool fork_sweep_available() { return false; }

// Identical results without fork(2): every variant re-simulates the prefix.
std::vector<harness::RunMetrics> run_fork_sweep(
    const harness::ScenarioConfig& base,
    const std::vector<harness::WorkloadSpec>& workloads, int /*max_parallel*/) {
  std::vector<harness::RunMetrics> results;
  results.reserve(workloads.size());
  for (const harness::WorkloadSpec& w : workloads) {
    harness::Trial trial{base};
    trial.set_workload(w);
    results.push_back(trial.finish());
  }
  return results;
}

#endif

}  // namespace essat::exp
