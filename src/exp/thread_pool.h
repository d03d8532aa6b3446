// Fixed-size worker pool for fanning experiment trials across cores.
//
// Deliberately minimal: tasks are opaque closures, there is no work
// stealing or prioritisation, and results flow through whatever storage
// the closures capture. Determinism is the caller's job — the sweep
// runner pre-assigns every trial its own seed and folds each point's
// results in repetition order, so completion order never affects output.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace essat::exp {

// Number of worker threads to use by default: the ESSAT_JOBS environment
// variable if set to a positive integer, otherwise the hardware
// concurrency (at least 1).
int default_jobs();

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);
  // Blocks until all submitted tasks have finished, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  // Blocks until the queue is empty and no task is executing.
  void wait_idle();

  int thread_count() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop_();

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks / shutdown
  std::condition_variable idle_cv_;   // wait_idle waits for quiescence
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace essat::exp
