// Fixed-size thread pool with a deterministic parallel_for.
//
// The FL simulator trains the sampled clients of each round concurrently
// ("for each client k ∈ S_j in parallel", Algorithm 1/2). Determinism is
// preserved because each client draws from its own named RNG stream and
// results are written to per-index slots — thread scheduling cannot change
// any computed value, only wall-clock time.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace subfed {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [0, n). Blocks until all iterations complete.
  /// Exceptions from tasks are captured and the first one is rethrown here.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide pool sized from SUBFEDAVG_THREADS (default: hardware).
  static ThreadPool& global();

  /// True on threads owned by any ThreadPool. Nested fan-out from inside a
  /// pool task would only queue work the saturated pool cannot pick up (the
  /// caller drains it all anyway), so nested users — e.g. the GEMM row-panel
  /// split — check this and stay sequential.
  static bool current_thread_in_pool() noexcept;

  /// Must be called first thing in a fork()ed child that will keep using the
  /// library (the subprocess transport does). A pool's worker threads do not
  /// exist in the child, so every parallel_for afterwards runs inline on the
  /// calling thread — same results (kernels are thread-count independent) —
  /// and the pool's own queue lock is never touched. The other locks a child
  /// reaches (device plan caches and workspace pools, telemetry registries and
  /// span buffers) are held across fork() by pthread_atfork handlers, so the
  /// child inherits them unlocked.
  static void enter_forked_child() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace subfed
