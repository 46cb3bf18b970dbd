#ifndef UOLAP_ENGINE_THREAD_POOL_H_
#define UOLAP_ENGINE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine.h"

namespace uolap::engine {

/// Shared-ticket thread pool running one parallel-for job at a time:
/// `threads - 1` resident workers plus the calling thread self-schedule
/// item indices off a single atomic ticket, so load balances dynamically
/// (a worker stuck on a slow item stops claiming; the others drain the
/// rest). Used three ways, which nest safely:
///
///  - `harness::Profile` (harness/profile.h) attaches the pool to
///    `Workers`, so each simulated worker core's body runs on its own OS
///    thread;
///  - bench drivers wrap independent sweep points in `harness::RunSweep`
///    (harness/sweep.h);
///  - `server::Server` simulates its query classes, each on its own fresh
///    machine, as one parallel-for per wave (server/serving.h).
///
/// A thread already executing a pool item runs nested ParallelFor calls
/// inline and serially — a sweep point that internally profiles a
/// multi-core run cannot deadlock waiting for the pool it occupies.
///
/// Determinism: the pool only decides *where* each index runs, never what
/// it does; under the `Workers::ForEach` body contract (all mutable state
/// per-index) every schedule produces bit-identical simulation results.
class ThreadPool : public ParallelExecutor {
 public:
  /// `threads` counts the calling thread, so `ThreadPool(4)` starts three
  /// workers. 0 is treated as 1 (no workers; everything runs inline).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `body(0) .. body(n-1)`, each exactly once, across the workers
  /// and the calling thread; returns after all items completed.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  // ParallelExecutor:
  void Run(size_t n, const std::function<void(size_t)>& body) override {
    ParallelFor(n, body);
  }

  unsigned thread_count() const { return threads_; }

  /// Process-wide pool, sized by the UOLAP_THREADS environment variable
  /// when set, else hardware_concurrency(). Intentionally leaked so its
  /// workers never outlive a destructed pool during static teardown.
  static ThreadPool& Global();

 private:
  // The claim ticket packs (epoch << 32) | next_index. Workers capture the
  // job under the mutex, then claim indices by CAS that bumps the index
  // and re-asserts the epoch — a worker delayed between capture and claim
  // fails the CAS once a newer job is published, instead of stealing one
  // of its indices. (Wrap after 2^32 jobs; unreachable in practice.)
  static constexpr int kEpochShift = 32;
  static constexpr uint64_t kIndexMask = (1ull << kEpochShift) - 1;

  void WorkerLoop();
  /// Claims and runs items of job `epoch` until the ticket moves on or
  /// runs out; reports the count of items it ran toward completion.
  void DrainJob(uint64_t epoch, size_t n,
                const std::function<void(size_t)>* body);

  unsigned threads_;
  std::vector<std::thread> workers_;

  std::mutex caller_mu_;  ///< serializes top-level ParallelFor callers

  std::mutex mu_;
  std::condition_variable job_cv_;   ///< workers: a new epoch is published
  std::condition_variable done_cv_;  ///< caller: all items completed
  bool shutdown_ = false;
  uint64_t job_epoch_ = 0;                         // guarded by mu_
  size_t job_n_ = 0;                               // guarded by mu_
  const std::function<void(size_t)>* job_body_ = nullptr;  // guarded by mu_
  size_t done_ = 0;                                // guarded by mu_

  std::atomic<uint64_t> ticket_{0};
};

}  // namespace uolap::engine

#endif  // UOLAP_ENGINE_THREAD_POOL_H_
