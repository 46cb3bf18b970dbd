#include "engine/thread_pool.h"

#include <cstdlib>

#include "common/macros.h"

namespace uolap::engine {

namespace {
/// True while this thread is inside a pool item; nested ParallelFor calls
/// from such a thread run inline (see class comment).
thread_local bool tls_in_pool_item = false;
}  // namespace

ThreadPool::ThreadPool(unsigned threads) : threads_(threads == 0 ? 1 : threads) {
  workers_.reserve(threads_ - 1);
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    unsigned n = 0;
    if (const char* env = std::getenv("UOLAP_THREADS")) {
      n = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    }
    if (n == 0) n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
    return new ThreadPool(n);
  }();
  return *pool;
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (tls_in_pool_item || workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  UOLAP_DCHECK(n <= kIndexMask);
  std::lock_guard<std::mutex> caller_lock(caller_mu_);
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = ++job_epoch_;
    job_n_ = n;
    job_body_ = &body;
    done_ = 0;
    ticket_.store(epoch << kEpochShift, std::memory_order_release);
  }
  job_cv_.notify_all();
  DrainJob(epoch, n, &body);  // the caller participates
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this, n] { return done_ == n; });
    job_body_ = nullptr;
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t last_epoch = 0;
  while (true) {
    uint64_t epoch;
    size_t n;
    const std::function<void(size_t)>* body;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [this, last_epoch] {
        return shutdown_ || job_epoch_ != last_epoch;
      });
      if (shutdown_) return;
      epoch = job_epoch_;
      n = job_n_;
      body = job_body_;
    }
    last_epoch = epoch;
    if (body != nullptr) DrainJob(epoch, n, body);
  }
}

void ThreadPool::DrainJob(uint64_t epoch, size_t n,
                          const std::function<void(size_t)>* body) {
  const uint64_t tag = epoch << kEpochShift;
  const bool was_in_item = tls_in_pool_item;
  tls_in_pool_item = true;
  size_t ran = 0;
  uint64_t t = ticket_.load(std::memory_order_acquire);
  while ((t & ~kIndexMask) == tag) {
    const uint64_t idx = t & kIndexMask;
    if (idx >= n) break;
    if (ticket_.compare_exchange_weak(t, tag | (idx + 1),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      (*body)(static_cast<size_t>(idx));
      ++ran;
      t = ticket_.load(std::memory_order_acquire);
    }
    // On CAS failure `t` was refreshed; the loop re-checks the epoch.
  }
  tls_in_pool_item = was_in_item;
  if (ran == 0) return;
  bool complete;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ += ran;
    complete = done_ == n;
  }
  if (complete) done_cv_.notify_all();
}

}  // namespace uolap::engine
