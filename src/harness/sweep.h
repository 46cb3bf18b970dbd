#ifndef UOLAP_HARNESS_SWEEP_H_
#define UOLAP_HARNESS_SWEEP_H_

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"

namespace uolap::harness {

/// Computes `fn(0) .. fn(n-1)` concurrently on the global pool and returns
/// the results in index order. This is how the figure drivers run
/// independent sweep points (one profiled configuration each) in parallel
/// while keeping their printed rows in the original deterministic order:
/// compute via RunSweep, then print the returned vector sequentially.
///
/// Each `fn(i)` must be independent of the others (profiles its own
/// Machine). A sweep point that itself profiles a threaded multi-core run
/// (harness::Profile) nests fine — the inner ParallelFor runs inline on
/// the occupied pool thread.
template <typename Fn>
auto RunSweep(size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, size_t>> {
  using R = std::invoke_result_t<Fn&, size_t>;
  std::vector<R> out(n);
  engine::ThreadPool::Global().ParallelFor(
      n, [&out, &fn](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace uolap::harness

#endif  // UOLAP_HARNESS_SWEEP_H_
