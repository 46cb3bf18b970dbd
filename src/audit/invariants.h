#ifndef UOLAP_AUDIT_INVARIANTS_H_
#define UOLAP_AUDIT_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/branch_predictor.h"
#include "core/cache.h"
#include "core/core.h"
#include "core/counters.h"
#include "core/memory_system.h"
#include "core/topdown.h"

namespace uolap::audit {

/// One violated model invariant. `checker` is the dotted rule id (stable —
/// tests and the profile JSON key on it), `subject` names the structure
/// checked ("core0/l1d", "core2/counters", ...), `message` carries the
/// human-readable detail including the numbers involved.
struct Violation {
  std::string checker;
  std::string subject;
  std::string message;
};

/// Outcome of one audit pass: every violation found, plus the number of
/// individual checks evaluated (so "zero violations" is distinguishable
/// from "nothing ran").
struct AuditReport {
  std::vector<Violation> violations;
  uint64_t checks = 0;

  bool ok() const { return violations.empty(); }
  void Fail(std::string checker, std::string subject, std::string message) {
    violations.push_back(
        {std::move(checker), std::move(subject), std::move(message)});
  }
  void Merge(AuditReport other) {
    checks += other.checks;
    for (Violation& v : other.violations) {
      violations.push_back(std::move(v));
    }
  }
  /// Multi-line human-readable rendering ("<checker> [<subject>]: <msg>").
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Individual checkers. Each appends to `report` and bumps report->checks;
// none of them mutates the structure it inspects. The invariant catalog is
// documented in DESIGN.md §5d.
// ---------------------------------------------------------------------------

/// Set-associative cache / TLB structural invariants:
///   cache.duplicate-tag   no key resident in two ways of one set
///   cache.lru-rank        the k valid ways of a set hold exactly the
///                         recency ranks 0..k-1 (true-LRU recency is a
///                         permutation, the invariant victim selection
///                         relies on); invalid ways are rank-empty and clean
/// A stored tag is the key's set quotient, so it decodes only to keys of
/// its own set; core_cache_test's tag round trip is the guarantee.
void CheckCache(const core::SetAssociativeCache& cache,
                std::string_view subject, AuditReport* report);
void CheckCache(const core::LlcCache& cache, std::string_view subject,
                AuditReport* report);

/// Stream-detector table bounds:
///   stream.bounds         valid => run >= 1, dir in {-1,0,1},
///                         0 < last_touch <= stream_clock
///   stream.dead-entry     invalid => run == 0 and last_touch == 0
///   stream.lru-permutation nonzero stamps are distinct across the table
void CheckStreamTable(const core::MemorySystem& mem, std::string_view subject,
                      AuditReport* report);

/// gshare predictor table bounds:
///   predictor.counter-range  every 2-bit counter <= 3
///   predictor.history-range  global history fits its mask
void CheckPredictor(const core::BranchPredictor& predictor,
                    std::string_view subject, AuditReport* report);

/// Full memory-hierarchy pass: CheckCache over L1D/L2/L3/DTLB/STLB,
/// CheckStreamTable, and
///   hierarchy.fill-containment  no fill left the line absent from a level
///                               it was inserted into (counted live by
///                               MemorySystem::SetValidateFills)
void CheckHierarchy(const core::MemorySystem& mem, std::string_view subject,
                    AuditReport* report);

/// Cross-counter identities over a finalized (or snapshotted) counter set.
/// When `live` is non-null the counters are also reconciled against the
/// hit/miss statistics of the live simulated caches. Rules:
///   counters.level-sum       l1d_hits + l2_hits + l3_hits + dram_lines
///                            == data_accesses
///   counters.seq-rand-split  l2/l3 hit and DRAM service classifications
///                            sum to their parents
///   counters.dram-bytes      demand bytes == 64 * serviced lines; all DRAM
///                            byte counters are line-granular (mod 64)
///   counters.tlb             dtlb/stlb/page-walk events partition the
///                            line-granular access stream
///   counters.branch          mispredicts <= events <= retired branches
///   counters.icache          l1i level counters sum to code_fetches
///                            (+/- 3: independent llround of the analytic
///                            accumulators)
///   counters.element-vs-line data_accesses >= retired loads + stores
///                            (equality unless accesses straddle lines)
///   counters.cache-reconcile (live only) counter deltas equal the caches'
///                            own hit/miss ledgers
void CheckCounterIdentities(const core::CoreCounters& c,
                            const core::MemorySystem* live,
                            std::string_view subject, AuditReport* report);

/// Top-Down output identities (`freq_ghz` is the analyzed machine's clock,
/// needed to recompute the derived values):
///   topdown.nonnegative   all six components >= 0
///   topdown.total         components sum to total_cycles within 1e-9 rel.
///   topdown.derived       time_ms / ipc / bandwidth_gbps / dram_bytes /
///                         instructions are consistent with total_cycles,
///                         the counters, and the machine frequency
void CheckBreakdown(const core::ProfileResult& result, double freq_ghz,
                    std::string_view subject, AuditReport* report);

/// Everything checkable about one core after (or during) a run: hierarchy,
/// predictor, and counter identities reconciled against the live caches.
/// Uses SnapshotCounters, so it never perturbs the run.
AuditReport AuditCore(const core::Core& core, std::string_view subject);

}  // namespace uolap::audit

#endif  // UOLAP_AUDIT_INVARIANTS_H_
