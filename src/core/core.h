#ifndef UOLAP_CORE_CORE_H_
#define UOLAP_CORE_CORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/branch_predictor.h"
#include "core/config.h"
#include "core/counters.h"
#include "core/memory_system.h"
#include "core/observer.h"
#include "core/placement.h"

namespace uolap::core {

/// A logical code region (operator / interpreter / compiled query loop).
/// The instruction-cache model is analytic per region: a loop whose body
/// footprint fits L1I never misses; larger footprints spill to L2/L3
/// proportionally (cyclic LRU behaviour). This is where the paper's
/// "large instruction footprint" commercial-system story lives.
struct CodeRegion {
  std::string name;
  uint64_t footprint_bytes = 2048;
};

/// Caller-held state for the batched range-access fast path
/// (`Core::LoadRange`/`StoreRange`): remembers the cache line the stream
/// touched last so consecutive ranges over the same array coalesce into
/// one simulated line walk per line. Keep one cursor per (array, scan)
/// stream — a ColumnView owns one per view; vectorized primitives keep one
/// per input array.
struct SeqCursor {
  static constexpr uint64_t kNoLine = ~0ull;
  uint64_t line = kNoLine;
  bool dirty = false;
};

/// Per-thread execution façade the engines drive. Contract:
///  - `Load`/`Store` for every data access (they auto-count the memory
///    instructions and drive the cache/TLB/prefetcher model);
///  - `LoadSeq`/`StoreSeq` (or the cursor-based `LoadRange`/`StoreRange`)
///    for *sequential element runs* — counter-equivalent to the per-element
///    calls but walking the simulated hierarchy once per cache line;
///  - `Branch` for every *data-dependent* branch (predicates, hash-chain
///    checks) — it drives the gshare predictor;
///  - `Retire` for everything else (ALU work, loop overhead, perfectly
///    predicted back-edges), typically batched per tuple block;
///  - `SetCodeRegion` when entering an operator with a different code
///    footprint, `SetMlpHint` when entering a phase with different
///    memory-level parallelism (see calibration.h).
///
/// Addresses are simulated addresses: engine code charges the addresses
/// its structures were given by `placement()`, never host pointers. The
/// `const void*` overloads forward the pointer's value unchanged, for
/// callers that drive the model with synthetic addresses.
///
/// The average x86 instruction is modelled as 4 bytes for I-fetch purposes.
class Core {
  // The only caller of the region primitives, so every push is matched by
  // exactly one pop, also under early returns.
  friend class ScopedRegion;

 public:
  /// `index` selects this core's simulated address range (Machine passes
  /// each core its position).
  explicit Core(const MachineConfig& config, uint32_t index = 0);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// --- data side (hot path) -------------------------------------------
  /// A 16-entry recently-touched-line filter short-circuits repeated
  /// accesses to the same cache line (indexed by 4 KB page so interleaved
  /// column streams do not thrash it); everything else walks the full
  /// simulated hierarchy.
  ///
  /// Straddle contract (pinned; see core_straddle_contract_test): an
  /// access that crosses a line boundary bypasses the filter entirely —
  /// every touched line takes a full hierarchy walk and the filter keeps
  /// its previous contents. The filter tracks only non-straddling
  /// accesses, so a straddled store followed by a same-line
  /// non-straddling store walks the hierarchy again for the dirty
  /// transition instead of filter-hitting (the walk is an L1 hit; only
  /// the filter's short-circuit is forgone). `LoadSeq`/`StoreSeq`
  /// straddle elements take the identical arm, which is what keeps the
  /// batched and per-element paths counter-equivalent.
  void Load(uint64_t addr, uint32_t bytes) {
    ++mix_.load;
    ++pending_.load;
    AccessFiltered(addr, bytes, /*is_store=*/false);
  }
  void Store(uint64_t addr, uint32_t bytes) {
    ++mix_.store;
    ++pending_.store;
    AccessFiltered(addr, bytes, /*is_store=*/true);
  }
  void Load(const void* p, uint32_t bytes) { Load(Addr(p), bytes); }
  void Store(const void* p, uint32_t bytes) { Store(Addr(p), bytes); }

  /// One lane of a vector load/store: walks the simulated hierarchy for
  /// every line it touches, exactly as a straddling `Load`/`Store` does
  /// (no line filter), but counts no scalar memory instruction — the wide
  /// SIMD op the kernel retires carries the instruction cost. Tectorwise's
  /// SIMD primitives charge their per-element gathers and scatters here.
  void LaneAccess(uint64_t addr, uint32_t bytes, bool is_store) {
    memory_.AccessData(addr, bytes, is_store);
  }

  /// Host prefetch hint for a later `Load`/`Store` of `addr`: brings the
  /// simulator's own L3, L2 and STLB set blocks for it into the host
  /// caches (the 3.7 MB Broadwell L3 image outgrows a host L2). Engines
  /// issue it a constant distance ahead of a random access (DESIGN.md §7).
  /// No simulated effect — no counter, cache, TLB, filter or stream state
  /// changes — and it computes set indices only, never a tag, so no
  /// address aborts it.
  void Prefetch(uint64_t addr) const { memory_.PrefetchLine(addr >> 6); }

  /// --- batched sequential access (hot path) ----------------------------
  /// `LoadSeq(p, esz, count)` is counter-equivalent to
  ///   `for (i in [0, count)) Load(p + i * esz, esz)`
  /// — same instruction mix, same filter-state transitions, same per-line
  /// hierarchy walks — but the per-element filter checks of a run of
  /// same-line elements collapse into one check plus a bulk counter add.
  /// The equivalence is exact whenever no other access interleaves inside
  /// the call (which is what "one call" means); core_batched_access_test
  /// asserts it bit-for-bit, straddles and page crossings included.
  void LoadSeq(uint64_t addr, uint32_t elem_bytes, uint64_t count) {
    AccessRun(nullptr, addr, elem_bytes, count, /*is_store=*/false);
  }
  void StoreSeq(uint64_t addr, uint32_t elem_bytes, uint64_t count) {
    AccessRun(nullptr, addr, elem_bytes, count, /*is_store=*/true);
  }
  void LoadSeq(const void* p, uint32_t elem_bytes, uint64_t count) {
    LoadSeq(Addr(p), elem_bytes, count);
  }
  void StoreSeq(void* p, uint32_t elem_bytes, uint64_t count) {
    StoreSeq(Addr(p), elem_bytes, count);
  }

  /// Cursor-based variant for scan loops that interleave several arrays:
  /// the caller-held `SeqCursor` replaces the shared 16-slot filter as the
  /// "recently touched line" memo for this one stream, so the batched path
  /// is immune to two interleaved arrays aliasing onto the same filter
  /// slot (an artifact of the small filter, not of real caches). Identical
  /// counters to the per-element path whenever no such aliasing occurs.
  void LoadRange(SeqCursor& cur, uint64_t addr, uint32_t elem_bytes,
                 uint64_t count) {
    AccessRun(&cur, addr, elem_bytes, count, /*is_store=*/false);
  }
  void StoreRange(SeqCursor& cur, uint64_t addr, uint32_t elem_bytes,
                  uint64_t count) {
    AccessRun(&cur, addr, elem_bytes, count, /*is_store=*/true);
  }
  void LoadRange(SeqCursor& cur, const void* p, uint32_t elem_bytes,
                 uint64_t count) {
    LoadRange(cur, Addr(p), elem_bytes, count);
  }
  void StoreRange(SeqCursor& cur, void* p, uint32_t elem_bytes,
                  uint64_t count) {
    StoreRange(cur, Addr(p), elem_bytes, count);
  }

  /// --- branch side -----------------------------------------------------
  /// Returns true if the simulated predictor mispredicted.
  bool Branch(uint32_t site_id, bool taken) {
    ++mix_.branch;
    ++pending_.branch;
    ++branch_events_;
    const bool misp = predictor_.Record(site_id, taken);
    if (misp) ++branch_mispredicts_;
    return misp;
  }

  /// --- instruction side ------------------------------------------------
  void Retire(const InstrMix& mix);
  /// Convenience: retire `n` copies of a per-iteration mix.
  void RetireN(const InstrMix& per_iter, uint64_t n) {
    Retire(per_iter.Scaled(n));
  }

  void SetCodeRegion(const CodeRegion& region) {
    region_ = region;
    RecomputeIfetchFractions();
  }
  const CodeRegion& code_region() const { return region_; }

  void SetMlpHint(double mlp) { memory_.SetMlpHint(mlp); }

  /// Routes the memory model through its pre-accelerator reference paths
  /// (bit-identical counters by contract; the differential property test
  /// drives both and compares). See MemorySystem::SetReferencePaths.
  void SetReferencePaths(bool on) { memory_.SetReferencePaths(on); }

  /// --- observability ---------------------------------------------------
  /// Attaches/detaches the (single) observer. The harness attaches one
  /// obs::RegionProfiler per core for the lifetime of a profiled run.
  void SetObserver(CoreObserver* observer) { observer_ = observer; }
  CoreObserver* observer() const { return observer_; }

  /// Instructions retired so far (including auto-counted memory/branch
  /// instructions). Observers use it for timeline sampling thresholds.
  uint64_t instructions_retired() const { return mix_.TotalInstructions(); }

  /// Point-in-time counter snapshot, valid mid-run: `counters()` plus the
  /// analytic I-fetch accumulators flushed as `Finalize()` would flush
  /// them. A pure function of core state — snapshotting never perturbs the
  /// run — so deltas between snapshots telescope: contiguous interval
  /// deltas sum exactly to the whole-run counters. (Trailing effects that
  /// only `Finalize()` materializes, e.g. live-stream prefetch-waste
  /// accounting, appear in the interval that contains the finalize.)
  CoreCounters SnapshotCounters() const;

  /// Flushes stream-detector state and the analytic I-fetch accumulators.
  /// Must be called once before reading `counters()` at the end of a run.
  void Finalize();

  /// Assembled counter snapshot (call after Finalize()).
  CoreCounters counters() const;

  const MachineConfig& config() const { return config_; }
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }
  const BranchPredictor& predictor() const { return predictor_; }

  /// This core's simulated address space (see placement.h).
  Placement& placement() { return placement_; }

  /// Forwards to MemorySystem::SetValidateFills (audit layer).
  void SetValidateFills(bool on) { memory_.SetValidateFills(on); }

 private:
  static constexpr int kFilterSlots = 16;
  static constexpr double kAvgInstrBytes = 4.0;

  static uint64_t Addr(const void* p) { return reinterpret_cast<uint64_t>(p); }

  /// Marks the start/end of a named, nestable profiling region (an
  /// operator phase: "build", "probe", ...). Pure markers: they never
  /// touch simulated state, so a run's counters are bit-identical with or
  /// without them, and with no observer attached each is one predictable
  /// null check.
  void PushRegion(std::string_view name) {
    if (UOLAP_UNLIKELY(observer_ != nullptr)) observer_->OnRegionPush(name);
  }
  void PopRegion() {
    if (UOLAP_UNLIKELY(observer_ != nullptr)) observer_->OnRegionPop();
  }

  /// The filter slot of `line`: one per 4 KB page, modulo the slot count.
  SeqCursor& FilterSlot(uint64_t line) {
    return filter_[(line >> 6) & (kFilterSlots - 1)];
  }

  void AccessFiltered(uint64_t addr, uint32_t bytes, bool is_store) {
    const uint64_t line = addr >> 6;
    if (UOLAP_UNLIKELY(((addr & 63) + bytes) > 64)) {
      // Straddles a line boundary: take the slow path for all lines.
      memory_.AccessData(addr, bytes, is_store);
      return;
    }
    SeqCursor& slot = FilterSlot(line);
    if (slot.line == line) {
      if (!is_store || slot.dirty) {
        // Repeated same-line access: an L1 hit by construction.
        ++memory_.mutable_counters()->data_accesses;
        ++memory_.mutable_counters()->l1d_hits;
        return;
      }
      // First store to a filtered line must reach the cache to set the
      // dirty bit (writeback accounting).
      slot.dirty = true;
      memory_.AccessDataLine(line, /*is_store=*/true);
      return;
    }
    slot.line = line;
    slot.dirty = is_store;
    memory_.AccessDataLine(line, is_store);
  }

  /// The one batched-access loop behind LoadSeq/StoreSeq (`cur` null: the
  /// line's filter slot is the {line, dirty} memo) and LoadRange/
  /// StoreRange (`cur`: the caller's stream cursor is the memo).
  void AccessRun(SeqCursor* cur, uint64_t addr, uint32_t elem_bytes,
                 uint64_t count, bool is_store);
  /// Re-derives the per-level I-fetch fractions for the current code
  /// region (they change only on SetCodeRegion, so Retire need not
  /// redo the divides; hoisting them is bit-exact).
  void RecomputeIfetchFractions();

  const MachineConfig config_;
  MemorySystem memory_;
  BranchPredictor predictor_;

  /// Closes the current retirement phase: merges the auto-counted pending
  /// memory/branch instructions with `retired`, accumulates the phase's
  /// execution-port/chain stall, and advances the I-fetch model.
  void ClosePhase(const InstrMix& retired);

  InstrMix mix_;
  InstrMix pending_;  ///< auto-counted instrs since the last Retire
  uint64_t branch_events_ = 0;
  uint64_t branch_mispredicts_ = 0;
  double exec_stall_cycles_ = 0;

  // Exact reciprocals of power-of-two port counts (0.0 = not a power of
  // two, divide instead); see RecipIfPow2 in core.cc.
  double inv_alu_ = 0;
  double inv_mul_ = 0;
  double inv_load_ = 0;
  double inv_store_ = 0;
  double inv_agu_ = 0;
  double inv_simd_ = 0;
  double inv_issue_ = 0;

  CodeRegion region_{"default", 2048};
  // Per-level I-fetch line fractions of region_ (RecomputeIfetchFractions).
  double ifrac_l1_ = 0;
  double ifrac_l2_ = 0;
  double ifrac_l3_ = 0;
  double ifrac_dram_ = 0;
  // Analytic I-fetch accumulators (flushed in Finalize()).
  double ifetch_l1_ = 0;
  double ifetch_l2_ = 0;
  double ifetch_l3_ = 0;
  double ifetch_dram_ = 0;

  SeqCursor filter_[kFilterSlots];
  Placement placement_;

  CoreObserver* observer_ = nullptr;
};

/// RAII region marker: pushes `name` on construction, pops on destruction.
///   { ScopedRegion r(core, "probe"); ... probe loop ... }
class ScopedRegion {
 public:
  ScopedRegion(Core& core, std::string_view name) : core_(core) {
    core_.PushRegion(name);
  }
  ~ScopedRegion() { core_.PopRegion(); }

  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;

 private:
  Core& core_;
};

}  // namespace uolap::core

#endif  // UOLAP_CORE_CORE_H_
