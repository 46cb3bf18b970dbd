#include "core/memory_system.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/macros.h"

namespace uolap::core {

// The fast-path valid-entry bitmask is uint32_t and
// the full-table victim check compares against ~0u.
static_assert(kStreamTableEntries == 32,
              "stream fast-path masks assume a 32-entry detector table");

namespace {

using ProbeResult = SetAssociativeCache::ProbeResult;

uint64_t Log2Exact(uint64_t x) {
  UOLAP_CHECK_MSG(x != 0 && (x & (x - 1)) == 0, "expected a power of two");
  uint64_t shift = 0;
  while ((1ull << shift) != x) ++shift;
  return shift;
}

// Process-wide reference-path default for new MemorySystems.
std::atomic<bool> g_reference_default{false};

}  // namespace

void MemorySystem::SetReferencePathsDefault(bool on) {
  g_reference_default.store(on, std::memory_order_relaxed);
}

MemorySystem::MemorySystem(const MachineConfig& config)
    : config_(config),
      l1i_(config.l1i.num_sets(), config.l1i.associativity),
      l1d_(config.l1d.num_sets(), config.l1d.associativity),
      l2_(config.l2.num_sets(), config.l2.associativity),
      l3_(config.l3.num_sets(), config.l3.associativity),
      dtlb_(config.dtlb_entries / config.dtlb_ways, config.dtlb_ways),
      stlb_(config.stlb_entries / config.stlb_ways, config.stlb_ways),
      reference_paths_(g_reference_default.load(std::memory_order_relaxed)),
      page_shift_(Log2Exact(config.page_bytes)) {
  UOLAP_CHECK(page_shift_ > kLineShift);
  ResetFastPathState();
  // The seq-access residuals divide by compile-time MLP constants, which
  // IEEE forbids the compiler from strength-reducing itself — precompute
  // them (bit-exact: identical operands, identical quotient bits).
  const double dram_lat = config_.DramCycles();
  l2_seq_cov_cost_ =
      kCoveredUpperLevelResidual * config_.L2HitCycles() / kSeqResidualMlp;
  l2_seq_unc_cost_ = 1.0 * config_.L2HitCycles() / kSeqResidualMlp;
  l3_seq_cov_cost_ =
      kCoveredUpperLevelResidual * config_.L3HitCycles() / kSeqResidualMlp;
  l3_seq_unc_cost_ = 1.0 * config_.L3HitCycles() / kSeqResidualMlp;
  dram_l1s_cost_ = (1.0 - kL1StreamerHideFraction) * dram_lat / kSeqResidualMlp;
  dram_nl_cost_ = (1.0 - kNextLineHideFraction) * dram_lat / kSeqNoPfMlp;
  dram_unc_cost_ = dram_lat / kSeqNoPfMlp;
  stream_startup_cost_ = dram_lat / kStreamStartupMlp;
  RecomputeMlpCosts();
}

void MemorySystem::RecomputeMlpCosts() {
  stlb_cost_ = config_.stlb_hit_cycles / mlp_hint_;
  page_walk_cost_ = config_.page_walk_cycles / mlp_hint_;
  chase_cost_ = kL1ChaseCycles / mlp_hint_;
  l2_rand_cost_ = config_.L2HitCycles() / mlp_hint_;
  l3_rand_cost_ = config_.L3HitCycles() / mlp_hint_;
  dram_rand_cost_ = config_.DramCycles() / mlp_hint_;
}

void MemorySystem::ResetFastPathState() {
  stream_index_.Clear();
  stream_valid_mask_ = 0;
  lru_prev_.fill(-1);
  lru_next_.fill(-1);
  lru_head_ = -1;
  lru_tail_ = -1;
  memo_page_ = kNoPage;
  memo_dtlb_slot_ = 0;
  fast_stats_ = FastPathStats{};
}

void MemorySystem::TestOnlySetStream(int i, bool valid, uint32_t run,
                                     int8_t dir, uint64_t ts) {
  const size_t u = static_cast<size_t>(i);
  stream_valid_[u] = valid ? 1 : 0;
  stream_run_[u] = run;
  stream_dir_[u] = dir;
  stream_ts_[u] = ts;
  // Rebuild the index, mask and LRU list from the table. LRU ties break
  // by entry index, matching ScanVictim's first-wins rule.
  stream_index_.Clear();
  stream_valid_mask_ = 0;
  std::array<int8_t, kStreamTableEntries> order{};
  size_t n = 0;
  for (int e = 0; e < kStreamTableEntries; ++e) {
    const size_t v = static_cast<size_t>(e);
    if (!stream_valid_[v]) continue;
    stream_index_.Insert(e, stream_next_fwd_[v]);
    stream_valid_mask_ |= 1u << static_cast<uint32_t>(e);
    order[n++] = static_cast<int8_t>(e);
  }
  std::stable_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(n),
                   [this](int8_t a, int8_t b) {
                     return stream_ts_[static_cast<size_t>(a)] <
                            stream_ts_[static_cast<size_t>(b)];
                   });
  lru_prev_.fill(-1);
  lru_next_.fill(-1);
  lru_head_ = -1;
  lru_tail_ = -1;
  for (size_t k = 0; k < n; ++k) LruAppend(order[k]);
}

void MemorySystem::Reset() {
  l1i_.Clear();
  l1d_.Clear();
  l2_.Clear();
  l3_.Clear();
  dtlb_.Clear();
  stlb_.Clear();
  stream_next_fwd_.fill(0);
  stream_next_bwd_.fill(0);
  stream_ts_.fill(0);
  stream_run_.fill(0);
  stream_dir_.fill(0);
  stream_valid_.fill(0);
  stream_last_fill_dram_.fill(0);
  stream_clock_ = 0;
  matched_stream_ = -1;
  ResetFastPathState();
  fill_containment_violations_ = 0;
  counters_ = MemCounters{};
  mlp_hint_ = kMlpDefault;
  RecomputeMlpCosts();
}

void MemorySystem::KillStream(int index) {
  const size_t u = static_cast<size_t>(index);
  if (stream_valid_[u] && StreamEstablished(index) &&
      stream_last_fill_dram_[u] && config_.prefetchers.AnyStreamer()) {
    // The streamer had run ahead of the dying stream; those prefetched
    // lines are never consumed. This is the "unnecessary memory traffic"
    // of the paper's Fig. 21/24 discussion.
    const uint64_t waste = std::min<uint64_t>(
        stream_run_[u], static_cast<uint64_t>(kStreamerWasteLines));
    counters_.dram_prefetch_waste_bytes += waste * 64;
    ++counters_.streams_killed;
  }
  if (stream_valid_[u]) {
    stream_index_.Remove(index, stream_next_fwd_[u]);
    stream_valid_mask_ &= ~(1u << static_cast<uint32_t>(index));
    LruDetach(index);
  }
  stream_next_fwd_[u] = 0;
  stream_next_bwd_[u] = 0;
  stream_ts_[u] = 0;  // ts 0 == free slot; see ScanVictim
  stream_run_[u] = 0;
  stream_dir_[u] = 0;
  stream_valid_[u] = 0;
  stream_last_fill_dram_[u] = 0;
}

int MemorySystem::ScanStreams(uint64_t line) const {
  // First-match scan in table order.
  for (int i = 0; i < kStreamTableEntries; ++i) {
    if (stream_valid_[static_cast<size_t>(i)] && StreamMatches(i, line)) {
      return i;
    }
  }
  return -1;
}

int MemorySystem::IndexStreams(uint64_t line) const {
  constexpr uint64_t kTol = static_cast<uint64_t>(kStreamSkipTolerance);
  // Every StreamMatches condition places the entry's next_fwd inside
  // [line - tol, line + tol + 2]:
  //   re-access:  next_fwd == line + 1              (any direction)
  //   forward:    next_fwd in [line - tol, line]    and dir >= 0
  //   backward:   next_bwd in [line, line + tol]    and dir <= 0,
  //               i.e. next_fwd in [line + 2, line + 2 + tol]
  // so an entry the index does not name for that window cannot match.
  // The candidates are valid entries; testing them in ascending order
  // returns the first match in table order, exactly as ScanStreams does.
  // (Window keys that wrap around 0 cannot be tracked — line numbers are
  // < 2^58 — so clamping the low end is exact.)
  const uint64_t lo = line >= kTol ? line - kTol : 0;
  for (uint32_t c = stream_index_.Near(lo, line + kTol + 2); c != 0;
       c &= c - 1) {
    const int i = std::countr_zero(c);
    if (StreamMatches(i, line)) return i;
  }
  return -1;
}

int MemorySystem::ScanVictim() const {
  // Minimum-stamp scan with first-wins ties: free slots carry stamp 0
  // (the clock starts at 1), so this prefers the first invalid slot when
  // one exists and the true LRU stream otherwise.
  int victim = 0;
  uint64_t victim_ts = stream_ts_[0];
  for (int i = 1; i < kStreamTableEntries; ++i) {
    if (stream_ts_[static_cast<size_t>(i)] < victim_ts) {
      victim = i;
      victim_ts = stream_ts_[static_cast<size_t>(i)];
    }
  }
  return victim;
}

bool MemorySystem::UpdateStreams(uint64_t line, bool* is_reaccess) {
  *is_reaccess = false;
  constexpr uint64_t kTol = static_cast<uint64_t>(kStreamSkipTolerance);
  int matched;
  if (UOLAP_UNLIKELY(reference_paths_)) {
    matched = ScanStreams(line);
  } else {
    matched = IndexStreams(line);
    UOLAP_DCHECK(matched == ScanStreams(line));
  }

  if (matched >= 0) {
    const size_t u = static_cast<size_t>(matched);
    if (line + 1 == stream_next_fwd_[u]) {
      // Re-access of the stream's current line (e.g. several elements of
      // the same cache line arriving at line granularity, or a hot
      // aggregation line being hammered). Not an advance.
      *is_reaccess = true;
    } else {
      // Hardware streamers track both ascending and descending sequences;
      // the direction is locked in by the second matching access. Small
      // skips are tolerated; skipped lines were prefetched but never
      // consumed (wasted bandwidth — the paper's "most confusing"
      // mid-selectivity traffic).
      const bool fwd_match =
          stream_dir_[u] >= 0 && line - stream_next_fwd_[u] <= kTol;
      const uint64_t skipped =
          fwd_match ? line - stream_next_fwd_[u] : stream_next_bwd_[u] - line;
      if (skipped > 0 && StreamEstablished(matched) &&
          stream_last_fill_dram_[u] && config_.prefetchers.AnyStreamer()) {
        counters_.dram_prefetch_waste_bytes += skipped * 64;
      }
      stream_index_.Move(matched, stream_next_fwd_[u], line + 1);
      stream_dir_[u] = fwd_match ? 1 : -1;
      stream_next_fwd_[u] = line + 1;
      stream_next_bwd_[u] = line - 1;
      const bool was_established = StreamEstablished(matched);
      ++stream_run_[u];
      if (!was_established && StreamEstablished(matched)) {
        ++counters_.streams_established;
        newly_established_ = true;
      }
    }
    TouchStream(matched);
    matched_stream_ = matched;
    return StreamEstablished(matched);
  }

  // No stream matched: allocate a fresh detector entry, preferring an
  // invalid slot over evicting a live stream. The fast path reads the
  // first free slot off the valid-entry bitmask, or the LRU list head
  // when the table is full — identical to ScanVictim (free slots are
  // ts 0 / first-wins; valid stamps are distinct, so list order == stamp
  // order).
  int victim;
  if (UOLAP_UNLIKELY(reference_paths_)) {
    victim = ScanVictim();
  } else {
    victim = stream_valid_mask_ != ~0u
                 ? std::countr_zero(~stream_valid_mask_)
                 : static_cast<int>(lru_head_);
    UOLAP_DCHECK(victim == ScanVictim());
  }
  KillStream(victim);
  const size_t v = static_cast<size_t>(victim);
  stream_valid_[v] = 1;
  stream_next_fwd_[v] = line + 1;
  stream_next_bwd_[v] = line - 1;
  stream_dir_[v] = 0;
  stream_run_[v] = 1;
  stream_last_fill_dram_[v] = 0;
  stream_index_.Insert(victim, line + 1);
  stream_valid_mask_ |= 1u << static_cast<uint32_t>(victim);
  LruAppend(victim);
  matched_stream_ = victim;
  TouchStream(matched_stream_);
  return false;
}

int MemorySystem::WalkData(uint64_t line, bool is_store) {
  // One probe per level: a missed probe already names the way its fill
  // takes, and nothing touches a level between its probe and its fill, so
  // FillMiss is exactly the InsertAbsent it replaces. Fill order is
  // outside-in so that evictions cascade naturally; the dirty-writeback
  // chains insert keys probed by MarkDirty and go through InsertAbsent.
  const ProbeResult p1 = l1d_.Probe(line, is_store);
  if (p1.hit) return 1;
  int level = 2;
  const ProbeResult p2 = l2_.Probe(line, /*is_store=*/false);
  if (!p2.hit) {
    level = 3;
    const ProbeResult p3 = l3_.Probe(line, /*is_store=*/false);
    if (!p3.hit) {
      level = 4;
      if (l3_.FillMiss(p3, line, /*dirty=*/false).evicted_dirty) {
        counters_.dram_writeback_bytes += 64;
      }
    }
    const CacheAccessResult ev2 = l2_.FillMiss(p2, line, /*dirty=*/false);
    if (ev2.evicted_dirty) WriteBackToL3(ev2.evicted_key);
  }
  const CacheAccessResult ev1 = l1d_.FillMiss(p1, line, /*dirty=*/is_store);
  if (ev1.evicted_dirty && !l2_.MarkDirty(ev1.evicted_key)) {
    const CacheAccessResult ev2 =
        l2_.InsertAbsent(ev1.evicted_key, /*dirty=*/true);
    if (ev2.evicted_dirty) WriteBackToL3(ev2.evicted_key);
  }
  return level;
}

void MemorySystem::WriteBackToL3(uint64_t line) {
  if (l3_.MarkDirty(line)) return;
  if (l3_.InsertAbsent(line, /*dirty=*/true).evicted_dirty) {
    counters_.dram_writeback_bytes += 64;
  }
}

void MemorySystem::AccessDataLine(uint64_t line, bool is_store) {
  ++counters_.data_accesses;

  // --- address translation ---
  // The page memo caches the DTLB way of the immediately-previous access.
  // It is consulted only for the very next access, so a memo hit means
  // the previous translation was a same-page hit or fill — nothing can
  // have moved or evicted that way in between (same-page translations
  // never insert, different pages replace the memo first). Replaying the
  // hit via TouchHit is therefore bit-identical to the reference lookup,
  // LRU stamps included.
  const uint64_t page = line >> (page_shift_ - kLineShift);
  if (!reference_paths_ && page == memo_page_) {
    ++counters_.dtlb_hits;
    dtlb_.TouchHit(memo_dtlb_slot_, page);
    ++fast_stats_.memo_hits;
  } else {
    const ProbeResult pd = dtlb_.Probe(page, /*is_store=*/false);
    memo_page_ = page;
    if (pd.hit) {
      ++counters_.dtlb_hits;
      memo_dtlb_slot_ = pd.way;
    } else {
      const ProbeResult ps = stlb_.Probe(page, /*is_store=*/false);
      if (ps.hit) {
        ++counters_.stlb_hits;
        counters_.tlb_cycles += stlb_cost_;
      } else {
        ++counters_.page_walks;
        counters_.tlb_cycles += page_walk_cost_;
        stlb_.FillMiss(ps, page, /*dirty=*/false);
      }
      memo_dtlb_slot_ = dtlb_.FillMiss(pd, page, /*dirty=*/false).slot;
    }
  }

  // --- stream detection (prefetcher training happens on the demand
  //     stream, before the cache walk) ---
  newly_established_ = false;
  bool is_reaccess = false;
  const bool is_seq = UpdateStreams(line, &is_reaccess);

  // --- hierarchy walk ---
  const int level = WalkData(line, is_store);
  if (UOLAP_UNLIKELY(validate_fills_) && level > 1) ValidateFill(line, level);
  if (matched_stream_ >= 0) {
    stream_last_fill_dram_[static_cast<size_t>(matched_stream_)] =
        (level == 4) ? 1 : 0;
  }

  // --- access costing --- (all quotients precomputed; see
  //     RecomputeMlpCosts for why that is bit-exact)
  const PrefetcherConfig& pf = config_.prefetchers;
  switch (level) {
    case 1:
      ++counters_.l1d_hits;
      if (!is_seq && !is_reaccess && !is_store) {
        // Random-access L1 hits model dependent pointer chases (hash
        // bucket -> entry). VTune attributes these to core-bound
        // (Execution), not memory-bound.
        counters_.exec_chase_cycles += chase_cost_;
      }
      break;
    case 2:
      ++counters_.l2_hits;
      if (is_seq) {
        ++counters_.l2_hits_seq;
        const bool covered = pf.l1_streamer || pf.l1_next_line;
        counters_.seq_residual_cycles +=
            covered ? l2_seq_cov_cost_ : l2_seq_unc_cost_;
      } else {
        ++counters_.l2_hits_rand;
        counters_.rand_dcache_cycles += l2_rand_cost_;
      }
      break;
    case 3:
      ++counters_.l3_hits;
      if (is_seq) {
        ++counters_.l3_hits_seq;
        const bool covered = pf.l2_streamer || pf.l2_next_line || pf.l1_streamer;
        counters_.seq_residual_cycles +=
            covered ? l3_seq_cov_cost_ : l3_seq_unc_cost_;
      } else {
        ++counters_.l3_hits_rand;
        counters_.rand_dcache_cycles += l3_rand_cost_;
      }
      break;
    case 4:
      ++counters_.dram_lines;
      if (is_seq) {
        counters_.dram_demand_bytes_seq += 64;
        if (pf.l2_streamer) {
          // Fully service-model costed (bandwidth/timeliness fixed point
          // in the Top-Down model).
          ++counters_.dram_seq_l2_streamer;
        } else if (pf.l1_streamer) {
          ++counters_.dram_seq_l1_streamer;
          counters_.seq_residual_cycles += dram_l1s_cost_;
        } else if (pf.AnyNextLine()) {
          ++counters_.dram_seq_next_line;
          counters_.seq_residual_cycles += dram_nl_cost_;
        } else {
          ++counters_.dram_seq_uncovered;
          counters_.seq_residual_cycles += dram_unc_cost_;
        }
      } else {
        ++counters_.dram_rand;
        counters_.dram_demand_bytes_rand += 64;
        counters_.rand_dcache_cycles += dram_rand_cost_;
      }
      break;
    default:
      UOLAP_CHECK_MSG(false, "impossible service level");
  }

  if (newly_established_ && level == 4) {
    // A fresh stream pays (mostly unoverlapped) DRAM latency until the
    // streamer catches up.
    counters_.stream_startup_cycles += stream_startup_cost_;
  }
}

void MemorySystem::ValidateFill(uint64_t line, int from_level) {
  // After servicing a miss from `from_level`, WalkData must have
  // left the line resident in L1D and, when it came from L3/DRAM, in L2;
  // when it came from DRAM, in L3 as well (fill-inclusive policy —
  // evictions may break containment later, fills never may). The freshly
  // filled line carries the maximum LRU stamp in its set, so the cascading
  // writeback inserts of the same fill can only displace it from a
  // single-way set; skip those (degenerate test geometries).
  bool ok = l1d_.Contains(line);
  if (from_level >= 3 && l2_.ways() >= 2) ok = ok && l2_.Contains(line);
  if (from_level >= 4 && l3_.ways() >= 2) ok = ok && l3_.Contains(line);
  if (!ok) ++fill_containment_violations_;
}

int MemorySystem::WalkCode(uint64_t line) {
  // WalkData's one-probe-per-level walk; code lines are never dirty, and
  // the instruction side does not model writebacks of the data lines its
  // fills displace.
  const ProbeResult p1 = l1i_.Probe(line, /*is_store=*/false);
  if (p1.hit) return 1;
  int level = 2;
  const ProbeResult p2 = l2_.Probe(line, /*is_store=*/false);
  if (!p2.hit) {
    level = 3;
    const ProbeResult p3 = l3_.Probe(line, /*is_store=*/false);
    if (!p3.hit) {
      level = 4;
      l3_.FillMiss(p3, line, /*dirty=*/false);
    }
    l2_.FillMiss(p2, line, /*dirty=*/false);
  }
  l1i_.FillMiss(p1, line, /*dirty=*/false);
  return level;
}

void MemorySystem::FetchCode(uint64_t line) {
  ++counters_.code_fetches;
  switch (WalkCode(line)) {
    case 1:
      ++counters_.l1i_hits;
      break;
    case 2:
      ++counters_.l1i_l2_hits;
      break;
    case 3:
      ++counters_.l1i_l3_hits;
      break;
    case 4:
      ++counters_.l1i_dram;
      counters_.dram_demand_bytes_rand += 64;
      break;
  }
}

void MemorySystem::Finalize() {
  for (int i = 0; i < kStreamTableEntries; ++i) {
    if (stream_valid_[static_cast<size_t>(i)]) KillStream(i);
  }
}

}  // namespace uolap::core
