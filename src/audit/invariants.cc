#include "audit/invariants.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace uolap::audit {

namespace {

/// |a - b| <= tol * max(1, |a|, |b|): relative with an absolute floor so
/// identities over near-zero values do not demand impossible precision.
bool CloseRel(double a, double b, double tol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

/// Renders "name == expr" mismatch detail: "<name>: got A, expected B".
std::string Mismatch(std::string_view name, uint64_t got, uint64_t expected) {
  std::ostringstream os;
  os << name << ": got " << got << ", expected " << expected;
  return os.str();
}

std::string MismatchD(std::string_view name, double got, double expected) {
  std::ostringstream os;
  os.precision(17);
  os << name << ": got " << got << ", expected " << expected;
  return os.str();
}

/// One exact uint64 identity: records a violation under `checker` when
/// got != expected.
void ExpectEq(AuditReport* report, std::string_view checker,
              std::string_view subject, std::string_view name, uint64_t got,
              uint64_t expected) {
  ++report->checks;
  if (got != expected) {
    report->Fail(std::string(checker), std::string(subject),
                 Mismatch(name, got, expected));
  }
}

void ExpectLe(AuditReport* report, std::string_view checker,
              std::string_view subject, std::string_view name, uint64_t lhs,
              uint64_t rhs) {
  ++report->checks;
  if (lhs > rhs) {
    std::ostringstream os;
    os << name << ": " << lhs << " > " << rhs;
    report->Fail(std::string(checker), std::string(subject), os.str());
  }
}

}  // namespace

std::string AuditReport::ToString() const {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << v.checker << " [" << v.subject << "]: " << v.message << "\n";
  }
  return os.str();
}

namespace {

template <typename Tag>
void CheckCacheImpl(const core::BasicSetAssociativeCache<Tag>& cache,
                    std::string_view subject, AuditReport* report) {
  for (uint64_t set = 0; set < cache.num_sets(); ++set) {
    // Keys seen among this set's valid ways (duplicate-tag) and the ranks
    // they hold (lru-rank). Sets are at most 32 ways; a linear rescan of
    // the already-read states beats hashing.
    core::CacheWayState ways[32];
    const uint32_t nw = cache.ways();
    uint32_t valid = 0;
    for (uint32_t w = 0; w < nw; ++w) {
      ways[w] = cache.way_state(set, w);
      valid += ways[w].valid ? 1 : 0;
    }
    uint64_t ranks_seen = 0;
    for (uint32_t w = 0; w < nw; ++w) {
      const auto& s = ways[w];
      ++report->checks;
      if (!s.valid) {
        if (s.rank != -1 || s.dirty) {
          std::ostringstream os;
          os << "set " << set << " way " << w << ": invalid way has rank "
             << s.rank << " dirty=" << s.dirty;
          report->Fail("cache.lru-rank", std::string(subject), os.str());
        }
        continue;
      }
      const bool in_range =
          s.rank >= 0 && static_cast<uint32_t>(s.rank) < valid;
      if (!in_range || (ranks_seen >> s.rank & 1) != 0) {
        std::ostringstream os;
        os << "set " << set << " way " << w << ": valid way has rank "
           << s.rank << (in_range ? " (duplicate)" : "") << ", expected a "
           << "distinct rank in [0, " << valid << ")";
        report->Fail("cache.lru-rank", std::string(subject), os.str());
      }
      if (in_range) ranks_seen |= uint64_t{1} << s.rank;
      for (uint32_t v = 0; v < w; ++v) {
        if (ways[v].valid && ways[v].key == s.key) {
          std::ostringstream os;
          os << "set " << set << ": key " << s.key << " resident in ways "
             << v << " and " << w;
          report->Fail("cache.duplicate-tag", std::string(subject), os.str());
        }
      }
    }
  }
}

}  // namespace

void CheckCache(const core::SetAssociativeCache& cache,
                std::string_view subject, AuditReport* report) {
  CheckCacheImpl(cache, subject, report);
}

void CheckCache(const core::LlcCache& cache, std::string_view subject,
                AuditReport* report) {
  CheckCacheImpl(cache, subject, report);
}

void CheckStreamTable(const core::MemorySystem& mem, std::string_view subject,
                      AuditReport* report) {
  const uint64_t clock = mem.stream_clock();
  core::MemorySystem::StreamState states[core::MemorySystem::kNumStreamEntries];
  for (int i = 0; i < core::MemorySystem::kNumStreamEntries; ++i) {
    states[i] = mem.stream_state(i);
  }
  for (int i = 0; i < core::MemorySystem::kNumStreamEntries; ++i) {
    const auto& s = states[i];
    ++report->checks;
    if (s.valid) {
      if (s.run < 1 || (s.dir != -1 && s.dir != 0 && s.dir != 1) ||
          s.last_touch == 0 || s.last_touch > clock) {
        std::ostringstream os;
        os << "entry " << i << ": valid stream with run=" << s.run
           << " dir=" << static_cast<int>(s.dir)
           << " last_touch=" << s.last_touch << " clock=" << clock;
        report->Fail("stream.bounds", std::string(subject), os.str());
      }
    } else if (s.run != 0 || s.last_touch != 0) {
      std::ostringstream os;
      os << "entry " << i << ": invalid stream with run=" << s.run
         << " last_touch=" << s.last_touch;
      report->Fail("stream.dead-entry", std::string(subject), os.str());
    }
    for (int j = 0; j < i; ++j) {
      if (s.last_touch != 0 && states[j].last_touch == s.last_touch) {
        std::ostringstream os;
        os << "entries " << j << " and " << i << " share LRU stamp "
           << s.last_touch;
        report->Fail("stream.lru-permutation", std::string(subject),
                     os.str());
      }
    }
  }
}

void CheckPredictor(const core::BranchPredictor& predictor,
                    std::string_view subject, AuditReport* report) {
  ++report->checks;
  for (size_t i = 0; i < predictor.table_size(); ++i) {
    if (predictor.counter_at(i) > 3) {
      std::ostringstream os;
      os << "slot " << i << ": 2-bit counter holds "
         << static_cast<int>(predictor.counter_at(i));
      report->Fail("predictor.counter-range", std::string(subject), os.str());
    }
  }
  ++report->checks;
  if ((predictor.history() & ~predictor.history_mask()) != 0) {
    std::ostringstream os;
    os << "history 0x" << std::hex << predictor.history()
       << " exceeds mask 0x" << predictor.history_mask();
    report->Fail("predictor.history-range", std::string(subject), os.str());
  }
  ExpectLe(report, "predictor.counts", subject,
           "mispredicts <= recorded branches", predictor.mispredicts(),
           predictor.branches());
}

void CheckHierarchy(const core::MemorySystem& mem, std::string_view subject,
                    AuditReport* report) {
  const auto sub = [&subject](const char* part) {
    return std::string(subject) + "/" + part;
  };
  CheckCache(mem.l1d(), sub("l1d"), report);
  CheckCache(mem.l2(), sub("l2"), report);
  CheckCache(mem.l3(), sub("l3"), report);
  CheckCache(mem.dtlb(), sub("dtlb"), report);
  CheckCache(mem.stlb(), sub("stlb"), report);
  CheckStreamTable(mem, sub("streams"), report);
  ExpectEq(report, "hierarchy.fill-containment", subject,
           "fills leaving the line absent from a filled level",
           mem.fill_containment_violations(), 0);
}

void CheckCounterIdentities(const core::CoreCounters& c,
                            const core::MemorySystem* live,
                            std::string_view subject, AuditReport* report) {
  const core::MemCounters& m = c.mem;

  // Every line-granular data access is serviced by exactly one level.
  ExpectEq(report, "counters.level-sum", subject,
           "l1d_hits + l2_hits + l3_hits + dram_lines",
           m.l1d_hits + m.l2_hits + m.l3_hits + m.dram_lines,
           m.data_accesses);

  // Below-L1 services split exhaustively into sequential vs random.
  ExpectEq(report, "counters.seq-rand-split", subject,
           "l2_hits_seq + l2_hits_rand", m.l2_hits_seq + m.l2_hits_rand,
           m.l2_hits);
  ExpectEq(report, "counters.seq-rand-split", subject,
           "l3_hits_seq + l3_hits_rand", m.l3_hits_seq + m.l3_hits_rand,
           m.l3_hits);
  ExpectEq(report, "counters.seq-rand-split", subject,
           "dram seq/rand service classes",
           m.dram_seq_l2_streamer + m.dram_seq_l1_streamer +
               m.dram_seq_next_line + m.dram_seq_uncovered + m.dram_rand,
           m.dram_lines);

  // DRAM traffic is line-granular and matches the serviced-line counts.
  ExpectEq(report, "counters.dram-bytes", subject, "dram_demand_bytes_seq",
           m.dram_demand_bytes_seq,
           64 * (m.dram_seq_l2_streamer + m.dram_seq_l1_streamer +
                 m.dram_seq_next_line + m.dram_seq_uncovered));
  ExpectEq(report, "counters.dram-bytes", subject, "dram_demand_bytes_rand",
           m.dram_demand_bytes_rand, 64 * m.dram_rand);
  ExpectEq(report, "counters.dram-bytes", subject,
           "dram_prefetch_waste_bytes % 64", m.dram_prefetch_waste_bytes % 64,
           0);
  ExpectEq(report, "counters.dram-bytes", subject,
           "dram_writeback_bytes % 64", m.dram_writeback_bytes % 64, 0);

  // TLB events: only walked (non-filter-bulk) accesses translate, so the
  // counters alone give an upper bound; the live check below is exact.
  ExpectLe(report, "counters.tlb", subject,
           "dtlb_hits + stlb_hits + page_walks <= data_accesses",
           m.dtlb_hits + m.stlb_hits + m.page_walks, m.data_accesses);

  ExpectLe(report, "counters.branch", subject,
           "branch_mispredicts <= branch_events", c.branch_mispredicts,
           c.branch_events);
  ExpectLe(report, "counters.branch", subject,
           "branch_events <= retired branch instructions", c.branch_events,
           c.mix.branch);

  // Analytic I-fetch: the total and the four per-level parts are rounded
  // independently (llround each), so they may disagree by up to 2. Allow
  // |diff| <= 3.
  {
    ++report->checks;
    const uint64_t parts =
        m.l1i_hits + m.l1i_l2_hits + m.l1i_l3_hits + m.l1i_dram;
    const uint64_t hi = std::max(parts, m.code_fetches);
    const uint64_t lo = std::min(parts, m.code_fetches);
    if (hi - lo > 3) {
      report->Fail("counters.icache", std::string(subject),
                   Mismatch("l1i level counters vs code_fetches (tol 3)",
                            parts, m.code_fetches));
    }
  }

  // Every retired load/store makes at least one line-granular access
  // (straddles make more; nothing else makes data accesses).
  ExpectLe(report, "counters.element-vs-line", subject,
           "retired loads + stores <= data_accesses",
           c.mix.load + c.mix.store, m.data_accesses);

  ExpectLe(report, "counters.streams", subject,
           "streams_killed <= streams_established", m.streams_killed,
           m.streams_established);

  if (live == nullptr) return;

  // --- reconcile the counter ledger against the caches' own hit/miss
  //     statistics (exact: both start at zero with the core) ---
  const auto& l1d = live->l1d();
  const auto& l2 = live->l2();
  const auto& l3 = live->l3();
  const auto& dtlb = live->dtlb();
  const auto& stlb = live->stlb();

  // The filter's bulk same-line hits bypass the walk, so the cache ledger
  // lags l1d_hits by exactly the bulk count — which cancels out of
  // data_accesses - l1d_hits.
  ExpectEq(report, "counters.cache-reconcile", subject,
           "data_accesses - l1d_hits == live L1D misses",
           m.data_accesses - m.l1d_hits, l1d.misses());
  ExpectLe(report, "counters.cache-reconcile", subject,
           "live L1D hits <= l1d_hits", l1d.hits(), m.l1d_hits);
  ExpectEq(report, "counters.cache-reconcile", subject,
           "live L2 accesses == L1D misses", l2.hits() + l2.misses(),
           l1d.misses());
  ExpectEq(report, "counters.cache-reconcile", subject,
           "live L3 accesses == L2 misses", l3.hits() + l3.misses(),
           l2.misses());
  ExpectEq(report, "counters.cache-reconcile", subject,
           "l2_hits == live L2 hits", m.l2_hits, l2.hits());
  ExpectEq(report, "counters.cache-reconcile", subject,
           "l3_hits == live L3 hits", m.l3_hits, l3.hits());
  ExpectEq(report, "counters.cache-reconcile", subject,
           "dram_lines == live L3 misses", m.dram_lines, l3.misses());

  // Every walked data access translates exactly once.
  ExpectEq(report, "counters.tlb", subject,
           "live DTLB accesses == live L1D accesses",
           dtlb.hits() + dtlb.misses(), l1d.hits() + l1d.misses());
  ExpectEq(report, "counters.tlb", subject, "dtlb_hits == live DTLB hits",
           m.dtlb_hits, dtlb.hits());
  ExpectEq(report, "counters.tlb", subject,
           "live STLB accesses == live DTLB misses",
           stlb.hits() + stlb.misses(), dtlb.misses());
  ExpectEq(report, "counters.tlb", subject, "stlb_hits == live STLB hits",
           m.stlb_hits, stlb.hits());
  ExpectEq(report, "counters.tlb", subject, "page_walks == live STLB misses",
           m.page_walks, stlb.misses());
}

void CheckBreakdown(const core::ProfileResult& result, double freq_ghz,
                    std::string_view subject, AuditReport* report) {
  constexpr double kTol = 1e-9;
  const core::CycleBreakdown& b = result.cycles;
  const double comps[6] = {b.retiring, b.branch_misp, b.icache,
                           b.decoding,  b.dcache,      b.execution};
  static const char* const names[6] = {"retiring", "branch_misp", "icache",
                                       "decoding", "dcache",      "execution"};
  for (int i = 0; i < 6; ++i) {
    ++report->checks;
    if (!(comps[i] >= 0.0)) {  // catches NaN too
      report->Fail("topdown.nonnegative", std::string(subject),
                   MismatchD(names[i], comps[i], 0.0));
    }
  }
  ++report->checks;
  if (!CloseRel(b.Total(), result.total_cycles, kTol)) {
    report->Fail("topdown.total", std::string(subject),
                 MismatchD("sum of six components vs total_cycles", b.Total(),
                           result.total_cycles));
  }

  ++report->checks;
  if (result.instructions != result.counters.mix.TotalInstructions()) {
    report->Fail("topdown.derived", std::string(subject),
                 Mismatch("instructions vs counters.mix total",
                          result.instructions,
                          result.counters.mix.TotalInstructions()));
  }
  ++report->checks;
  if (!CloseRel(result.time_ms, result.total_cycles / (freq_ghz * 1e6),
                kTol)) {
    report->Fail("topdown.derived", std::string(subject),
                 MismatchD("time_ms vs total_cycles / (freq * 1e6)",
                           result.time_ms,
                           result.total_cycles / (freq_ghz * 1e6)));
  }
  ++report->checks;
  if (!CloseRel(result.dram_bytes,
                static_cast<double>(result.counters.mem.TotalDramBytes()),
                kTol)) {
    report->Fail(
        "topdown.derived", std::string(subject),
        MismatchD("dram_bytes vs counters.mem.TotalDramBytes()",
                  result.dram_bytes,
                  static_cast<double>(result.counters.mem.TotalDramBytes())));
  }
  ++report->checks;
  const double want_bw =
      result.total_cycles > 0
          ? result.dram_bytes * freq_ghz / result.total_cycles
          : 0.0;
  if (!CloseRel(result.bandwidth_gbps, want_bw, kTol)) {
    report->Fail("topdown.derived", std::string(subject),
                 MismatchD("bandwidth_gbps", result.bandwidth_gbps, want_bw));
  }
  ++report->checks;
  const double want_ipc =
      result.total_cycles > 0
          ? static_cast<double>(result.instructions) / result.total_cycles
          : 0.0;
  if (!CloseRel(result.ipc, want_ipc, kTol)) {
    report->Fail("topdown.derived", std::string(subject),
                 MismatchD("ipc", result.ipc, want_ipc));
  }
}

AuditReport AuditCore(const core::Core& core, std::string_view subject) {
  AuditReport report;
  const auto sub = [&subject](const char* part) {
    return std::string(subject) + "/" + part;
  };
  CheckHierarchy(core.memory(), sub("mem"), &report);
  CheckPredictor(core.predictor(), sub("predictor"), &report);
  const core::CoreCounters c = core.SnapshotCounters();
  CheckCounterIdentities(c, &core.memory(), sub("counters"), &report);
  // The core-level branch ledger and the predictor's own must agree.
  ExpectEq(&report, "counters.branch", sub("counters"),
           "branch_events == predictor branches", c.branch_events,
           core.predictor().branches());
  ExpectEq(&report, "counters.branch", sub("counters"),
           "branch_mispredicts == predictor mispredicts",
           c.branch_mispredicts, core.predictor().mispredicts());
  return report;
}

}  // namespace uolap::audit
