#ifndef UOLAP_ENGINES_TECTORWISE_PRIMITIVES_H_
#define UOLAP_ENGINES_TECTORWISE_PRIMITIVES_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "core/calibration.h"
#include "core/core.h"
#include "core/counters.h"
#include "engine/hash_table.h"
#include "storage/column_view.h"

namespace uolap::tectorwise {

/// Tectorwise processes vectors of 1024 values at a time (the sweet spot
/// Kersten et al. report: intermediates stay cache-resident while
/// interpretation overhead amortizes).
inline constexpr size_t kVecSize = 1024;

/// Shared context of one primitive invocation.
struct VecCtx {
  core::Core* core;
  bool simd;  ///< AVX-512 flavour of every primitive (Skylake experiments)
};

/// Every array a primitive touches is passed as a storage::SimPtr: values
/// move through the host pointer, accesses are charged at the simulated
/// address.
using storage::SimPtr;

/// AVX-512 lane count for 64-bit elements.
inline constexpr uint64_t kSimdLanes = 8;

namespace detail {

/// Each primitive call pays a fixed interpretation cost: the operator
/// pulls its input descriptors, checks types, and dispatches the
/// pre-compiled kernel. ~20 instructions per vector of 1024.
inline void ChargeCallOverhead(VecCtx ctx) {
  core::InstrMix m;
  m.other = 12;
  m.alu = 6;
  m.branch = 2;
  ctx.core->Retire(m);
}

/// Per-element scalar kernel cost: `alu` ALU ops (+ the loop share).
/// The memory instructions are auto-counted by Core::Load/Store.
inline void ChargeScalarLoop(VecCtx ctx, size_t n, uint64_t alu,
                             uint64_t chain = 0) {
  core::InstrMix per;
  per.alu = alu + 1;  // kernel ops + loop control share (unrolled)
  per.chain_cycles = chain;
  ctx.core->RetireN(per, n);
  core::InstrMix br;
  br.branch = 1;
  ctx.core->RetireN(br, n / 4);
}

/// Per-8-element SIMD kernel cost: `simd_per_lane_group` vector
/// instructions per group of 8 lanes (includes the wide loads/stores that
/// replace the scalar memory instructions).
inline void ChargeSimdLoop(VecCtx ctx, size_t n, uint64_t simd_per_group,
                           uint64_t chain = 0) {
  core::InstrMix per;
  per.simd = simd_per_group;
  per.alu = 1;  // loop control
  per.branch = 0;
  per.chain_cycles = chain;
  ctx.core->RetireN(per, (n + kSimdLanes - 1) / kSimdLanes);
  core::InstrMix br;
  br.branch = 1;
  ctx.core->RetireN(br, n / (4 * kSimdLanes) + 1);
}

/// Memory access helpers: in SIMD mode the per-element accesses are issued
/// to the memory model through Core::LaneAccess but not counted as scalar
/// load/store instructions — the wide SIMD ops in ChargeSimdLoop carry the
/// instruction cost. A "wide" variant is used for sequential data.
template <typename T>
inline std::remove_const_t<T> LoadElem(VecCtx ctx, SimPtr<T> p) {
  if (ctx.simd) {
    ctx.core->LaneAccess(p.addr, sizeof(T), /*is_store=*/false);
  } else {
    ctx.core->Load(p.addr, sizeof(T));
  }
  return *p.host;
}

/// Batched sequential-run charges: a full-vector sequential load/store is
/// driven through Core::LoadSeq/StoreSeq in scalar mode (one simulated
/// line walk per cache line; counter-equivalent to the per-element loop),
/// after which the kernel reads/writes the array raw. SIMD mode keeps its
/// per-element Core::LaneAccess issue (the wide ops in ChargeSimdLoop
/// carry the instruction cost and the access-per-element stream shape is
/// part of the gather/scatter model).
template <typename T>
inline void TouchVecLoad(VecCtx ctx, SimPtr<T> p, size_t n) {
  if (n == 0) return;
  if (ctx.simd) {
    for (size_t i = 0; i < n; ++i) {
      ctx.core->LaneAccess(p.At(i), sizeof(T), /*is_store=*/false);
    }
  } else {
    ctx.core->LoadSeq(p.addr, sizeof(T), n);
  }
}

template <typename T>
inline void TouchVecStore(VecCtx ctx, SimPtr<T> p, size_t n) {
  if (n == 0) return;
  if (ctx.simd) {
    for (size_t i = 0; i < n; ++i) {
      ctx.core->LaneAccess(p.At(i), sizeof(T), /*is_store=*/true);
    }
  } else {
    ctx.core->StoreSeq(p.addr, sizeof(T), n);
  }
}

/// Store into a compacted output stream (selection vectors, match lists):
/// the write position only ever advances, so a caller-held SeqCursor
/// batches the stream line-by-line in scalar mode regardless of what other
/// accesses interleave.
template <typename T>
inline void StoreCompact(VecCtx ctx, core::SeqCursor& cur, SimPtr<T> p, T v) {
  if (ctx.simd) {
    ctx.core->LaneAccess(p.addr, sizeof(T), /*is_store=*/true);
  } else {
    ctx.core->StoreRange(cur, p.addr, sizeof(T), 1);
  }
  *p.host = v;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Map primitives (full-vector)
// ---------------------------------------------------------------------------

/// out[i] = a[i] + b[i].
template <typename TA, typename TB>
void MapAdd(VecCtx ctx, SimPtr<int64_t> out, SimPtr<TA> a, SimPtr<TB> b,
            size_t n) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, a, n);
  detail::TouchVecLoad(ctx, b, n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int64_t>(a[i]) + static_cast<int64_t>(b[i]);
  }
  detail::TouchVecStore(ctx, out, n);
  if (ctx.simd) {
    detail::ChargeSimdLoop(ctx, n, /*simd_per_group=*/4);  // 2 ld, add, st
  } else {
    detail::ChargeScalarLoop(ctx, n, /*alu=*/1);
  }
}

/// sum over a full vector.
template <typename T>
int64_t SumColumn(VecCtx ctx, SimPtr<T> a, size_t n) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, a, n);
  int64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<int64_t>(a[i]);
  }
  if (ctx.simd) {
    // Wide load + vector accumulate; the chain is per vector accumulator.
    detail::ChargeSimdLoop(ctx, n, /*simd_per_group=*/2, /*chain=*/1);
  } else {
    detail::ChargeScalarLoop(ctx, n, /*alu=*/1, /*chain=*/1);
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Selection primitives: produce selection vectors of qualifying indices
// ---------------------------------------------------------------------------

/// Branched first-pass selection: sel_out <- { i : col[i] < cut }.
/// One data-dependent branch per element — the predictor faces the
/// *individual* predicate selectivity (the paper's Section 4 contrast with
/// the compiled engine).
template <typename T>
size_t SelLess(VecCtx ctx, uint32_t branch_site, SimPtr<T> col,
               std::remove_const_t<T> cut, SimPtr<uint32_t> sel_out,
               size_t n) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, col, n);
  core::SeqCursor out_cur;
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool pass = col[i] < cut;
    ctx.core->Branch(branch_site, pass);
    if (pass) {
      detail::StoreCompact(ctx, out_cur, sel_out + m,
                           static_cast<uint32_t>(i));
      ++m;
    }
  }
  detail::ChargeScalarLoop(ctx, n, /*alu=*/1);
  return m;
}

/// Branched subsequent-pass selection over an input selection vector.
template <typename T>
size_t SelLessOnSel(VecCtx ctx, uint32_t branch_site, SimPtr<T> col,
                    std::remove_const_t<T> cut, SimPtr<const uint32_t> sel_in,
                    size_t m_in, SimPtr<uint32_t> sel_out) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, sel_in, m_in);
  core::SeqCursor out_cur;
  size_t m = 0;
  for (size_t k = 0; k < m_in; ++k) {
    const uint32_t i = sel_in[k];
    const bool pass = detail::LoadElem(ctx, col + i) < cut;
    ctx.core->Branch(branch_site, pass);
    if (pass) {
      detail::StoreCompact(ctx, out_cur, sel_out + m, i);
      ++m;
    }
  }
  detail::ChargeScalarLoop(ctx, m_in, /*alu=*/1);
  return m;
}

/// Predicated (branch-free) variants: sel_out[m] = i; m += pass. More
/// stores, no branches (Section 7).
template <typename T>
size_t SelLessPredicated(VecCtx ctx, SimPtr<T> col, std::remove_const_t<T> cut,
                         SimPtr<uint32_t> sel_out, size_t n) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, col, n);
  core::SeqCursor out_cur;
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool pass = col[i] < cut;
    detail::StoreCompact(ctx, out_cur, sel_out + m, static_cast<uint32_t>(i));
    m += static_cast<size_t>(pass);
  }
  if (ctx.simd) {
    // Compare + compress-store per 8 lanes.
    detail::ChargeSimdLoop(ctx, n, /*simd_per_group=*/3);
  } else {
    detail::ChargeScalarLoop(ctx, n, /*alu=*/2);
  }
  return m;
}

template <typename T>
size_t SelLessPredicatedOnSel(VecCtx ctx, SimPtr<T> col,
                              std::remove_const_t<T> cut,
                              SimPtr<const uint32_t> sel_in, size_t m_in,
                              SimPtr<uint32_t> sel_out) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, sel_in, m_in);
  core::SeqCursor out_cur;
  size_t m = 0;
  for (size_t k = 0; k < m_in; ++k) {
    const uint32_t i = sel_in[k];
    const bool pass = detail::LoadElem(ctx, col + i) < cut;
    detail::StoreCompact(ctx, out_cur, sel_out + m, i);
    m += static_cast<size_t>(pass);
  }
  if (ctx.simd) {
    detail::ChargeSimdLoop(ctx, m_in, /*simd_per_group=*/4);  // gathers
  } else {
    detail::ChargeScalarLoop(ctx, m_in, /*alu=*/2);
  }
  return m;
}

/// Generic comparator variants used by Q6 (>=, <, between): branched.
template <typename T, typename Pred>
size_t SelPred(VecCtx ctx, uint32_t branch_site, SimPtr<T> col,
               SimPtr<const uint32_t> sel_in, size_t m_in,
               SimPtr<uint32_t> sel_out, Pred pred,
               uint64_t alu_per_elem = 1) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, sel_in, m_in);
  core::SeqCursor out_cur;
  size_t m = 0;
  for (size_t k = 0; k < m_in; ++k) {
    const uint32_t i = sel_in[k];
    const bool pass = pred(detail::LoadElem(ctx, col + i));
    ctx.core->Branch(branch_site, pass);
    if (pass) {
      detail::StoreCompact(ctx, out_cur, sel_out + m, i);
      ++m;
    }
  }
  detail::ChargeScalarLoop(ctx, m_in, alu_per_elem);
  return m;
}

/// Generic comparator over the full input (first predicate in a conjunct).
template <typename T, typename Pred>
size_t SelPredFull(VecCtx ctx, uint32_t branch_site, SimPtr<T> col, size_t n,
                   SimPtr<uint32_t> sel_out, Pred pred,
                   uint64_t alu_per_elem = 1) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, col, n);
  core::SeqCursor out_cur;
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool pass = pred(col[i]);
    ctx.core->Branch(branch_site, pass);
    if (pass) {
      detail::StoreCompact(ctx, out_cur, sel_out + m,
                           static_cast<uint32_t>(i));
      ++m;
    }
  }
  detail::ChargeScalarLoop(ctx, n, alu_per_elem);
  return m;
}

/// Predicated generic variants.
template <typename T, typename Pred>
size_t SelPredPredicated(VecCtx ctx, SimPtr<T> col,
                         SimPtr<const uint32_t> sel_in, size_t m_in,
                         SimPtr<uint32_t> sel_out, Pred pred,
                         uint64_t alu_per_elem = 2) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, sel_in, m_in);
  core::SeqCursor out_cur;
  size_t m = 0;
  for (size_t k = 0; k < m_in; ++k) {
    const uint32_t i = sel_in[k];
    const bool pass = pred(detail::LoadElem(ctx, col + i));
    detail::StoreCompact(ctx, out_cur, sel_out + m, i);
    m += static_cast<size_t>(pass);
  }
  if (ctx.simd) {
    detail::ChargeSimdLoop(ctx, m_in, /*simd_per_group=*/4);
  } else {
    detail::ChargeScalarLoop(ctx, m_in, alu_per_elem);
  }
  return m;
}

template <typename T, typename Pred>
size_t SelPredPredicatedFull(VecCtx ctx, SimPtr<T> col, size_t n,
                             SimPtr<uint32_t> sel_out, Pred pred,
                             uint64_t alu_per_elem = 2) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, col, n);
  core::SeqCursor out_cur;
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool pass = pred(col[i]);
    detail::StoreCompact(ctx, out_cur, sel_out + m, static_cast<uint32_t>(i));
    m += static_cast<size_t>(pass);
  }
  if (ctx.simd) {
    detail::ChargeSimdLoop(ctx, n, /*simd_per_group=*/3);
  } else {
    detail::ChargeScalarLoop(ctx, n, alu_per_elem);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Gather / selected-projection primitives
// ---------------------------------------------------------------------------

/// out[k] = a[sel[k]] + b[sel[k]] — the first projection step under a
/// selection vector. Sparse selection vectors turn these into gathers
/// (stream-breaking at low selectivities; emergent in the memory model).
template <typename TA, typename TB>
void MapAddSel(VecCtx ctx, SimPtr<int64_t> out, SimPtr<TA> a, SimPtr<TB> b,
               SimPtr<const uint32_t> sel, size_t m) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, sel, m);
  core::SeqCursor out_cur;
  for (size_t k = 0; k < m; ++k) {
    const uint32_t i = sel[k];
    const int64_t v = static_cast<int64_t>(detail::LoadElem(ctx, a + i)) +
                      static_cast<int64_t>(detail::LoadElem(ctx, b + i));
    detail::StoreCompact(ctx, out_cur, out + k, v);
  }
  if (ctx.simd) {
    detail::ChargeSimdLoop(ctx, m, /*simd_per_group=*/5);  // 2 gathers
  } else {
    detail::ChargeScalarLoop(ctx, m, /*alu=*/1);
  }
}

/// out[k] = dense[k] + col[sel[k]] — subsequent projection steps.
template <typename T>
void MapAddDenseGather(VecCtx ctx, SimPtr<int64_t> out,
                       SimPtr<const int64_t> dense, SimPtr<T> col,
                       SimPtr<const uint32_t> sel, size_t m) {
  detail::ChargeCallOverhead(ctx);
  detail::TouchVecLoad(ctx, sel, m);
  detail::TouchVecLoad(ctx, dense, m);
  core::SeqCursor out_cur;
  for (size_t k = 0; k < m; ++k) {
    const uint32_t i = sel[k];
    const int64_t v =
        dense[k] + static_cast<int64_t>(detail::LoadElem(ctx, col + i));
    detail::StoreCompact(ctx, out_cur, out + k, v);
  }
  if (ctx.simd) {
    detail::ChargeSimdLoop(ctx, m, /*simd_per_group=*/4);
  } else {
    detail::ChargeScalarLoop(ctx, m, /*alu=*/1);
  }
}

// ---------------------------------------------------------------------------
// Hash-join probe primitive
// ---------------------------------------------------------------------------

/// Vectorized probe of `ht` with keys[sel_in[k]] (or keys[k0+k] when
/// sel_in == nullptr, covering full-vector probes at base offset k0).
/// Writes matching positions to sel_out and payloads to payload_out.
/// In SIMD mode the bucket/entry accesses become gathers: same memory
/// traffic, fewer instructions, much higher MLP (the Section 8.2 story).
///
/// Deliberately NOT layered on JoinHashTable::ProbeFirst: the
/// vectorized walk charges its own branch sites (the has-entry branch at
/// `branch_site + min(step, 3)` and no per-step match branch), which
/// differ from ProbeFirst's — rewriting on top of it would shift
/// predictor state and drift counters. The per-call SetMlpHint below is
/// free when the hint is unchanged (Core::SetMlpHint no-ops).
template <typename KeyT>
size_t HtProbeSel(VecCtx ctx, uint32_t branch_site,
                  const engine::JoinHashTable& ht, SimPtr<KeyT> keys,
                  size_t k0, SimPtr<const uint32_t> sel_in, size_t m_in,
                  SimPtr<uint32_t> sel_out, SimPtr<int64_t> payload_out) {
  detail::ChargeCallOverhead(ctx);
  ctx.core->SetMlpHint(ctx.simd ? core::kMlpSimdGather
                                : core::kMlpVectorProbe);
  const auto& heads = ht.heads();
  const auto& entries = ht.entries();
  // Sequential inputs batch; gathered key reads stay per element.
  if (sel_in.host != nullptr) {
    detail::TouchVecLoad(ctx, sel_in, m_in);
  } else {
    detail::TouchVecLoad(ctx, keys + k0, m_in);
  }
  core::SeqCursor sel_cur, pay_cur;
  size_t m = 0;
  for (size_t k = 0; k < m_in; ++k) {
    const uint32_t i = sel_in.host != nullptr
                           ? sel_in[k]
                           : static_cast<uint32_t>(k0 + k);
    const int64_t key =
        sel_in.host != nullptr
            ? static_cast<int64_t>(detail::LoadElem(ctx, keys + i))
            : static_cast<int64_t>(keys[i]);
    const uint64_t b = ht.BucketOf(key);
    if (ctx.simd) {
      ctx.core->LaneAccess(heads.At(b), 4, /*is_store=*/false);
    } else {
      ctx.core->Load(heads.At(b), 4);
    }
    int32_t e = heads[b];
    bool matched = false;
    int64_t payload = 0;
    uint32_t step = 0;
    while (true) {
      const bool has = e >= 0;
      ctx.core->Branch(branch_site + std::min(step, 3u), has);
      ++step;
      if (!has) break;
      const auto& entry = entries[static_cast<size_t>(e)];
      const uint64_t entry_addr = entries.At(static_cast<size_t>(e));
      if (ctx.simd) {
        ctx.core->LaneAccess(entry_addr, 16, /*is_store=*/false);
      } else {
        ctx.core->Load(entry_addr, 16);
      }
      // Build keys are unique (FK joins): stop at the first match. The
      // match branch is well-predicted except on collisions.
      const bool is_match = entry.key == key;
      ctx.core->Branch(branch_site + 8 + std::min(step, 3u), is_match);
      if (is_match) {
        matched = true;
        payload = entry.payload;
        break;
      }
      e = entry.next;
    }
    if (matched) {
      detail::StoreCompact(ctx, sel_cur, sel_out + m, i);
      if (payload_out.host != nullptr) {
        detail::StoreCompact(ctx, pay_cur, payload_out + m, payload);
      }
      ++m;
    }
  }
  // Hash + compare + bookkeeping per probe.
  if (ctx.simd) {
    core::InstrMix per_group;
    per_group.simd = 8;  // hash lanes, gather head, gather entry, compare
    per_group.alu = 2;
    ctx.core->RetireN(per_group, (m_in + kSimdLanes - 1) / kSimdLanes);
  } else {
    core::InstrMix per;
    per.mul = 3;
    per.alu = 8;
    ctx.core->RetireN(per, m_in);
  }
  ctx.core->SetMlpHint(core::kMlpDefault);
  return m;
}

}  // namespace uolap::tectorwise

#endif  // UOLAP_ENGINES_TECTORWISE_PRIMITIVES_H_
