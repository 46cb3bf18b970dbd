#ifndef UOLAP_ENGINES_ROWSTORE_ROWSTORE_ENGINE_H_
#define UOLAP_ENGINES_ROWSTORE_ROWSTORE_ENGINE_H_

#include <memory>
#include <string>

#include "engine/engine.h"
#include "storage/row_store.h"

namespace uolap::rowstore {

/// Analogue of "DBMS R": a traditional, commercial disk-based row store
/// running tuple-at-a-time Volcano iterators over slotted pages with an
/// interpreted expression evaluator.
///
/// The paper can only characterize the closed commercial system in
/// aggregate; this engine reproduces the *mechanisms* behind that
/// behaviour (see DESIGN.md):
///  - NSM pages: every scan pays header/slot/tuple indirections and drags
///    whole tuples through the hierarchy for a few useful bytes;
///  - interpretation: virtual iterator calls + expression-tree walks, two
///    to three orders of magnitude more instructions per tuple than the
///    compiled engine, at a Retiring ratio around 50%;
///  - per-tuple system overhead (buffer-pool fix/unfix, latching,
///    visibility checks) modelled as a calibrated instruction bundle plus
///    pointer-chasing loads into a large execution-state arena (this is
///    what produces the Dcache share of DBMS R's stalls, Fig. 2);
///  - a large-but-loopy code footprint (~24 KB hot path): big enough to be
///    "large instruction footprint", small enough that L1I misses stay
///    rare — the paper's headline contrast with OLTP systems.
class RowstoreEngine : public engine::OlapEngine {
 public:
  explicit RowstoreEngine(const tpch::Database& db);

  std::string name() const override { return "DBMS R"; }

  tpch::Money Projection(engine::Workers& w, int degree) const override;
  tpch::Money Selection(engine::Workers& w,
                        const engine::SelectionParams& params) const override;
  tpch::Money Join(engine::Workers& w, engine::JoinSize size) const override;
  int64_t GroupBy(engine::Workers& w, int64_t num_groups) const override;
  engine::Q1Result Q1(engine::Workers& w) const override;
  tpch::Money Q6(engine::Workers& w,
                 const engine::Q6Params& params) const override;

  /// Lineitem physical field indices (public for tests).
  struct LineitemFields {
    int orderkey, partkey, suppkey, quantity, extendedprice, discount, tax,
        shipdate, commitdate, receiptdate, returnflag, linestatus;
  };
  const LineitemFields& lineitem_fields() const { return lf_; }
  const storage::RowTableStorage& lineitem_rows() const { return *lineitem_; }

 private:
  friend class VolcanoPlans;

  std::unique_ptr<storage::RowTableStorage> lineitem_;
  std::unique_ptr<storage::RowTableStorage> supplier_;
  std::unique_ptr<storage::RowTableStorage> partsupp_;
  LineitemFields lf_;
  struct SupplierFields {
    int suppkey, nationkey, acctbal;
  } sf_;
  struct PartsuppFields {
    int partkey, suppkey, availqty, supplycost;
  } pf_;

  /// Key of the execution-state arena's placement: plan state, expression
  /// contexts, buffer-pool control blocks... The scan touches
  /// `kStateLoadsPerTuple` scattered words of it per tuple (see .cc for the
  /// calibration note). No value is ever read, so the arena is only an
  /// address range of each core's placement, with no host bytes behind it.
  char state_arena_key_ = 0;
};

}  // namespace uolap::rowstore

#endif  // UOLAP_ENGINES_ROWSTORE_ROWSTORE_ENGINE_H_
