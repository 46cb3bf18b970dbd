#include "obs/attribution.h"

#include <algorithm>

namespace uolap::obs {

using core::CoreCounters;
using core::CycleBreakdown;
using core::MachineConfig;
using core::TopDownTerms;

std::vector<CycleBreakdown> AttributeCycles(
    const MachineConfig& config, const CoreCounters& total,
    const std::vector<CoreCounters>& parts, double bw_scale) {
  const core::TopDownModel model(config);
  const core::ProfileResult whole = model.Analyze(total, bw_scale);
  const TopDownTerms whole_t = model.Terms(total, bw_scale);

  std::vector<TopDownTerms> terms;
  terms.reserve(parts.size());
  double sum_instr = 0, sum_decode = 0, sum_rand = 0, sum_seq = 0;
  for (const CoreCounters& p : parts) {
    terms.push_back(model.Terms(p, bw_scale));
    sum_instr += terms.back().instructions;
    sum_decode += terms.back().decoding;
    sum_rand += terms.back().rand;
    sum_seq += terms.back().seq_bytes;
  }

  // Totals of the nonlinear components, exactly as Analyze computed them.
  const double total_decoding = whole.cycles.decoding;
  const double total_rand = whole_t.rand;  // the clamped component
  // dcache = linear + rand + seq residual; recover the seq residual.
  const double total_dcache_seq = std::max(
      0.0, whole.cycles.dcache - whole_t.dcache_linear - total_rand);

  // Proportional share of a nonlinear total; falls back to instruction
  // share when no part expresses demand (only possible when the total is
  // ~0 anyway, but keeps the decomposition exhaustive).
  auto share = [&](double comp_total, double demand, double demand_sum,
                   double instr) {
    if (comp_total <= 0.0) return 0.0;
    if (demand_sum > 0.0) return comp_total * (demand / demand_sum);
    return sum_instr > 0.0 ? comp_total * (instr / sum_instr) : 0.0;
  };

  std::vector<CycleBreakdown> out;
  out.reserve(parts.size());
  for (const TopDownTerms& t : terms) {
    CycleBreakdown b;
    b.retiring = t.retiring;
    b.branch_misp = t.branch_misp;
    b.icache = t.icache;
    b.execution = t.execution;
    b.decoding = share(total_decoding, t.decoding, sum_decode, t.instructions);
    b.dcache = t.dcache_linear +
               share(total_rand, t.rand, sum_rand, t.instructions) +
               share(total_dcache_seq, t.seq_bytes, sum_seq, t.instructions);
    out.push_back(b);
  }
  return out;
}

void AnalyzeTree(const MachineConfig& config, RegionTree* tree,
                 double bw_scale) {
  std::vector<CoreCounters> parts;
  parts.reserve(tree->nodes.size());
  for (const RegionNode& n : tree->nodes) parts.push_back(n.exclusive);

  const std::vector<CycleBreakdown> excl =
      AttributeCycles(config, tree->nodes.front().inclusive, parts, bw_scale);

  for (size_t i = 0; i < tree->nodes.size(); ++i) {
    tree->nodes[i].excl_cycles = excl[i];
    tree->nodes[i].incl_cycles = CycleBreakdown{};
  }
  // Children always have larger indices than their parent, so a reverse
  // walk accumulates each subtree before handing it to the parent.
  for (size_t i = tree->nodes.size(); i-- > 0;) {
    RegionNode& n = tree->nodes[i];
    n.incl_cycles += n.excl_cycles;
    if (n.parent >= 0) {
      tree->nodes[static_cast<size_t>(n.parent)].incl_cycles += n.incl_cycles;
    }
  }
}

}  // namespace uolap::obs
