// Cross-commit pin of the simulated counters. Every engine key runs every
// query class at SF 0.01 on one fresh Broadwell core, and the full counter
// set must equal tests/golden/engine_counters.json byte for byte: every
// integer counter exactly, and every accumulated double (the per-phase
// execution stall and the memory model's cycle accumulators) as its IEEE
// bit pattern, so a reordered accumulation shows up too.
//
// Host-side changes (accelerators, prefetch hints, layout) must leave this
// file untouched. After an intentional model change, the test writes what
// it measured to engine_counters_actual.json in the working directory;
// review the diff and copy it over the golden.

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.h"
#include "engine/engine.h"
#include "engine/query_spec.h"
#include "engine/registry.h"
#include "harness/engines.h"
#include "obs/json_writer.h"
#include "tpch/dbgen.h"

#ifndef UOLAP_GOLDEN_DIR
#error "UOLAP_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace uolap {
namespace {

using core::CoreCounters;
using engine::QuerySpec;

/// The keys harness::RegisterBuiltinEngines registers, in sorted order.
constexpr const char* kEngineKeys[] = {"colstore", "rowstore", "tectorwise",
                                       "tectorwise+simd", "typer"};

std::string Bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64,
                std::bit_cast<uint64_t>(v));
  return buf;
}

void WriteCounters(obs::JsonWriter* w, const CoreCounters& c) {
  const core::InstrMix& x = c.mix;
  const core::MemCounters& m = c.mem;
  w->BeginObject();
  w->KV("alu", x.alu);
  w->KV("mul", x.mul);
  w->KV("div", x.div);
  w->KV("load", x.load);
  w->KV("store", x.store);
  w->KV("branch", x.branch);
  w->KV("simd", x.simd);
  w->KV("complex", x.complex);
  w->KV("other", x.other);
  w->KV("chain_cycles", x.chain_cycles);
  w->KV("branch_events", c.branch_events);
  w->KV("branch_mispredicts", c.branch_mispredicts);
  w->KV("exec_stall_cycles_bits", Bits(c.exec_stall_cycles));
  w->KV("data_accesses", m.data_accesses);
  w->KV("l1d_hits", m.l1d_hits);
  w->KV("l2_hits", m.l2_hits);
  w->KV("l3_hits", m.l3_hits);
  w->KV("dram_lines", m.dram_lines);
  w->KV("l2_hits_seq", m.l2_hits_seq);
  w->KV("l2_hits_rand", m.l2_hits_rand);
  w->KV("l3_hits_seq", m.l3_hits_seq);
  w->KV("l3_hits_rand", m.l3_hits_rand);
  w->KV("dram_seq_l2_streamer", m.dram_seq_l2_streamer);
  w->KV("dram_seq_l1_streamer", m.dram_seq_l1_streamer);
  w->KV("dram_seq_next_line", m.dram_seq_next_line);
  w->KV("dram_seq_uncovered", m.dram_seq_uncovered);
  w->KV("dram_rand", m.dram_rand);
  w->KV("rand_dcache_cycles_bits", Bits(m.rand_dcache_cycles));
  w->KV("exec_chase_cycles_bits", Bits(m.exec_chase_cycles));
  w->KV("seq_residual_cycles_bits", Bits(m.seq_residual_cycles));
  w->KV("stream_startup_cycles_bits", Bits(m.stream_startup_cycles));
  w->KV("dram_demand_bytes_seq", m.dram_demand_bytes_seq);
  w->KV("dram_demand_bytes_rand", m.dram_demand_bytes_rand);
  w->KV("dram_prefetch_waste_bytes", m.dram_prefetch_waste_bytes);
  w->KV("dram_writeback_bytes", m.dram_writeback_bytes);
  w->KV("dtlb_hits", m.dtlb_hits);
  w->KV("stlb_hits", m.stlb_hits);
  w->KV("page_walks", m.page_walks);
  w->KV("tlb_cycles_bits", Bits(m.tlb_cycles));
  w->KV("code_fetches", m.code_fetches);
  w->KV("l1i_hits", m.l1i_hits);
  w->KV("l1i_l2_hits", m.l1i_l2_hits);
  w->KV("l1i_l3_hits", m.l1i_l3_hits);
  w->KV("l1i_dram", m.l1i_dram);
  w->KV("streams_established", m.streams_established);
  w->KV("streams_killed", m.streams_killed);
  w->EndObject();
}

/// Every query class, the three join sizes and both projection degrees
/// the serving mix uses included.
std::vector<QuerySpec> AllSpecs(const tpch::Database& db) {
  return {
      QuerySpec::Projection(2),
      QuerySpec::Projection(4),
      QuerySpec::Selection(engine::MakeSelectionParams(db, 0.1)),
      QuerySpec::Join(engine::JoinSize::kSmall),
      QuerySpec::Join(engine::JoinSize::kMedium),
      QuerySpec::Join(engine::JoinSize::kLarge),
      QuerySpec::GroupBy(1024),
      QuerySpec::Q1(),
      QuerySpec::Q6(engine::MakeQ6Params()),
      QuerySpec::Q9(),
      QuerySpec::Q18(),
  };
}

std::string MeasureAll() {
  tpch::DbGen gen(42);
  const tpch::Database db = std::move(gen.Generate(0.01)).value();
  engine::EngineRegistry registry(db);
  harness::RegisterBuiltinEngines(registry);

  obs::JsonWriter w(1);
  w.BeginObject();
  w.KV("schema", "uolap-engine-counters v1");
  w.KV("sf", 0.01);
  w.KV("dbgen_seed", 42);
  w.KV("machine", "broadwell");
  w.Key("runs");
  w.BeginArray();
  for (const std::string key : kEngineKeys) {
    const engine::OlapEngine& eng = *registry.Get(key).value();
    for (const QuerySpec& spec : AllSpecs(db)) {
      if (!eng.Supports(spec.id)) continue;
      core::Machine machine(core::MachineConfig::Broadwell(), 1);
      engine::Workers workers(machine.core(0));
      const StatusOr<engine::QueryResult> result = eng.Run(spec, workers);
      EXPECT_TRUE(result.ok()) << key << " " << spec.Label();
      machine.FinalizeAll();
      w.BeginObject();
      w.KV("engine", key);
      w.KV("query", spec.Label());
      w.Key("counters");
      WriteCounters(&w, machine.core(0).counters());
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString() + "\n";
}

TEST(EngineCountersGoldenTest, EveryEngineQueryPairMatchesTheGolden) {
  const std::string actual = MeasureAll();
  const std::string path = std::string(UOLAP_GOLDEN_DIR) +
                           "/engine_counters.json";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;
  std::ofstream("engine_counters_actual.json", std::ios::binary) << actual;
  ADD_FAILURE() << "counters differ from " << path
                << " (written to engine_counters_actual.json); actual:\n"
                << actual;
}

}  // namespace
}  // namespace uolap
