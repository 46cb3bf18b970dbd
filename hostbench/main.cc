// Host-cost benchmark program of the uolap simulator.
//
// Runs one workload (scan, probe or serve; see NOTES.md) single-threaded
// through the public entry points of the layers — tpch::DbGen::Generate,
// engine::EngineRegistry::Get, harness::ProfileSingleObs around
// OlapEngine::Run, server::Server::TryRun and obs::ProfileToJson — and
// writes the raw measurements as one JSON document: setup and pass host
// times, spans around the layer calls (when tracing), the exact simulated
// work counts, answer digests, correctness-check failures and the isolated
// per-event costs of Core's public calls. run.py builds this binary, runs
// it and reduces the document to the benchmark's metrics.
//
//   uolap_hostbench --workload=scan --seed=42 --seconds=20 --trace=1
//                   --out=raw.json
//
// With --trace=0 every pass is timed with tracing off. With --trace=1 the
// first half of --seconds runs untraced passes and the second half traced
// ones (their ratio is the tracing overhead), followed by the
// microbenchmarks.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "audit/validation.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/core.h"
#include "engine/query_spec.h"
#include "engine/registry.h"
#include "harness/engines.h"
#include "harness/profile.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/profile_export.h"
#include "server/serving.h"
#include "tpch/dbgen.h"

namespace uolap {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- spans -----------------------------------------------------------------

/// One timed call into a layer. Spans nest (parent is the enclosing open
/// span); the spans of one setup repetition or one pass share `group`.
struct Span {
  std::string name;   ///< layer call, e.g. "engine.run"
  std::string label;  ///< what it ran on, e.g. "typer/q6" (may be empty)
  int64_t group = 0;  ///< pass index >= 0; setup repetition r is -(r + 1)
  int parent = -1;    ///< index of the enclosing span, -1 for a root
  double start_s = 0;
  double end_s = 0;
};

/// In-memory span recorder. While off, Begin/End cost one branch each and
/// record nothing; spans are written out only when the benchmark ends.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  void set_on(bool on) { on_ = on; }
  bool on() const { return on_; }

  int Begin(std::string_view name, const std::string& label, int64_t group) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.label = label;
    s.group = group;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_s = Seconds(t0_, Clock::now());
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_s = Seconds(t0_, Clock::now());
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, const std::string& label,
             int64_t group)
      : tracer_(tracer), id_(tracer.Begin(name, label, group)) {}
  ~ScopedSpan() { tracer_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Counts a core's batched accounting points (one per Retire and per
/// sequential-range access) and forwards every hook to the observer it
/// wraps, so the region profiler sees exactly what it would alone.
/// Attached only in traced passes; observers never touch simulated state.
class ProgressCounter final : public core::CoreObserver {
 public:
  explicit ProgressCounter(core::CoreObserver* next) : next_(next) {}

  void OnRegionPush(std::string_view name) override {
    if (next_ != nullptr) next_->OnRegionPush(name);
  }
  void OnRegionPop() override {
    if (next_ != nullptr) next_->OnRegionPop();
  }
  void OnProgress() override {
    ++events_;
    if (next_ != nullptr) next_->OnProgress();
  }

  uint64_t events() const { return events_; }

 private:
  core::CoreObserver* next_;
  uint64_t events_ = 0;
};

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  double sf = 0;
  /// Engines constructed during set-up (registry keys).
  std::vector<std::string> engines;
  bool serve = false;
};

bool LookupWorkload(const std::string& name, Workload* out) {
  if (name == "scan") {
    *out = {"scan", 0.1, {"typer", "tectorwise", "colstore"}, false};
  } else if (name == "probe") {
    *out = {"probe", 0.25, {"typer", "tectorwise"}, false};
  } else if (name == "serve") {
    *out = {"serve", 0.05, {"typer", "tectorwise", "rowstore"}, true};
  } else {
    return false;
  }
  return true;
}

/// One query class of the scan/probe workloads; `cls` names it in the
/// metrics ("selection-s50", "join-large", ...).
struct QueryClass {
  std::string cls;
  engine::QuerySpec spec;
};

std::string ClassName(const engine::QuerySpec& spec) {
  if (spec.id == engine::QueryId::kSelection) {
    return "selection-s" +
           std::to_string(static_cast<int>(spec.selection.selectivity * 100 +
                                           0.5));
  }
  std::string label = spec.Label();
  std::replace(label.begin(), label.end(), '/', '-');
  return label;
}

std::vector<QueryClass> MakeClasses(const Workload& wl,
                                    const tpch::Database& db) {
  std::vector<engine::QuerySpec> specs;
  if (wl.name == "scan") {
    specs = {engine::QuerySpec::Projection(4),
             engine::QuerySpec::Selection(engine::MakeSelectionParams(db, 0.5)),
             engine::QuerySpec::Q6(engine::MakeQ6Params()),
             engine::QuerySpec::Q1()};
  } else if (wl.name == "probe") {
    specs = {engine::QuerySpec::Join(engine::JoinSize::kLarge),
             engine::QuerySpec::GroupBy(64 * 1024),
             engine::QuerySpec::Q9()};
  }
  std::vector<QueryClass> classes;
  for (const engine::QuerySpec& s : specs) classes.push_back({ClassName(s), s});
  return classes;
}

/// The uolap_serve tenant mix with every robustness path armed (deadline
/// admission, shedding, retries, fault injection, brown-out) and trace
/// sampling 1/64. Checkpointing stays off: fsync noise would dominate.
server::ServerConfig ServeConfig(const core::MachineConfig& machine,
                                 obs::MetricsRegistry* metrics) {
  server::ServerConfig config;
  config.machine = machine;
  config.cores = 12;
  config.default_max_queries = 10000;
  config.sample_interval_instructions = 1'000'000;
  config.epoch_ms = 5.0;
  config.trace_sample_n = 64;
  config.metrics = metrics;
  config.admission.policy = server::ShedPolicy::kBoth;
  config.admission.default_deadline_ms = 8.0;
  config.retry.max_retries = 2;
  config.faults =
      server::ParseFaultPlan("seed=7,fail=0.1,slow=0.2,x=2").value();
  config.brownout.queue_depth = 16;
  config.brownout.downgrade = {{"rowstore", "typer"},
                               {"colstore", "typer"},
                               {"tectorwise", "typer"}};
  return config;
}

void AddServeTenants(server::Server& server, uint64_t seed) {
  auto tenant_seed = [&](uint64_t i) { return Mix64(seed ^ (i + 1)); };
  const double zipf = 0.8;
  const std::vector<engine::QuerySpec> scans = {
      engine::QuerySpec::Projection(4),
      engine::QuerySpec::Q6(engine::MakeQ6Params()),
  };
  server.AddTenant({"scans-typer", "typer", scans, zipf, /*arrival_qps=*/0,
                    /*concurrency=*/5, /*think_ms=*/0.0, /*max_queries=*/0,
                    tenant_seed(0)});
  server.AddTenant({"scans-tw", "tectorwise", scans, zipf, 0, 5, 0.0, 0,
                    tenant_seed(1)});
  const std::vector<engine::QuerySpec> analytics = {
      engine::QuerySpec::Join(engine::JoinSize::kLarge),
      engine::QuerySpec::GroupBy(64 * 1024),
      engine::QuerySpec::Q1(),
  };
  server.AddTenant({"joins-typer", "typer", analytics, zipf, 0, 2, 0.2, 0,
                    tenant_seed(2)});
  server.AddTenant({"adhoc-rowstore", "rowstore",
                    {engine::QuerySpec::Projection(2)}, /*zipf_s=*/0,
                    /*arrival_qps=*/200.0, /*concurrency=*/0, 0, 0,
                    tenant_seed(3)});
}

// --- set-up -----------------------------------------------------------------

struct World {
  std::unique_ptr<tpch::Database> db;
  std::unique_ptr<engine::EngineRegistry> registry;
};

/// Builds the database and constructs the workload's engines (for serve
/// also a Server with its tenants): everything before the first timed
/// operation. Returns the elapsed host seconds through `setup_s`.
World Setup(const Workload& wl, uint64_t seed,
            const core::MachineConfig& machine, Tracer& tracer, int rep,
            double* setup_s) {
  const int64_t group = -(rep + 1);
  const auto t0 = Clock::now();
  World world;
  {
    ScopedSpan span(tracer, "setup", "", group);
    {
      ScopedSpan gen(tracer, "tpch.generate", "", group);
      world.db = std::make_unique<tpch::Database>(
          tpch::DbGen(seed).Generate(wl.sf).value());
    }
    world.registry = std::make_unique<engine::EngineRegistry>(*world.db);
    harness::RegisterBuiltinEngines(*world.registry);
    for (const std::string& key : wl.engines) {
      ScopedSpan construct(tracer, "engines.construct", key, group);
      (void)world.registry->Get(key).value();
    }
    if (wl.serve) {
      ScopedSpan construct(tracer, "server.construct", "", group);
      obs::MetricsRegistry metrics;
      server::Server server(ServeConfig(machine, &metrics), *world.registry);
      AddServeTenants(server, seed);
    }
  }
  *setup_s = Seconds(t0, Clock::now());
  return world;
}

// --- answers ----------------------------------------------------------------

uint64_t Fold(uint64_t h, uint64_t v) { return Mix64(h ^ v); }

uint64_t FoldString(uint64_t h, const std::string& s) {
  for (const char c : s) h = Fold(h, static_cast<unsigned char>(c));
  return Fold(h, s.size());
}

uint64_t FoldDouble(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return Fold(h, bits);
}

/// Order-sensitive digest of a scalar, Q1 or Q9 answer (the engines return
/// sorted rows, so equal answers give equal digests).
uint64_t AnswerDigest(const engine::QueryResult& r) {
  uint64_t h = Fold(0, static_cast<uint64_t>(r.id));
  if (const auto* v = std::get_if<int64_t>(&r.value)) {
    return Fold(h, static_cast<uint64_t>(*v));
  }
  if (const auto* q1 = std::get_if<engine::Q1Result>(&r.value)) {
    for (const engine::Q1Row& row : q1->rows) {
      h = Fold(h, static_cast<uint64_t>(row.returnflag));
      h = Fold(h, static_cast<uint64_t>(row.linestatus));
      h = Fold(h, static_cast<uint64_t>(row.sum_qty));
      h = Fold(h, static_cast<uint64_t>(row.sum_base_price));
      h = Fold(h, static_cast<uint64_t>(row.sum_disc_price));
      h = Fold(h, static_cast<uint64_t>(row.sum_charge));
      h = Fold(h, static_cast<uint64_t>(row.count));
    }
  } else if (const auto* q9 = std::get_if<engine::Q9Result>(&r.value)) {
    for (const engine::Q9Row& row : q9->rows) {
      h = FoldString(h, row.nation);
      h = Fold(h, static_cast<uint64_t>(row.year));
      h = Fold(h, static_cast<uint64_t>(row.profit));
    }
  }
  return h;
}

/// Digest of a serving run's latency statistics: overall and per-tenant
/// percentiles, histograms and outcome counts.
uint64_t LatencyDigest(const obs::ServerRecord& r) {
  uint64_t h = FoldDouble(0, r.vtime_ms);
  h = FoldDouble(h, r.p50_ms);
  h = FoldDouble(h, r.p95_ms);
  h = FoldDouble(h, r.p99_ms);
  for (const uint64_t n : {r.completed, r.admitted, r.rejected, r.shed,
                           r.timed_out, r.failed, r.retries}) {
    h = Fold(h, n);
  }
  for (const obs::TenantRecord& t : r.tenants) {
    h = FoldString(h, t.name);
    h = Fold(h, t.completed);
    for (const double d : {t.mean_ms, t.p50_ms, t.p95_ms, t.p99_ms}) {
      h = FoldDouble(h, d);
    }
    for (const uint64_t n : t.latency_histogram) h = Fold(h, n);
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- passes -----------------------------------------------------------------

/// Host time of one pass, with or without tracing.
struct PassTiming {
  bool traced = false;
  double total_s = 0;
};

/// What one profiled query reported: its answer, its exact work counts
/// and its fast-path engagement.
struct QueryObs {
  std::string engine;
  std::string cls;
  bool ok = false;
  std::string error;
  uint64_t digest = 0;
  core::CoreCounters counters;
  core::MemorySystem::FastPathStats fast;
  uint64_t progress_events = 0;
};

/// Collects correctness-check failures: `failed` counts operations with at
/// least one failed check; the first few messages are kept.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;

  void Fail(const std::string& message) {
    if (messages.size() < 20) messages.push_back(message);
  }
};

/// One pass of scan/probe: every class on every engine, each query on a
/// fresh simulated core through ProfileSingleObs.
std::vector<QueryObs> RunQueryPass(const Workload& wl,
                                   const std::vector<QueryClass>& classes,
                                   World& world,
                                   const core::MachineConfig& machine,
                                   Tracer& tracer, int64_t pass,
                                   PassTiming* timing) {
  std::vector<QueryObs> out;
  out.reserve(classes.size() * wl.engines.size());
  const auto t0 = Clock::now();
  {
    ScopedSpan span(tracer, "pass", wl.name, pass);
    for (const QueryClass& qc : classes) {
      for (const std::string& key : wl.engines) {
        QueryObs q;
        q.engine = key;
        q.cls = qc.cls;
        const std::string label = key + "/" + qc.cls;
        const engine::OlapEngine* eng = world.registry->Get(key).value();
        ScopedSpan profile(tracer, "harness.profile", label, pass);
        obs::RunRecord run = harness::ProfileSingleObs(
            machine, harness::ObsOptions{}, label, [&](engine::Workers& w) {
              core::Core& core = *w.cores[0];
              core::CoreObserver* const profiler = core.observer();
              ProgressCounter counter(profiler);
              if (tracer.on()) core.SetObserver(&counter);
              StatusOr<engine::QueryResult> result = [&] {
                ScopedSpan run_span(tracer, "engine.run", label, pass);
                return eng->Run(qc.spec, w);
              }();
              core.SetObserver(profiler);
              q.fast = core.memory().fast_path_stats();
              q.progress_events = counter.events();
              if (!result.ok()) {
                q.error = result.status().ToString();
              } else if (!result.value().ok()) {
                q.error = result.value().error;
              } else {
                q.ok = true;
                q.digest = AnswerDigest(result.value());
              }
            });
        q.counters = run.cores[0].whole.counters;
        out.push_back(std::move(q));
      }
    }
  }
  timing->total_s = Seconds(t0, Clock::now());
  return out;
}

/// Checks one scan/probe pass: every query succeeded, every engine agrees
/// with typer, and answers plus the heap-layout-independent counts repeat
/// the first pass exactly.
void CheckQueryPass(const std::vector<QueryObs>& pass,
                    const std::vector<QueryObs>& first, Checks* checks) {
  std::map<std::string, uint64_t> reference;
  for (const QueryObs& q : pass) {
    if (q.engine == "typer" && q.ok) reference[q.cls] = q.digest;
  }
  for (size_t i = 0; i < pass.size(); ++i) {
    const QueryObs& q = pass[i];
    const std::string who = q.engine + "/" + q.cls;
    bool ok = q.ok;
    if (!q.ok) checks->Fail(who + ": " + q.error);
    const auto ref = reference.find(q.cls);
    if (q.ok && (ref == reference.end() || ref->second != q.digest)) {
      checks->Fail(who + ": answer disagrees with typer");
      ok = false;
    }
    const QueryObs& f = first[i];
    if (q.digest != f.digest ||
        q.counters.mix.TotalInstructions() !=
            f.counters.mix.TotalInstructions() ||
        q.counters.branch_events != f.counters.branch_events) {
      checks->Fail(who + ": answer or exact counts changed between passes");
      ok = false;
    }
    ++checks->attempted;
    if (!ok) ++checks->failed;
  }
}

/// What one serving pass reported.
struct ServeObs {
  bool ok = false;
  std::string error;
  obs::ServerRecord record;
  uint64_t latency_digest = 0;
  bool warm_ran = false;
  uint64_t warm_digest = 0;
  /// Sum over the solo class profiles simulated by the cold run.
  core::CoreCounters class_counters;
  size_t export_bytes = 0;
};

/// One pass of serve: a fresh Server, a cold Run (class simulation plus
/// the fluid loop) and the profile JSON export. With `warm` set, a second
/// Run on the same Server (classes cached) follows outside the pass.
ServeObs RunServePass(World& world, const core::MachineConfig& machine,
                      uint64_t seed, Tracer& tracer, int64_t pass, bool warm,
                      PassTiming* timing) {
  ServeObs out;
  obs::MetricsRegistry metrics;
  const auto t0 = Clock::now();
  const int span = tracer.Begin("pass", "serve", pass);
  std::unique_ptr<server::Server> srv;
  {
    ScopedSpan construct(tracer, "server.construct", "", pass);
    srv = std::make_unique<server::Server>(ServeConfig(machine, &metrics),
                                           *world.registry);
    AddServeTenants(*srv, seed);
  }
  StatusOr<server::ServeResult> cold = [&] {
    ScopedSpan run(tracer, "server.run_cold", "", pass);
    return srv->TryRun();
  }();
  if (cold.ok()) {
    ScopedSpan exp(tracer, "obs.export", "", pass);
    server::ServeResult& result = cold.value();
    obs::ProfileSession session;
    session.bench = "uolap_serve";
    session.machine = machine.name;
    session.freq_ghz = machine.freq_ghz;
    session.scale_factor = world.db->scale_factor;
    session.seed = seed;
    session.server = result.record;
    session.server.enabled = true;
    session.runs = std::move(result.class_runs);
    session.metrics = metrics.Snapshot();
    out.export_bytes = obs::ProfileToJson(session).size();
    for (const obs::RunRecord& run : session.runs) {
      if (run.label.find("[corun]") == std::string::npos) {
        out.class_counters += run.cores[0].whole.counters;
      }
    }
    out.ok = true;
    out.record = std::move(result.record);
    out.latency_digest = LatencyDigest(out.record);
  } else {
    out.error = cold.status().ToString();
  }
  tracer.End(span);
  timing->total_s = Seconds(t0, Clock::now());

  if (out.ok && warm) {
    StatusOr<server::ServeResult> again = [&] {
      ScopedSpan run(tracer, "server.run_warm", "", pass);
      return srv->TryRun();
    }();
    out.warm_ran = true;
    if (again.ok()) out.warm_digest = LatencyDigest(again.value().record);
  }
  return out;
}

/// Checks one serving pass: the run succeeded, the admission accounting
/// identity holds overall and per tenant, and a warm re-run on the same
/// Server reproduces the cold run's latency statistics.
void CheckServePass(const ServeObs& s, Checks* checks) {
  bool ok = s.ok;
  if (!s.ok) checks->Fail("serve: " + s.error);
  const obs::ServerRecord& r = s.record;
  if (s.ok && (r.admitted != r.completed + r.shed + r.timed_out + r.failed ||
               r.submitted != r.admitted + r.rejected)) {
    checks->Fail("serve: admission accounting identity broken");
    ok = false;
  }
  for (const obs::TenantRecord& t : r.tenants) {
    if (t.admitted != t.completed + t.shed + t.timed_out + t.failed) {
      checks->Fail("serve: accounting identity broken for " + t.name);
      ok = false;
    }
  }
  if (s.warm_ran && s.warm_digest != s.latency_digest) {
    checks->Fail("serve: warm re-run latency digest differs from cold run");
    ok = false;
  }
  ++checks->attempted;
  if (!ok) ++checks->failed;
}

// --- microbenchmarks ---------------------------------------------------------

/// Median host nanoseconds per call of `body(core, i)` over `calls` calls
/// on a fresh core, after `warm` untimed calls; three repetitions.
template <typename Body>
double NsPerCall(const core::MachineConfig& machine, uint64_t warm,
                 uint64_t calls, Body body) {
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    core::Core core(machine);
    for (uint64_t i = 0; i < warm; ++i) body(core, i);
    const auto t0 = Clock::now();
    for (uint64_t i = warm; i < warm + calls; ++i) body(core, i);
    ns.push_back(Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(calls));
  }
  std::sort(ns.begin(), ns.end());
  return ns[1];
}

/// Simulated addresses only: Core never dereferences what it is handed,
/// so the working sets below need no host memory.
const void* SimAddress(uint64_t offset) {
  constexpr uint64_t kBase = uint64_t{1} << 40;
  return reinterpret_cast<const void*>(kBase + offset);
}

struct MicroCosts {
  double load_hit_ns = 0;
  double load_seq_ns = 0;
  double load_rand_ns = 0;
  double branch_ns = 0;
  double retire_ns = 0;
};

/// Isolated per-event costs of Core's public calls, one event kind each.
MicroCosts RunMicrobenchmarks(const core::MachineConfig& machine) {
  MicroCosts m;
  // A Load that hits L1D: 8-byte elements of a 16 KB working set in
  // order, so 7 of 8 are served by the same-line filter and 1 walks the
  // hierarchy to an L1 hit — the mix of an engine's L1-resident accesses.
  m.load_hit_ns = NsPerCall(machine, 2048, 4'000'000,
                            [](core::Core& c, uint64_t i) {
                              c.Load(SimAddress((i * 8) & 16383), 8);
                            });
  // A Load of the next line of an established ascending stream: one
  // sequential line serviced below L1.
  m.load_seq_ns = NsPerCall(machine, 4096, 1'000'000,
                            [](core::Core& c, uint64_t i) {
                              c.Load(SimAddress(i * 64), 8);
                            });
  // A Load of a random line of 1 GB, far beyond the simulated L3: the
  // miss walk including the TLB.
  Rng rng(7);
  m.load_rand_ns = NsPerCall(
      machine, 200'000, 300'000, [&rng](core::Core& c, uint64_t) {
        c.Load(SimAddress(rng.Next() & ((1ull << 30) - 64)), 8);
      });
  // A data-dependent branch with a random outcome.
  m.branch_ns = NsPerCall(machine, 1000, 4'000'000,
                          [&rng](core::Core& c, uint64_t) {
                            c.Branch(7, (rng.Next() & 1) != 0);
                          });
  // One Retire of a small per-tuple mix (closes one phase).
  core::InstrMix mix;
  mix.alu = 4;
  mix.branch = 1;
  mix.other = 2;
  mix.chain_cycles = 1;
  m.retire_ns = NsPerCall(machine, 1000, 4'000'000,
                          [&mix](core::Core& c, uint64_t) { c.Retire(mix); });
  return m;
}

// --- output -----------------------------------------------------------------

void WriteCounters(obs::JsonWriter& w, const core::CoreCounters& c) {
  const core::MemCounters& m = c.mem;
  w.KV("instructions", c.mix.TotalInstructions());
  w.KV("branch_events", c.branch_events);
  w.KV("branch_mispredicts", c.branch_mispredicts);
  w.KV("data_accesses", m.data_accesses);
  w.KV("l1d_hits", m.l1d_hits);
  w.KV("l2_hits", m.l2_hits);
  w.KV("l3_hits", m.l3_hits);
  w.KV("dram_lines", m.dram_lines);
  w.KV("seq_lines", m.l2_hits_seq + m.l3_hits_seq + m.dram_seq_l2_streamer +
                        m.dram_seq_l1_streamer + m.dram_seq_next_line +
                        m.dram_seq_uncovered);
  w.KV("rand_lines", m.l2_hits_rand + m.l3_hits_rand + m.dram_rand);
  w.KV("page_walks", m.page_walks);
}

int64_t PeakRssKb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Refuses to measure a different program than the one users run: the
/// reference kernels, the validation layer or a sanitizer build.
std::string MeasuringGuard() {
  if (std::getenv("UOLAP_REFERENCE_PATHS") != nullptr) {
    return "UOLAP_REFERENCE_PATHS is set (reference kernels)";
  }
  if (audit::ValidationEnabled()) return "model validation is enabled";
  if (SanitizerBuild()) return "this is a sanitizer build";
  return "";
}

}  // namespace
}  // namespace uolap

int main(int argc, char** argv) {
  using namespace uolap;
  FlagSet flags;
  if (!flags.Parse(argc, argv).ok()) {
    std::fprintf(stderr, "uolap_hostbench: malformed flags\n");
    return 2;
  }
  Workload wl;
  if (!LookupWorkload(flags.GetString("workload", ""), &wl)) {
    std::fprintf(stderr, "uolap_hostbench: --workload must be scan, probe "
                         "or serve\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetBool("trace", false);
  const std::string out_path = flags.GetString("out", "");
  if (out_path.empty() || !(seconds > 0)) {
    std::fprintf(stderr, "uolap_hostbench: need --out and --seconds > 0\n");
    return 2;
  }
  const std::string refusal = MeasuringGuard();
  if (!refusal.empty()) {
    std::fprintf(stderr, "uolap_hostbench: refusing to measure: %s\n",
                 refusal.c_str());
    return 3;
  }

  const core::MachineConfig machine = core::MachineConfig::Broadwell();
  Tracer tracer;
  tracer.set_on(trace);

  // Set-up repeats (its time is a median); the last world is measured.
  constexpr int kSetupReps = 9;
  std::vector<double> setup_s;
  World world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous repetition first (engines before their database)
    // so peak memory reflects one world.
    world.registry.reset();
    world.db.reset();
    double s = 0;
    world = Setup(wl, seed, machine, tracer, rep, &s);
    setup_s.push_back(s);
  }
  const std::vector<QueryClass> classes = MakeClasses(wl, *world.db);

  std::vector<PassTiming> passes;
  Checks checks;
  std::vector<QueryObs> first_queries;
  std::vector<QueryObs> last_queries;
  ServeObs last_serve;

  // Untraced passes for the whole run, or for its first half when tracing;
  // then the traced half. A phase runs at least one pass and starts another
  // only if one more pass as long as the last still fits its budget.
  auto run_phase = [&](bool traced, double budget_s) {
    tracer.set_on(traced);
    const auto start = Clock::now();
    do {
      const int64_t pass = static_cast<int64_t>(passes.size());
      PassTiming timing;
      timing.traced = traced;
      if (wl.serve) {
        last_serve = RunServePass(world, machine, seed, tracer, pass,
                                  /*warm=*/traced || pass == 0, &timing);
        CheckServePass(last_serve, &checks);
      } else {
        last_queries = RunQueryPass(wl, classes, world, machine, tracer, pass,
                                    &timing);
        if (first_queries.empty()) first_queries = last_queries;
        CheckQueryPass(last_queries, first_queries, &checks);
      }
      passes.push_back(std::move(timing));
    } while (Seconds(start, Clock::now()) + passes.back().total_s <=
             budget_s);
  };
  if (trace) {
    run_phase(false, seconds / 2);
    run_phase(true, seconds / 2);
  } else {
    run_phase(false, seconds);
  }
  const int64_t peak_rss_kb = PeakRssKb();
  const MicroCosts micro = trace ? RunMicrobenchmarks(machine) : MicroCosts{};

  obs::JsonWriter w(0);
  w.BeginObject();
  w.KV("schema", "uolap-hostbench-raw");
  w.KV("workload", wl.name);
  w.KV("seed", seed);
  w.KV("scale_factor", wl.sf);
  w.KV("traced", trace);
  w.KV("compiler", __VERSION__);
  w.KV("peak_rss_kb", peak_rss_kb);
  w.Key("setup_s");
  w.BeginArray();
  for (const double s : setup_s) w.Double(s);
  w.EndArray();
  w.Key("passes");
  w.BeginArray();
  for (const PassTiming& p : passes) {
    w.BeginObject();
    w.KV("traced", p.traced);
    w.KV("seconds", p.total_s);
    w.EndObject();
  }
  w.EndArray();
  w.KV("attempted", checks.attempted);
  w.KV("failed", checks.failed);
  w.Key("failures");
  w.BeginArray();
  for (const std::string& m : checks.messages) w.String(m);
  w.EndArray();
  // Work counts and answers of the last pass.
  w.Key("queries");
  w.BeginArray();
  for (const QueryObs& q : last_queries) {
    w.BeginObject();
    w.KV("engine", q.engine);
    w.KV("class", q.cls);
    w.KV("answer", Hex(q.digest));
    WriteCounters(w, q.counters);
    w.KV("memo_hits", q.fast.memo_hits);
    w.KV("lane_lines", q.fast.lane_lines);
    w.KV("progress_events", q.progress_events);
    w.EndObject();
  }
  w.EndArray();
  if (wl.serve) {
    const obs::ServerRecord& r = last_serve.record;
    w.Key("serve");
    w.BeginObject();
    w.KV("submitted", r.submitted);
    w.KV("admitted", r.admitted);
    w.KV("completed", r.completed);
    w.KV("rejected", r.rejected);
    w.KV("shed", r.shed);
    w.KV("timed_out", r.timed_out);
    w.KV("failed", r.failed);
    w.KV("retries", r.retries);
    w.KV("latency_digest", Hex(last_serve.latency_digest));
    w.KV("export_bytes", static_cast<uint64_t>(last_serve.export_bytes));
    w.Key("classes");
    w.BeginObject();
    WriteCounters(w, last_serve.class_counters);
    w.EndObject();
    w.EndObject();
  }
  if (trace) {
    w.Key("micro");
    w.BeginObject();
    w.KV("load_hit_ns", micro.load_hit_ns);
    w.KV("load_seq_ns", micro.load_seq_ns);
    w.KV("load_rand_ns", micro.load_rand_ns);
    w.KV("branch_ns", micro.branch_ns);
    w.KV("retire_ns", micro.retire_ns);
    w.EndObject();
  }
  w.Key("spans");
  w.BeginArray();
  for (const Span& s : tracer.spans()) {
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("label", s.label);
    w.KV("group", s.group);
    w.KV("parent", static_cast<int64_t>(s.parent));
    w.KV("start_s", s.start_s);
    w.KV("end_s", s.end_s);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  const Status written = obs::WriteTextFile(out_path, w.TakeString());
  if (!written.ok()) {
    std::fprintf(stderr, "uolap_hostbench: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  return 0;
}
