#include "harness/context.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "audit/validation.h"
#include "common/macros.h"
#include "engine/thread_pool.h"
#include "harness/engines.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/profile_export.h"

namespace uolap::harness {

namespace {

/// Session name fallback: basename of argv[0] until PrintHeader names it.
std::string Basename(const char* path) {
  std::string s(path != nullptr ? path : "bench");
  const size_t slash = s.find_last_of('/');
  return slash == std::string::npos ? s : s.substr(slash + 1);
}

}  // namespace

BenchContext::BenchContext(int argc, char** argv, double default_sf)
    : start_time_(std::chrono::steady_clock::now()) {
  UOLAP_CHECK(flags_.Parse(argc, argv).ok());
  quick_ = flags_.GetBool("quick", false);
  sf_ = flags_.GetDouble("sf", quick_ ? 0.05 : default_sf);
  seed_ = static_cast<uint64_t>(flags_.GetInt("seed", 42));
  csv_path_ = flags_.GetString("csv", "");
  json_path_ = flags_.GetString("json", "");
  trace_path_ = flags_.GetString("trace", "");
  metrics_path_ = flags_.GetString("metrics", "");
  sample_interval_ = static_cast<uint64_t>(flags_.GetInt(
      "sample-every", exporting() ? 1'000'000 : 0));
  stable_json_ = flags_.GetBool("stable-json", false);
  if (flags_.GetBool("validate", false)) {
    audit::SetValidationEnabled(true);
  }
  session_.bench = Basename(argc > 0 ? argv[0] : nullptr);

  const std::string machine_name =
      flags_.GetString("machine", "broadwell");
  if (machine_name == "skylake") {
    machine_ = core::MachineConfig::Skylake();
  } else {
    UOLAP_CHECK_MSG(machine_name == "broadwell",
                    "--machine must be broadwell or skylake");
    machine_ = core::MachineConfig::Broadwell();
  }

  const auto t0 = std::chrono::steady_clock::now();
  tpch::DbGen gen(seed_);
  db_ = std::make_unique<tpch::Database>(std::move(gen.Generate(sf_)).value());
  const double gen_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("# generated TPC-H sf=%.3g (%zu lineitems) in %.1fs\n", sf_,
              db_->lineitem.size(), gen_s);

  engines_ = std::make_unique<engine::EngineRegistry>(*db_);
  RegisterBuiltinEngines(*engines_);

  session_.machine = machine_.name;
  session_.freq_ghz = machine_.freq_ghz;
  session_.scale_factor = sf_;
  session_.seed = seed_;
  session_.quick = quick_;
}

BenchContext::~BenchContext() { FlushOutputs(); }

void BenchContext::RecordRun(obs::RunRecord run) {
  obs::MetricsRegistry::Global().Count(
      obs::metric_names::kHarnessRunsRecorded);
  std::lock_guard<std::mutex> lock(session_mu_);
  session_.runs.push_back(std::move(run));
  flushed_ = false;
}

std::vector<obs::RunRecord> BenchContext::ProfileCells(
    const std::vector<Cell>& cells) {
  std::printf("# profiling %zu configurations...\n", cells.size());
  std::fflush(stdout);
  engine::ThreadPool& pool = engine::ThreadPool::Global();
  std::vector<obs::RunRecord> runs(cells.size());
  pool.ParallelFor(cells.size(), [&](size_t i) {
    const Cell& cell = cells[i];
    runs[i] = harness::Profile(cell.machine.value_or(machine_), cell.threads,
                               obs_options(), cell.label, cell.body, &pool);
  });
  for (const obs::RunRecord& run : runs) RecordRun(run);
  return runs;
}

void BenchContext::FlushOutputs() {
  if (!exporting()) return;
  std::lock_guard<std::mutex> lock(session_mu_);
  if (flushed_) return;
  flushed_ = true;
  // wall_ms is the only host-time-dependent field in the export;
  // --stable-json keeps it zero so equal simulations export equal bytes.
  session_.wall_ms =
      stable_json_ ? 0.0
                   : std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count();
  // Export runs sorted by (label, threads), so the bytes do not depend
  // on the order callers recorded them in.
  std::stable_sort(session_.runs.begin(), session_.runs.end(),
                   [](const obs::RunRecord& a, const obs::RunRecord& b) {
                     return a.label != b.label ? a.label < b.label
                                               : a.threads < b.threads;
                   });
  // Snapshot the global registry into the session so the profile JSON v4
  // "metrics" block reflects everything published up to this flush.
  session_.metrics = obs::MetricsRegistry::Global().Snapshot();
  if (!json_path_.empty()) {
    const Status s =
        obs::WriteTextFile(json_path_, obs::ProfileToJson(session_));
    UOLAP_CHECK_MSG(s.ok(), s.ToString().c_str());
    std::printf("# wrote profile JSON (%zu runs) to %s\n",
                session_.runs.size(), json_path_.c_str());
  }
  if (!trace_path_.empty()) {
    const Status s =
        obs::WriteTextFile(trace_path_, obs::SessionToChromeTrace(session_));
    UOLAP_CHECK_MSG(s.ok(), s.ToString().c_str());
    std::printf("# wrote Chrome trace to %s (open in Perfetto or "
                "chrome://tracing)\n",
                trace_path_.c_str());
  }
  if (!metrics_path_.empty()) {
    const Status s = obs::WriteTextFile(
        metrics_path_, obs::ToPrometheusText(session_.metrics));
    UOLAP_CHECK_MSG(s.ok(), s.ToString().c_str());
    std::printf("# wrote metrics exposition to %s\n", metrics_path_.c_str());
  }
  std::fflush(stdout);
}

void BenchContext::RecordServer(obs::ServerRecord server) {
  std::lock_guard<std::mutex> lock(session_mu_);
  server.enabled = true;
  session_.server = std::move(server);
  flushed_ = false;
}

void BenchContext::Emit(const TablePrinter& table) {
  obs::MetricsRegistry::Global().Count(
      obs::metric_names::kHarnessTablesEmitted);
  std::printf("\n%s\n", table.ToAscii().c_str());
  std::fflush(stdout);
  if (!csv_path_.empty()) {
    std::ofstream out(csv_path_, std::ios::app);
    out << "# " << table.title() << "\n" << table.ToCsv() << "\n";
    out.flush();
    UOLAP_CHECK_MSG(out.good(),
                    ("cannot append CSV to " + csv_path_).c_str());
  }
}

void BenchContext::PrintHeader(const std::string& bench_name) {
  // session_.bench stays the argv[0] basename: exports key on the binary
  // name, not the human-facing banner.
  std::printf(
      "==============================================================\n"
      "%s\n"
      "machine=%s  sf=%.3g  seed=%llu%s\n"
      "==============================================================\n",
      bench_name.c_str(), machine_.name.c_str(), sf_,
      static_cast<unsigned long long>(seed_), quick_ ? "  (quick)" : "");
  std::fflush(stdout);
}

}  // namespace uolap::harness
