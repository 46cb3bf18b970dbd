#ifndef UOLAP_HARNESS_CONTEXT_H_
#define UOLAP_HARNESS_CONTEXT_H_

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table_printer.h"
#include "core/machine.h"
#include "engine/registry.h"
#include "harness/profile.h"
#include "obs/record.h"
#include "tpch/dbgen.h"

namespace uolap::harness {

/// Shared setup of every bench binary: flags, database, machine config,
/// lazily constructed engines, and output plumbing.
///
/// Flags understood by all benches:
///   --sf=<double>     TPC-H scale factor (default: per-bench)
///   --quick           tiny scale factor for smoke runs
///   --seed=<int>      generator seed (default 42)
///   --machine=<name>  "broadwell" (default) or "skylake"
///   --csv=<path>      also append every table as CSV to <path>
///   --json=<path>     write the versioned profile JSON of every recorded
///                     run (regions, timelines, Top-Down breakdowns)
///   --trace=<path>    write a Chrome trace-event file (load in Perfetto
///                     or chrome://tracing)
///   --metrics=<path>  write the metrics-registry snapshot taken at flush
///                     as Prometheus text exposition
///   --sample-every=<n>  counter-timeline sampling interval in retired
///                     instructions (default: 1M when --json/--trace is
///                     given, otherwise off; 0 disables)
///   --validate        run the model-invariant audit after every profiled
///                     run (see audit/validation.h); violations print to
///                     stderr, land in the profile JSON, and abort. Also
///                     on by default when built with -DUOLAP_VALIDATE=ON.
///   --stable-json     zero the host wall-clock field in the profile JSON
///                     so two runs of the same bench produce byte-identical
///                     files (the CI determinism gate byte-diffs them)
class BenchContext {
 public:
  /// Parses flags and generates the database. `default_sf` is the bench's
  /// documented default scale factor.
  BenchContext(int argc, char** argv, double default_sf);

  /// Writes any pending --json/--trace outputs (idempotent; also called
  /// here if the bench never calls FlushOutputs itself).
  ~BenchContext();

  const tpch::Database& db() const { return *db_; }
  const core::MachineConfig& machine() const { return machine_; }
  double scale_factor() const { return sf_; }
  bool quick() const { return quick_; }
  uint64_t seed() const { return seed_; }
  bool stable_json() const { return stable_json_; }
  /// The parsed flag set; drivers with extra flags (e.g. uolap_serve's
  /// --cores/--queries) read them from here.
  const FlagSet& flags() const { return flags_; }

  /// The engine registry over this context's database, pre-loaded with the
  /// built-in keys ("typer", "tectorwise", "tectorwise+simd", "rowstore",
  /// "colstore"); see harness/engines.h.
  engine::EngineRegistry& engines() { return *engines_; }
  /// Shorthand for engines().Get(name).value(): the cached engine for a
  /// registry key (constructed on first use). Benches name keys they know
  /// are registered, so an unknown key CHECK-fails loudly here; fallible
  /// callers use engines().Get(name) and handle the NotFound Status.
  /// Engine-specific entry points need a static_cast at the call site,
  /// e.g. static_cast<typer::TyperEngine&>(ctx.engine("typer")).
  engine::OlapEngine& engine(const std::string& name) {
    return *engines_->Get(name).value();
  }

  /// Prints the table to stdout (ASCII) and appends CSV if --csv given.
  void Emit(const TablePrinter& table);

  /// Prints the standard bench banner (scale factor, machine, seed) and
  /// names the recorded session after the bench.
  void PrintHeader(const std::string& bench_name);

  // --- recorded profiling ---------------------------------------------
  /// One profiled configuration: a bar of a paper figure.
  struct Cell {
    /// Run label in the session (and so in --json/--trace).
    std::string label;
    std::function<void(engine::Workers&)> body;
    /// Simulated cores; more than one is a Section 10 multi-core run.
    int threads = 1;
    /// What-if machine; the context's machine when unset.
    std::optional<core::MachineConfig> machine = std::nullopt;
  };

  /// Profiles every cell through harness::Profile, fanned out on
  /// engine::ThreadPool::Global(); a multi-core cell's workers then run
  /// inline on the pool thread that took the cell. Bodies must be
  /// independent of each other. Once all cells finished, the runs are
  /// recorded into the session in cell order, and their records come back
  /// in cell order, so printed tables and exports do not depend on the
  /// schedule (UOLAP_THREADS=1 gives the same bytes).
  std::vector<obs::RunRecord> ProfileCells(const std::vector<Cell>& cells);

  ObsOptions obs_options() const {
    return ObsOptions{sample_interval_};
  }
  /// True when --json, --trace, or --metrics was given.
  bool exporting() const {
    return !json_path_.empty() || !trace_path_.empty() ||
           !metrics_path_.empty();
  }

  /// Writes the --json/--trace files from the runs recorded so far.
  /// Idempotent per state; the destructor calls it as a backstop.
  void FlushOutputs();

  /// Records an externally produced run into the session (e.g. the
  /// serving runtime's per-class profiles). Thread-safe.
  void RecordRun(obs::RunRecord run);

  /// The runs recorded so far, in record order until FlushOutputs sorts
  /// them for export. Read it only while nothing records.
  const std::vector<obs::RunRecord>& runs() const { return session_.runs; }

  /// Records a serving run's statistics; exported as the profile JSON's
  /// "server" block.
  void RecordServer(obs::ServerRecord server);

 private:
  FlagSet flags_;
  double sf_ = 1.0;
  bool quick_ = false;
  uint64_t seed_ = 42;
  core::MachineConfig machine_;
  std::string csv_path_;
  std::string json_path_;
  std::string trace_path_;
  std::string metrics_path_;
  uint64_t sample_interval_ = 0;
  bool stable_json_ = false;
  std::chrono::steady_clock::time_point start_time_;
  mutable std::mutex session_mu_;
  obs::ProfileSession session_;
  bool flushed_ = false;
  std::unique_ptr<tpch::Database> db_;
  std::unique_ptr<engine::EngineRegistry> engines_;
};

}  // namespace uolap::harness

#endif  // UOLAP_HARNESS_CONTEXT_H_
