// Works with the profile JSONs that every figure bench emits via --json:
// validate them, summarize one, diff two as a perf-regression gate, rank
// the hottest tenants/classes/metrics, or gate on SLO specs.
//
//   uolap_report validate a.json [b.json ...]
//   uolap_report summary  profile.json [--regions]
//                         [--section=server|regions|metrics]
//   uolap_report top      profile.json [--n=5]
//   uolap_report slo      profile.json [--slo='t:p99<5ms'] [--spec=file]
//   uolap_report diff     before.json after.json [--max-regress=0.05]
//   uolap_report checkpoint <dir>
//
// `validate` accepts both profile JSONs (schema "uolap-profile") and
// Chrome trace JSONs (object with a "traceEvents" array); a profile must
// carry exactly the schema version this build writes
// (kProfileSchemaVersion; older files are regenerated, not read).
// Everything else wants profile JSONs. `diff` matches runs by (label,
// threads), prints the per-run modelled-cycle delta, and exits non-zero
// when any matched run regresses by more than --max-regress (default 5%)
// — the gate future perf PRs run in CI. `slo` evaluates SLO clauses (from --slo, a --spec file
// of one clause per line, or the specs embedded in the profile's server
// block) against the profile's SLO epoch windows and exits non-zero on
// any violation — the serve-SLO smoke gate. `checkpoint` validates a
// uolap_serve --checkpoint-dir directory offline (DESIGN.md §10): every
// snapshot is CRC-checked and decoded, every journal's frames are
// re-verified, torn tails are reported, and the exit code says whether
// the directory is resumable.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/table_printer.h"
#include "obs/json.h"
#include "obs/profile_export.h"
#include "obs/record.h"
#include "obs/slo.h"
#include "server/checkpoint.h"

namespace {

using uolap::FlagSet;
using uolap::TablePrinter;
using uolap::obs::JsonValue;

int Usage() {
  std::fprintf(stderr,
               "usage: uolap_report "
               "<validate|summary|top|slo|diff|checkpoint> ...\n"
               "  validate a.json [b.json ...]\n"
               "  summary  profile.json [--regions] "
               "[--section=server|regions|metrics]\n"
               "  top      profile.json [--n=5]\n"
               "  slo      profile.json [--slo='tenant:p99<5ms,...'] "
               "[--spec=slo.spec]\n"
               "  diff     before.json after.json [--max-regress=0.05]\n"
               "  checkpoint <dir>\n");
  return 2;
}

/// Loads `path` and checks it is either a versioned profile JSON or a
/// Chrome trace JSON. Prints one line per file.
bool ValidateFile(const std::string& path, JsonValue* out = nullptr) {
  auto doc = uolap::obs::ReadJsonFile(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 doc.status().ToString().c_str());
    return false;
  }
  const JsonValue& v = doc.value();
  if (v.is_object() && v.GetString("schema") == uolap::obs::kProfileSchemaName) {
    const int version = static_cast<int>(v.GetNumber("version", -1));
    if (!uolap::obs::IsSupportedProfileVersion(version)) {
      std::fprintf(stderr, "%s: profile schema version %d, expected %d\n",
                   path.c_str(), version, uolap::obs::kProfileSchemaVersion);
      return false;
    }
    const JsonValue* runs = v.Find("runs");
    if (runs == nullptr || !runs->is_array()) {
      std::fprintf(stderr, "%s: profile JSON without a runs array\n",
                   path.c_str());
      return false;
    }
    // Surface recorded model-invariant violations — a profile whose
    // run carries violations is not a trustworthy measurement.
    size_t violations = 0;
    for (const JsonValue& run : runs->array) {
      const JsonValue* audit = run.Find("audit");
      const JsonValue* vio =
          audit != nullptr ? audit->Find("violations") : nullptr;
      if (vio == nullptr || !vio->is_array()) continue;
      violations += vio->array.size();
      for (const JsonValue& entry : vio->array) {
        std::fprintf(stderr, "%s: run '%s': %s [%s]: %s\n", path.c_str(),
                     run.GetString("label", "?").c_str(),
                     entry.GetString("checker", "?").c_str(),
                     entry.GetString("subject", "?").c_str(),
                     entry.GetString("message", "?").c_str());
      }
    }
    if (violations > 0) {
      std::fprintf(stderr, "%s: %zu recorded audit violation(s)\n",
                   path.c_str(), violations);
      return false;
    }
    std::printf("%s: ok (uolap-profile v%d, bench %s, %zu runs)\n",
                path.c_str(), version, v.GetString("bench", "?").c_str(),
                runs->array.size());
  } else if (v.is_object() && v.Find("traceEvents") != nullptr &&
             v.Find("traceEvents")->is_array()) {
    std::printf("%s: ok (Chrome trace, %zu events)\n", path.c_str(),
                v.Find("traceEvents")->array.size());
  } else {
    std::fprintf(stderr,
                 "%s: parses but is neither a uolap-profile JSON nor a "
                 "Chrome trace\n",
                 path.c_str());
    return false;
  }
  if (out != nullptr) *out = std::move(doc).value();
  return true;
}

/// Loads a file that must be a profile JSON (not a trace).
bool LoadProfile(const std::string& path, JsonValue* out) {
  if (!ValidateFile(path, out)) return false;
  if (out->GetString("schema") != uolap::obs::kProfileSchemaName) {
    std::fprintf(stderr, "%s: expected a uolap-profile JSON\n", path.c_str());
    return false;
  }
  return true;
}

/// Modelled cost of a run: makespan cycles (equals the single core's total
/// cycles for threads == 1).
double RunCycles(const JsonValue& run) {
  return run.GetNumber("makespan_cycles");
}

void PrintRegions(const JsonValue& core) {
  const JsonValue* regions = core.Find("regions");
  if (regions == nullptr || regions->array.empty()) return;
  TablePrinter t("    regions (exclusive cycles)");
  t.SetHeader({"region", "visits", "Mcycles", "instructions"});
  for (const JsonValue& node : regions->array) {
    const int depth = static_cast<int>(node.GetNumber("depth"));
    const JsonValue* excl = node.Find("exclusive");
    const double cycles = excl != nullptr ? excl->GetNumber("cycles") : 0;
    const double instr = excl != nullptr ? excl->GetNumber("instructions") : 0;
    t.AddRow({std::string(static_cast<size_t>(depth) * 2, ' ') +
                  node.GetString("name"),
              TablePrinter::Fmt(node.GetNumber("visits"), 0),
              TablePrinter::Fmt(cycles / 1e6, 2),
              TablePrinter::Fmt(instr, 0)});
  }
  std::printf("%s", t.ToAscii().c_str());
}

/// Prints the "server" block (multi-tenant serving runs): per-tenant
/// latency percentiles, per-engine load, and the solo-vs-co-run class
/// attribution that shows where shared-bandwidth contention landed.
void PrintServer(const JsonValue& server) {
  std::printf(
      "serving: %d cores | vtime %.1f ms | %g/%g completed | "
      "%.1f qps | socket %.1f GB/s avg, %.1f GB/s peak%s\n",
      static_cast<int>(server.GetNumber("cores")),
      server.GetNumber("vtime_ms"), server.GetNumber("completed"),
      server.GetNumber("submitted"), server.GetNumber("throughput_qps"),
      server.GetNumber("avg_socket_gbps"),
      server.GetNumber("peak_socket_gbps"),
      server.GetBool("saturated") ? " | SATURATED" : "");
  std::printf(
      "outcomes: admitted %g | rejected %g | shed %g | timed_out %g | "
      "failed %g | retries %g | policy %s%s%s\n",
      server.GetNumber("admitted"), server.GetNumber("rejected"),
      server.GetNumber("shed"), server.GetNumber("timed_out"),
      server.GetNumber("failed"), server.GetNumber("retries"),
      server.GetString("shed_policy").c_str(),
      server.GetString("fault_plan").empty() ? "" : " | fault plan ",
      server.GetString("fault_plan").c_str());
  const double faults = server.GetNumber("faults_injected");
  const double slows = server.GetNumber("slowdowns_injected");
  const double downs = server.GetNumber("brownout_downgrades");
  if (faults > 0 || slows > 0 || downs > 0) {
    std::printf(
        "injected: %g transient failures | %g slowdown epochs | "
        "%g brown-out downgrades\n",
        faults, slows, downs);
  }
  const JsonValue* epochs = server.Find("epochs");
  if (epochs != nullptr && epochs->is_array()) {
    std::printf(
        "telemetry: %zu epochs of %g ms | overall p50/p95/p99 "
        "%.2f/%.2f/%.2f ms | %zu slo specs\n",
        epochs->array.size(), server.GetNumber("epoch_ms"),
        server.GetNumber("p50_ms"), server.GetNumber("p95_ms"),
        server.GetNumber("p99_ms"),
        server.Find("slos") != nullptr ? server.Find("slos")->array.size()
                                       : 0);
  }
  std::printf("\n");
  const JsonValue* tenants = server.Find("tenants");
  if (tenants != nullptr && !tenants->array.empty()) {
    TablePrinter t("tenants");
    t.SetHeader({"tenant", "engine", "done", "mean ms", "p50 ms", "p95 ms",
                 "p99 ms", "qps"});
    for (const JsonValue& tenant : tenants->array) {
      t.AddRow({tenant.GetString("name"), tenant.GetString("engine"),
                TablePrinter::Fmt(tenant.GetNumber("completed"), 0),
                TablePrinter::Fmt(tenant.GetNumber("mean_ms"), 2),
                TablePrinter::Fmt(tenant.GetNumber("p50_ms"), 2),
                TablePrinter::Fmt(tenant.GetNumber("p95_ms"), 2),
                TablePrinter::Fmt(tenant.GetNumber("p99_ms"), 2),
                TablePrinter::Fmt(tenant.GetNumber("throughput_qps"), 1)});
    }
    std::printf("%s\n", t.ToAscii().c_str());
  }
  const JsonValue* engines = server.Find("engines");
  if (engines != nullptr && !engines->array.empty()) {
    TablePrinter t("engine load");
    t.SetHeader({"engine", "done", "p50 ms", "p95 ms", "p99 ms", "qps"});
    for (const JsonValue& e : engines->array) {
      t.AddRow({e.GetString("engine"),
                TablePrinter::Fmt(e.GetNumber("completed"), 0),
                TablePrinter::Fmt(e.GetNumber("p50_ms"), 2),
                TablePrinter::Fmt(e.GetNumber("p95_ms"), 2),
                TablePrinter::Fmt(e.GetNumber("p99_ms"), 2),
                TablePrinter::Fmt(e.GetNumber("throughput_qps"), 1)});
    }
    std::printf("%s\n", t.ToAscii().c_str());
  }
  const JsonValue* classes = server.Find("classes");
  if (classes != nullptr && !classes->array.empty()) {
    TablePrinter t("query classes (solo vs co-run)");
    t.SetHeader({"class", "runs", "solo ms", "corun ms", "bw scale",
                 "dcache solo", "dcache corun"});
    for (const JsonValue& c : classes->array) {
      t.AddRow({c.GetString("label"),
                TablePrinter::Fmt(c.GetNumber("executions"), 0),
                TablePrinter::Fmt(c.GetNumber("solo_ms"), 2),
                TablePrinter::Fmt(c.GetNumber("corun_ms"), 2),
                TablePrinter::Fmt(c.GetNumber("avg_bw_scale"), 3),
                TablePrinter::Pct(c.GetNumber("solo_dcache_frac"), 1),
                TablePrinter::Pct(c.GetNumber("corun_dcache_frac"), 1)});
    }
    std::printf("%s\n", t.ToAscii().c_str());
  }
}

/// Prints the "metrics" block: one row per series with the payload
/// matching the family kind (counter value, gauge value, or histogram
/// count/sum).
void PrintMetrics(const JsonValue& metrics) {
  TablePrinter t("metrics");
  t.SetHeader({"metric", "kind", "label", "value"});
  for (const JsonValue& family : metrics.array) {
    const std::string name = family.GetString("name");
    const std::string kind = family.GetString("kind");
    const JsonValue* series = family.Find("series");
    if (series == nullptr) continue;
    for (const JsonValue& s : series->array) {
      const std::string label_key = s.GetString("label_key");
      const std::string label =
          label_key.empty() ? "-"
                            : label_key + "=" + s.GetString("label_value");
      std::string value;
      if (kind == "histogram") {
        value = TablePrinter::Fmt(s.GetNumber("count"), 0) + " obs, sum " +
                TablePrinter::Fmt(s.GetNumber("sum_micro") / 1e6, 2);
      } else {
        value = TablePrinter::Fmt(s.GetNumber("value"), kind == "gauge" ? 2 : 0);
      }
      t.AddRow({name, kind, label, value});
    }
  }
  std::printf("%s", t.ToAscii().c_str());
}

int Summary(const JsonValue& profile, bool show_regions,
            const std::string& section) {
  const JsonValue* server = profile.Find("server");
  const JsonValue* metrics = profile.Find("metrics");
  const JsonValue* runs = profile.Find("runs");
  if (section == "server") {
    if (server == nullptr || !server->is_object()) {
      std::fprintf(stderr, "profile has no server block\n");
      return 1;
    }
    PrintServer(*server);
    return 0;
  }
  if (section == "metrics") {
    if (metrics == nullptr || !metrics->is_array()) {
      std::fprintf(stderr, "profile has no metrics block\n");
      return 1;
    }
    PrintMetrics(*metrics);
    return 0;
  }
  if (section == "regions") show_regions = true;
  if (!section.empty() && section != "regions") {
    std::fprintf(stderr,
                 "--section wants server, regions, or metrics, got '%s'\n",
                 section.c_str());
    return 2;
  }
  std::printf("bench %s | machine %s | sf %g | seed %llu%s | wall %.0f ms\n\n",
              profile.GetString("bench", "?").c_str(),
              profile.GetString("machine", "?").c_str(),
              profile.GetNumber("scale_factor"),
              static_cast<unsigned long long>(profile.GetNumber("seed")),
              profile.GetBool("quick") ? " | --quick" : "",
              profile.GetNumber("wall_ms"));
  if (server != nullptr && server->is_object()) PrintServer(*server);
  if (metrics != nullptr && metrics->is_array()) {
    std::printf("metrics: %zu families recorded "
                "(--section=metrics to list)\n\n",
                metrics->array.size());
  }
  TablePrinter t("runs");
  t.SetHeader({"label", "threads", "Mcycles", "time ms", "GB/s", "regions"});
  for (const JsonValue& run : runs->array) {
    size_t region_count = 0;
    const JsonValue* cores = run.Find("cores");
    if (cores != nullptr) {
      for (const JsonValue& core : cores->array) {
        const JsonValue* regions = core.Find("regions");
        if (regions != nullptr) region_count += regions->array.size();
      }
    }
    t.AddRow({run.GetString("label"),
              TablePrinter::Fmt(run.GetNumber("threads"), 0),
              TablePrinter::Fmt(RunCycles(run) / 1e6, 2),
              TablePrinter::Fmt(run.GetNumber("time_ms"), 2),
              TablePrinter::Fmt(run.GetNumber("socket_bandwidth_gbps"), 2),
              TablePrinter::Fmt(static_cast<double>(region_count), 0)});
  }
  std::printf("%s", t.ToAscii().c_str());
  if (show_regions) {
    for (const JsonValue& run : runs->array) {
      std::printf("\n%s:\n", run.GetString("label").c_str());
      const JsonValue* cores = run.Find("cores");
      if (cores != nullptr && !cores->array.empty()) {
        PrintRegions(cores->array.front());
      }
    }
  }
  return 0;
}

/// `top`: ranks the hottest subjects of a profile — tenants by p99,
/// classes by co-run service time, counter metrics by value. For profiles
/// without a server block, falls back to the costliest runs by cycles.
int Top(const JsonValue& profile, int n) {
  const size_t limit = n > 0 ? static_cast<size_t>(n) : 5;
  const JsonValue* server = profile.Find("server");
  bool printed = false;

  if (server != nullptr && server->is_object()) {
    const JsonValue* tenants = server->Find("tenants");
    if (tenants != nullptr && !tenants->array.empty()) {
      std::vector<const JsonValue*> rows;
      for (const JsonValue& t : tenants->array) rows.push_back(&t);
      std::stable_sort(rows.begin(), rows.end(),
                       [](const JsonValue* a, const JsonValue* b) {
                         return a->GetNumber("p99_ms") > b->GetNumber("p99_ms");
                       });
      TablePrinter t("top tenants by p99 latency");
      t.SetHeader({"tenant", "engine", "done", "p99 ms", "qps"});
      for (size_t i = 0; i < rows.size() && i < limit; ++i) {
        t.AddRow({rows[i]->GetString("name"), rows[i]->GetString("engine"),
                  TablePrinter::Fmt(rows[i]->GetNumber("completed"), 0),
                  TablePrinter::Fmt(rows[i]->GetNumber("p99_ms"), 2),
                  TablePrinter::Fmt(rows[i]->GetNumber("throughput_qps"), 1)});
      }
      std::printf("%s\n", t.ToAscii().c_str());
      printed = true;
    }
    const JsonValue* classes = server->Find("classes");
    if (classes != nullptr && !classes->array.empty()) {
      std::vector<const JsonValue*> rows;
      for (const JsonValue& c : classes->array) rows.push_back(&c);
      std::stable_sort(
          rows.begin(), rows.end(),
          [](const JsonValue* a, const JsonValue* b) {
            return a->GetNumber("corun_ms") > b->GetNumber("corun_ms");
          });
      TablePrinter t("top query classes by co-run service time");
      t.SetHeader({"class", "runs", "solo ms", "corun ms", "bw scale"});
      for (size_t i = 0; i < rows.size() && i < limit; ++i) {
        t.AddRow({rows[i]->GetString("label"),
                  TablePrinter::Fmt(rows[i]->GetNumber("executions"), 0),
                  TablePrinter::Fmt(rows[i]->GetNumber("solo_ms"), 2),
                  TablePrinter::Fmt(rows[i]->GetNumber("corun_ms"), 2),
                  TablePrinter::Fmt(rows[i]->GetNumber("avg_bw_scale"), 3)});
      }
      std::printf("%s\n", t.ToAscii().c_str());
      printed = true;
    }
  }

  const JsonValue* metrics = profile.Find("metrics");
  if (metrics != nullptr && metrics->is_array()) {
    struct CounterRow {
      std::string name;
      std::string label;
      double value = 0;
    };
    std::vector<CounterRow> rows;
    for (const JsonValue& family : metrics->array) {
      if (family.GetString("kind") != "counter") continue;
      const JsonValue* series = family.Find("series");
      if (series == nullptr) continue;
      for (const JsonValue& s : series->array) {
        const std::string label_key = s.GetString("label_key");
        rows.push_back({family.GetString("name"),
                        label_key.empty()
                            ? "-"
                            : label_key + "=" + s.GetString("label_value"),
                        s.GetNumber("value")});
      }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const CounterRow& a, const CounterRow& b) {
                       return a.value > b.value;
                     });
    if (!rows.empty()) {
      TablePrinter t("top counters");
      t.SetHeader({"metric", "label", "value"});
      for (size_t i = 0; i < rows.size() && i < limit; ++i) {
        t.AddRow({rows[i].name, rows[i].label,
                  TablePrinter::Fmt(rows[i].value, 0)});
      }
      std::printf("%s\n", t.ToAscii().c_str());
      printed = true;
    }
  }

  if (!printed) {
    // Plain bench profile: rank runs by modelled cycles.
    const JsonValue* runs = profile.Find("runs");
    std::vector<const JsonValue*> rows;
    for (const JsonValue& run : runs->array) rows.push_back(&run);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const JsonValue* a, const JsonValue* b) {
                       return RunCycles(*a) > RunCycles(*b);
                     });
    TablePrinter t("top runs by modelled cycles");
    t.SetHeader({"label", "threads", "Mcycles", "time ms"});
    for (size_t i = 0; i < rows.size() && i < limit; ++i) {
      t.AddRow({rows[i]->GetString("label"),
                TablePrinter::Fmt(rows[i]->GetNumber("threads"), 0),
                TablePrinter::Fmt(RunCycles(*rows[i]) / 1e6, 2),
                TablePrinter::Fmt(rows[i]->GetNumber("time_ms"), 2)});
    }
    std::printf("%s\n", t.ToAscii().c_str());
  }
  return 0;
}

/// Rebuilds the slice of a ServerRecord that SLO evaluation needs from a
/// profile's "server" block: subject names and the epoch windows.
uolap::obs::ServerRecord ServerRecordFromJson(const JsonValue& server) {
  uolap::obs::ServerRecord rec;
  rec.enabled = true;
  rec.admitted = static_cast<uint64_t>(server.GetNumber("admitted"));
  rec.rejected = static_cast<uint64_t>(server.GetNumber("rejected"));
  rec.shed = static_cast<uint64_t>(server.GetNumber("shed"));
  rec.timed_out = static_cast<uint64_t>(server.GetNumber("timed_out"));
  rec.failed = static_cast<uint64_t>(server.GetNumber("failed"));
  rec.retries = static_cast<uint64_t>(server.GetNumber("retries"));
  rec.shed_policy = server.GetString("shed_policy");
  rec.fault_plan = server.GetString("fault_plan");
  const JsonValue* tenants = server.Find("tenants");
  if (tenants != nullptr) {
    for (const JsonValue& t : tenants->array) {
      uolap::obs::TenantRecord tr;
      tr.name = t.GetString("name");
      rec.tenants.push_back(std::move(tr));
    }
  }
  const JsonValue* classes = server.Find("classes");
  if (classes != nullptr) {
    for (const JsonValue& c : classes->array) {
      uolap::obs::QueryClassRecord cr;
      cr.label = c.GetString("label");
      rec.classes.push_back(std::move(cr));
    }
  }
  auto windows = [](const JsonValue* list) {
    std::vector<uolap::obs::WindowStat> out;
    if (list == nullptr) return out;
    for (const JsonValue& w : list->array) {
      uolap::obs::WindowStat ws;
      ws.subject = w.GetString("subject");
      ws.completed = static_cast<uint64_t>(w.GetNumber("completed"));
      ws.p50_ms = w.GetNumber("p50_ms");
      ws.p95_ms = w.GetNumber("p95_ms");
      ws.p99_ms = w.GetNumber("p99_ms");
      out.push_back(std::move(ws));
    }
    return out;
  };
  const JsonValue* epochs = server.Find("epochs");
  if (epochs != nullptr) {
    for (const JsonValue& e : epochs->array) {
      uolap::obs::EpochRecord er;
      er.index = static_cast<int>(e.GetNumber("index"));
      er.start_ms = e.GetNumber("start_ms");
      er.end_ms = e.GetNumber("end_ms");
      er.completed = static_cast<uint64_t>(e.GetNumber("completed"));
      er.p50_ms = e.GetNumber("p50_ms");
      er.p95_ms = e.GetNumber("p95_ms");
      er.p99_ms = e.GetNumber("p99_ms");
      er.max_running = static_cast<uint32_t>(e.GetNumber("max_running"));
      er.max_queued = static_cast<uint32_t>(e.GetNumber("max_queued"));
      er.tenants = windows(e.Find("tenants"));
      er.classes = windows(e.Find("classes"));
      rec.epochs.push_back(std::move(er));
    }
  }
  return rec;
}

/// `slo`: evaluates SLO clauses against a profile's epoch windows.
/// Clause sources, in precedence order: --slo text, a --spec file (one
/// clause per line, '#' comments), the specs embedded in the profile.
int Slo(const JsonValue& profile, const std::string& slo_text,
        const std::string& spec_path) {
  const JsonValue* server = profile.Find("server");
  if (server == nullptr || !server->is_object()) {
    std::fprintf(stderr, "slo: profile has no server block\n");
    return 2;
  }
  std::string clauses = slo_text;
  if (clauses.empty() && !spec_path.empty()) {
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "slo: cannot read spec file %s\n",
                   spec_path.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      if (!clauses.empty()) clauses += ",";
      clauses += line;
    }
  }
  if (clauses.empty()) {
    const JsonValue* embedded = server->Find("slos");
    if (embedded != nullptr) {
      for (const JsonValue& s : embedded->array) {
        if (!clauses.empty()) clauses += ",";
        clauses += s.str;
      }
    }
  }
  if (clauses.empty()) {
    std::fprintf(stderr,
                 "slo: no SLO clauses (give --slo/--spec or serve with "
                 "--slo so the profile embeds them)\n");
    return 2;
  }
  auto specs = uolap::obs::ParseSloSpecs(clauses);
  if (!specs.ok()) {
    std::fprintf(stderr, "slo: %s\n", specs.status().ToString().c_str());
    return 2;
  }
  const uolap::obs::ServerRecord rec = ServerRecordFromJson(*server);
  if (rec.epochs.empty()) {
    std::fprintf(stderr,
                 "slo: profile has no SLO epochs (serve with "
                 "--epoch-ms)\n");
    return 2;
  }
  const std::vector<uolap::obs::SloResult> results =
      uolap::obs::EvaluateSlos(specs.value(), rec);
  TablePrinter t("SLO evaluation (" + std::to_string(rec.epochs.size()) +
                 " epochs)");
  t.SetHeader({"slo", "epochs", "worst", "first viol", "verdict"});
  bool failed = false;
  for (const uolap::obs::SloResult& r : results) {
    failed |= !r.pass;
    t.AddRow({r.spec.ToString(), std::to_string(r.epochs_evaluated),
              TablePrinter::Fmt(r.worst_value, 2),
              r.first_violation_epoch >= 0
                  ? std::to_string(r.first_violation_epoch)
                  : "-",
              !r.known_subject ? "FAIL (unknown subject)"
                               : (r.pass ? "PASS" : "FAIL")});
  }
  std::printf("%s%s\n", t.ToAscii().c_str(), failed ? "FAIL" : "PASS");
  return failed ? 1 : 0;
}

int Diff(const JsonValue& before, const JsonValue& after,
         double max_regress) {
  // Index the "after" runs by (label, threads).
  std::map<std::pair<std::string, int>, const JsonValue*> after_runs;
  for (const JsonValue& run : after.Find("runs")->array) {
    after_runs[{run.GetString("label"),
                static_cast<int>(run.GetNumber("threads"))}] = &run;
  }

  TablePrinter t("profile diff (modelled cycles, after vs before)");
  t.SetHeader({"label", "threads", "before Mcyc", "after Mcyc", "delta"});
  int matched = 0;
  int regressed = 0;
  double worst = 0;
  for (const JsonValue& run : before.Find("runs")->array) {
    const std::pair<std::string, int> key = {
        run.GetString("label"), static_cast<int>(run.GetNumber("threads"))};
    auto it = after_runs.find(key);
    if (it == after_runs.end()) {
      t.AddRow({key.first, TablePrinter::Fmt(key.second, 0),
                TablePrinter::Fmt(RunCycles(run) / 1e6, 2), "(missing)", ""});
      continue;
    }
    ++matched;
    const double b = RunCycles(run);
    const double a = RunCycles(*it->second);
    const double delta = b > 0 ? (a - b) / b : 0;
    worst = std::max(worst, delta);
    if (delta > max_regress) ++regressed;
    std::string delta_cell = delta >= 0 ? "+" : "";
    delta_cell += TablePrinter::Pct(delta, 1);
    if (delta > max_regress) delta_cell += "  REGRESSION";
    t.AddRow({key.first, TablePrinter::Fmt(key.second, 0),
              TablePrinter::Fmt(b / 1e6, 2), TablePrinter::Fmt(a / 1e6, 2),
              delta_cell});
    after_runs.erase(it);
  }
  for (const auto& [key, run] : after_runs) {
    t.AddRow({key.first, TablePrinter::Fmt(key.second, 0), "(missing)",
              TablePrinter::Fmt(RunCycles(*run) / 1e6, 2), "(new)"});
  }
  std::printf("%s", t.ToAscii().c_str());
  std::printf("%d matched runs, worst delta %+0.1f%%, gate %.1f%%: %s\n",
              matched, worst * 100, max_regress * 100,
              regressed == 0 ? "PASS" : "FAIL");
  return regressed == 0 ? 0 : 1;
}

/// `checkpoint`: validates and summarizes a uolap_serve checkpoint
/// directory (snapshots + CRC-framed journals) without resuming it.
/// Exits non-zero when the directory is unreadable or holds no snapshot
/// that a `--resume=1` run could restart from.
int Checkpoint(const std::string& dir) {
  namespace server = uolap::server;
  auto summary = server::InspectCheckpointDir(dir);
  if (!summary.ok()) {
    std::fprintf(stderr, "checkpoint: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  const server::CheckpointDirSummary& s = summary.value();

  TablePrinter snaps("snapshots in " + dir);
  snaps.SetHeader({"file", "bytes", "vtime ms", "submitted", "epochs",
                   "status"});
  int invalid_snapshots = 0;
  for (const server::SnapshotFileInfo& f : s.snapshots) {
    if (!f.valid) ++invalid_snapshots;
    snaps.AddRow({server::SnapshotFileName(f.index),
                  TablePrinter::Fmt(static_cast<double>(f.bytes), 0),
                  f.valid ? TablePrinter::Fmt(f.vtime_ms, 3) : "-",
                  f.valid
                      ? TablePrinter::Fmt(static_cast<double>(f.submitted), 0)
                      : "-",
                  f.valid
                      ? TablePrinter::Fmt(static_cast<double>(f.epochs_closed),
                                          0)
                      : "-",
                  f.valid ? "ok" : "INVALID: " + f.error});
  }
  std::printf("%s\n", snaps.ToAscii().c_str());

  if (!s.journals.empty()) {
    TablePrinter wals("journals");
    wals.SetHeader({"file", "bytes", "valid bytes", "records", "tail"});
    for (const server::JournalFileInfo& f : s.journals) {
      wals.AddRow({server::JournalFileName(f.index),
                   TablePrinter::Fmt(static_cast<double>(f.bytes), 0),
                   TablePrinter::Fmt(static_cast<double>(f.valid_bytes), 0),
                   TablePrinter::Fmt(static_cast<double>(f.records), 0),
                   f.torn_tail ? "TORN: " + f.tail_error : "clean"});
    }
    std::printf("%s\n", wals.ToAscii().c_str());
  }

  if (invalid_snapshots > 0) {
    std::fprintf(stderr, "checkpoint: %d invalid snapshot(s) in %s\n",
                 invalid_snapshots, dir.c_str());
  }
  if (s.resume_index < 0) {
    std::fprintf(stderr, "checkpoint: %s has no resumable snapshot\n",
                 dir.c_str());
    return 1;
  }
  std::printf("resume point: %s\n",
              server::SnapshotFileName(s.resume_index).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];

  // Split the remaining argv into flags (--x=y) and positional paths.
  std::vector<std::string> paths;
  std::vector<char*> flag_argv = {argv[0]};
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--", 0) == 0) {
      flag_argv.push_back(argv[i]);
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  FlagSet flags;
  const auto parsed =
      flags.Parse(static_cast<int>(flag_argv.size()), flag_argv.data());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }

  if (mode == "validate") {
    if (paths.empty()) return Usage();
    bool ok = true;
    for (const std::string& path : paths) ok = ValidateFile(path) && ok;
    return ok ? 0 : 1;
  }
  if (mode == "summary") {
    if (paths.size() != 1) return Usage();
    JsonValue profile;
    if (!LoadProfile(paths[0], &profile)) return 1;
    return Summary(profile, flags.GetBool("regions", false),
                   flags.GetString("section", ""));
  }
  if (mode == "top") {
    if (paths.size() != 1) return Usage();
    JsonValue profile;
    if (!LoadProfile(paths[0], &profile)) return 1;
    return Top(profile, static_cast<int>(flags.GetInt("n", 5)));
  }
  if (mode == "slo") {
    if (paths.size() != 1) return Usage();
    JsonValue profile;
    if (!LoadProfile(paths[0], &profile)) return 1;
    return Slo(profile, flags.GetString("slo", ""),
               flags.GetString("spec", ""));
  }
  if (mode == "diff") {
    if (paths.size() != 2) return Usage();
    JsonValue before;
    JsonValue after;
    if (!LoadProfile(paths[0], &before)) return 1;
    if (!LoadProfile(paths[1], &after)) return 1;
    return Diff(before, after, flags.GetDouble("max-regress", 0.05));
  }
  if (mode == "checkpoint") {
    if (paths.size() != 1) return Usage();
    return Checkpoint(paths[0]);
  }
  return Usage();
}
