#include "server/serving.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/multicore.h"
#include "engine/engine.h"
#include "obs/attribution.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "server/checkpoint.h"
#include "server/journal.h"
#include "server/loop_state.h"

namespace uolap::server {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Remaining-work threshold below which an instance counts as complete
/// (work is a fraction in [0, 1]; the epoch length is chosen so the
/// finishing instance lands within rounding error of zero).
constexpr double kDoneEps = 1e-9;
/// Stream salt separating backoff-jitter draws from the fault plan's own
/// hash chains ("BACKOFFS" in ASCII).
constexpr uint64_t kBackoffSalt = 0x4241434B4F464653ULL;

/// Exponential draw with the given mean (<= 0 mean draws 0).
double ExpDraw(Rng& rng, double mean) {
  if (mean <= 0) return 0;
  // NextDouble() is in [0, 1), so the argument stays in (0, 1].
  return -std::log(1.0 - rng.NextDouble()) * mean;
}

/// Sorts `values` and stores their nearest-rank p50/p95/p99 in `out` (any
/// record with p50_ms/p95_ms/p99_ms fields; an empty series reports 0).
template <typename Record>
void SetPercentiles(std::vector<double>& values, Record& out) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  auto nearest_rank = [&values, n](double q) {  // q in (0, 1]
    auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::min(std::max<size_t>(rank, 1), n);
    return n == 0 ? 0.0 : values[rank - 1];
  };
  out.p50_ms = nearest_rank(0.50);
  out.p95_ms = nearest_rank(0.95);
  out.p99_ms = nearest_rank(0.99);
}

/// One epoch's per-subject latency windows (sorts each series in place).
std::vector<obs::WindowStat> WindowStats(
    std::map<std::string, std::vector<double>>& lat) {
  std::vector<obs::WindowStat> out;
  for (auto& [subject, values] : lat) {
    obs::WindowStat w;
    w.subject = subject;
    w.completed = values.size();
    SetPercentiles(values, w);
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

Server::Server(const ServerConfig& config, engine::EngineRegistry& registry,
               engine::ParallelExecutor* executor)
    : config_(config), registry_(registry), executor_(executor) {
  UOLAP_CHECK_MSG(config_.cores >= 1, "server needs at least one core");
  UOLAP_CHECK_MSG(
      static_cast<uint32_t>(config_.cores) <=
          config_.machine.cores_per_socket,
      "server core pool exceeds the machine's cores per socket");
}

void Server::AddTenant(TenantConfig tenant) {
  UOLAP_CHECK_MSG(!tenant.catalog.empty(), "tenant catalog is empty");
  UOLAP_CHECK_MSG(registry_.Has(tenant.engine),
                  "tenant references an unknown engine key");
  const engine::OlapEngine& eng = *registry_.Get(tenant.engine).value();
  for (const engine::QuerySpec& spec : tenant.catalog) {
    UOLAP_CHECK_MSG(eng.Supports(spec.id),
                    "tenant catalog contains an unsupported query");
  }
  const bool open = tenant.arrival_qps > 0;
  const bool closed = tenant.concurrency > 0;
  UOLAP_CHECK_MSG(open != closed,
                  "tenant must be open-loop (arrival_qps) xor closed-loop "
                  "(concurrency)");
  tenants_.push_back(std::move(tenant));
  classes_ready_ = false;
}

void Server::EnsureClasses() {
  if (classes_ready_) return;
  // Classes are numbered in tenant/catalog order, deduplicated by label,
  // so the set of machine executions and every class index are a
  // deterministic function of the tenant list (and each class is executed
  // exactly once per Server). Numbering is serial; only the simulations
  // run on the executor.
  std::map<std::string, size_t> by_label;
  for (const QueryClass& cls : classes_) {
    by_label[cls.label] = static_cast<size_t>(&cls - classes_.data());
  }
  auto intern = [this, &by_label](const std::string& engine_key,
                                  const engine::QuerySpec& spec) {
    const std::string label = engine_key + "/" + spec.Label();
    auto [it, inserted] = by_label.try_emplace(label, classes_.size());
    if (inserted) {
      QueryClass cls;
      cls.label = label;
      cls.engine = engine_key;
      cls.spec = spec;
      classes_.push_back(std::move(cls));
    }
    return it->second;
  };
  const size_t first_new = classes_.size();
  tenant_classes_.clear();
  tenant_classes_.reserve(tenants_.size());
  for (const TenantConfig& tenant : tenants_) {
    std::vector<size_t> indices;
    indices.reserve(tenant.catalog.size());
    for (const engine::QuerySpec& spec : tenant.catalog) {
      indices.push_back(intern(tenant.engine, spec));
    }
    tenant_classes_.push_back(std::move(indices));
  }
  SimulateClasses(first_new);
  // Brown-out wiring: when brown-out is configured, resolve (and
  // solo-profile) the cheaper class for every class whose engine has a
  // downgrade mapping that supports the query. The two solo answers must
  // agree — the differential check that a brown-out degrades cost, never
  // correctness. Gated on the config so default runs simulate exactly the
  // classes they always did (bit-determinism).
  //
  // Resolved in waves: each wave visits the classes the previous one
  // appended, in index order, and simulates the downgrade classes it
  // appends together, so a chain (a -> b -> c) numbers its classes as a
  // one-pass walk over the growing list would.
  if (config_.brownout.queue_depth > 0) {
    for (size_t begin = 0; begin < classes_.size();) {
      const size_t end = classes_.size();
      std::vector<std::pair<size_t, size_t>> links;  // (class, downgrade)
      for (size_t i = begin; i < end; ++i) {
        auto mapped = config_.brownout.downgrade.find(classes_[i].engine);
        if (mapped == config_.brownout.downgrade.end()) continue;
        const std::string down_key = mapped->second;
        if (down_key == classes_[i].engine) continue;
        UOLAP_CHECK_MSG(registry_.Has(down_key),
                        "brown-out downgrade engine is not registered");
        const engine::OlapEngine& down = *registry_.Get(down_key).value();
        if (!down.Supports(classes_[i].spec.id)) continue;
        // Copied: intern() may grow classes_.
        const engine::QuerySpec spec = classes_[i].spec;
        links.emplace_back(i, intern(down_key, spec));
      }
      SimulateClasses(end);
      for (const auto& [i, down] : links) {
        UOLAP_CHECK_MSG(classes_[i].result == classes_[down].result,
                        "brown-out downgrade changed the query answer");
        classes_[i].downgrade = static_cast<int>(down);
      }
      begin = end;
    }
  }
  classes_ready_ = true;
}

void Server::SimulateClasses(size_t first) {
  if (first >= classes_.size()) return;
  // The registry constructs engines lazily; resolve every key here, on
  // this thread, so the simulations below only share const engines.
  std::vector<const engine::OlapEngine*> engines;
  engines.reserve(classes_.size() - first);
  for (size_t i = first; i < classes_.size(); ++i) {
    engines.push_back(registry_.Get(classes_[i].engine).value());
  }
  auto simulate = [this, first, &engines](size_t k) {
    SimulateClass(*engines[k], &classes_[first + k]);
  };
  if (executor_ != nullptr) {
    executor_->Run(engines.size(), simulate);
  } else {
    for (size_t k = 0; k < engines.size(); ++k) simulate(k);
  }
}

void Server::SimulateClass(const engine::OlapEngine& eng,
                           QueryClass* cls) const {
  // The solo execution: the engine really runs the query on a fresh
  // single-core machine through the dispatch API, profiled per region —
  // the profiling harness's own recipe.
  auto run_query = [&eng, cls](core::Machine& machine) {
    engine::Workers w(machine.core(0));
    cls->result = eng.Run(cls->spec, w).value();
  };
  cls->solo_run = obs::ProfileRun(config_.machine, /*threads=*/1,
                                  config_.sample_interval_instructions,
                                  "serve/" + cls->label, run_query);

  const core::CoreCounters& counters = cls->solo().counters;
  cls->bytes_seq = static_cast<double>(counters.mem.DramSeqStreamBytes());
  cls->bytes_rand = static_cast<double>(counters.mem.dram_demand_bytes_rand);
  // Cancellation points (DESIGN.md §9): a timed-out query keeps running —
  // and contending — until the next top-level operator-region boundary of
  // its class, modeled as the cumulative Top-Down cycle fractions of the
  // solo run's depth-1 regions. A class without regions cancels only at
  // completion (and so effectively runs to the end, merely late).
  const obs::RegionTree& tree = cls->solo_run.cores[0].regions;
  const double solo_cycles = cls->solo().total_cycles;
  if (solo_cycles > 0 && !tree.nodes.empty()) {
    double cum = 0;
    for (const int child : tree.root().children) {
      cum += tree.nodes[static_cast<size_t>(child)].incl_cycles.Total();
      const double frac = cum / solo_cycles;
      if (frac > kDoneEps && frac < 1.0 - kDoneEps) {
        cls->cancel_fractions.push_back(frac);
      }
    }
  }
  cls->cancel_fractions.push_back(1.0);
}

/// One serving run (DESIGN.md §6): the loop's serializable state plus its
/// event handlers. Run() drives the loop; the handlers read and write
/// LoopState directly, so a snapshot is a copy of `st_` and a resume is an
/// assignment to it.
class Server::ServeLoop {
 public:
  explicit ServeLoop(const Server& server)
      : config_(server.config_),
        ck_(config_.checkpoint),
        adm_(config_.admission),
        tenants_(server.tenants_),
        classes_(server.classes_),
        tenant_classes_(server.tenant_classes_),
        freq_(config_.machine.freq_ghz),
        model_(config_.machine),
        epoch_cycles_(config_.epoch_ms > 0 ? Cycles(config_.epoch_ms) : 0),
        metrics_(config_.metrics != nullptr ? *config_.metrics
                                            : obs::MetricsRegistry::Global()),
        ctl_(config_.cores),
        cap_(tenants_.size()),
        zipf_cdf_(tenants_.size()) {
    st_.tenants.resize(tenants_.size());
    for (size_t t = 0; t < tenants_.size(); ++t) {
      const TenantConfig& tc = tenants_[t];
      TenantLoopState& ts = st_.tenants[t];
      ts.rng.Seed(tc.seed != 0 ? tc.seed : Mix64(0x5345525645ULL + t));
      cap_[t] = tc.max_queries != 0 ? tc.max_queries
                                    : config_.default_max_queries;
      // Zipf CDF over the catalog order: P(i) proportional to 1/(i+1)^s.
      std::vector<double>& cdf = zipf_cdf_[t];
      double norm = 0;
      cdf.reserve(tc.catalog.size());
      for (size_t i = 0; i < tc.catalog.size(); ++i) {
        norm += std::pow(static_cast<double>(i + 1), -tc.zipf_s);
        cdf.push_back(norm);
      }
      for (double& c : cdf) c /= norm;
      if (tc.arrival_qps > 0) {
        ts.next_open_arrival = Cycles(ExpDraw(ts.rng, 1000.0 / tc.arrival_qps));
      } else {
        ts.client_wake.resize(static_cast<size_t>(tc.concurrency));
        for (double& wake : ts.client_wake) {
          wake = Cycles(ExpDraw(ts.rng, tc.think_ms));
        }
      }
    }
    st_.classes.resize(classes_.size());
    st_.slots.assign(static_cast<size_t>(config_.cores), QueryInstance{});
    for (size_t i = 0; i < classes_.size(); ++i) {
      ctl_.SeedClass(i, classes_[i].solo().time_ms);
    }
    if (ck_.enabled()) {
      config_fingerprint_ = ServingConfigFingerprint(config_, tenants_);
      for (const QueryClass& qc : classes_) {
        class_digest_ = Crc32c(qc.label.data(), qc.label.size(), class_digest_);
        const double vals[3] = {static_cast<double>(qc.solo().total_cycles),
                                qc.bytes_seq, qc.bytes_rand};
        class_digest_ = Crc32c(vals, sizeof(vals), class_digest_);
      }
    }
  }

  StatusOr<ServeResult> Run() {
    if (ck_.enabled() && ck_.resume) {
      // Recovery re-enters the loop at the exact top-of-loop point the
      // snapshot was written at.
      Status resumed = Resume();
      if (!resumed.ok()) return resumed;
    } else {
      ProcessArrivals();  // admit anything due at virtual time zero
      SampleQueue();
      // Snapshot 0 is written at loop entry, after the time-zero arrivals,
      // so every snapshot (including the first) captures a top-of-loop
      // state and resume re-enters uniformly.
      snapshot_pending_ = ck_.enabled();
    }

    while (true) {
      if (!ck_error_.ok()) return ck_error_;
      if (snapshot_pending_) {
        snapshot_pending_ = false;
        Status snapped = WriteSnapshot();
        if (!snapped.ok()) return snapped;
      }
      if (ck_.crash_at_ms > 0 && Ms(st_.vtime) >= ck_.crash_at_ms) {
        // Deterministic self-kill for crash testing: no destructors, no
        // atexit handlers — the closest in-process stand-in for SIGKILL.
        std::fprintf(stderr, "# crash-at: exiting at virtual %.3f ms\n",
                     Ms(st_.vtime));
        std::_Exit(137);
      }
      PromoteRetries();
      Dispatch();
      const double next_input = NextInput();
      if (running_.empty()) {
        if (next_input == kInf) break;  // drained: no work, arrivals, retries
        st_.vtime = std::max(st_.vtime, next_input);
        RollEpochs(st_.vtime);
      } else {
        AdvanceFluid(next_input);
        CompleteSlots();  // completions first, then same-instant arrivals
      }
      ProcessArrivals();
      SampleQueue();
    }

    if (!ck_error_.ok()) return ck_error_;
    if (ck_.enabled()) {
      if (expected_pos_ < expected_events_.size()) {
        return Status::Internal(
            "journal replay incomplete: " +
            std::to_string(expected_events_.size() - expected_pos_) +
            " journaled record(s) were never re-derived");
      }
      Status closed = journal_.Close();
      if (!closed.ok()) return closed;
    }
    return Assemble();
  }

 private:
  using Outcome = engine::QueryOutcome;

  // Returns false when the query was rejected at admission (the caller's
  // closed-loop client got its next wake from Terminal()).
  bool Submit(size_t t, int client) {
    // Draw a catalog index from the Zipf CDF; the tenant's catalog maps it
    // to its class.
    const std::vector<double>& cdf = zipf_cdf_[t];
    const double u = st_.tenants[t].rng.NextDouble();
    size_t entry = 0;
    while (entry + 1 < cdf.size() && u >= cdf[entry]) ++entry;
    QueryInstance inst;
    inst.tenant = static_cast<int>(t);
    inst.cls = tenant_classes_[t][entry];
    inst.client = client;
    // Global admission order: one number per submission, all tenants.
    for (const TenantLoopState& ts : st_.tenants) inst.seq += ts.submitted;
    inst.arrival = st_.vtime;
    const double deadline_ms = adm_.default_deadline_ms;
    if (deadline_ms > 0) inst.deadline = st_.vtime + Cycles(deadline_ms);
    ++st_.tenants[t].submitted;
    // Deadline-aware admission: refuse on arrival when the load model
    // (queued work draining across the pool, then one mean service time)
    // predicts a deadline miss.
    const bool reject_on = adm_.policy == ShedPolicy::kReject ||
                           adm_.policy == ShedPolicy::kBoth;
    if (reject_on && deadline_ms > 0 &&
        ctl_.WouldMissDeadline(inst.cls, st_.queued_est_ms, deadline_ms)) {
      Terminal(inst, Outcome::kRejected, /*core=*/-1);
      return false;
    }
    inst.est_ms = ctl_.MeanServiceMs(inst.cls);
    st_.queued_est_ms += inst.est_ms;
    st_.queue.push_back(inst);
    Journal(JournalEventType::kAdmit, inst);
    return true;
  }

  // Processes every arrival stream whose next event is due. Tenants are
  // visited in index order and closed-loop clients in client order, so
  // ties admit in a deterministic order.
  void ProcessArrivals() {
    for (size_t t = 0; t < tenants_.size(); ++t) {
      const TenantConfig& tc = tenants_[t];
      TenantLoopState& ts = st_.tenants[t];
      if (tc.arrival_qps > 0) {
        while (ts.submitted < cap_[t] && ts.next_open_arrival <= st_.vtime) {
          Submit(t, /*client=*/-1);
          ts.next_open_arrival +=
              Cycles(ExpDraw(ts.rng, 1000.0 / tc.arrival_qps));
        }
        if (ts.submitted >= cap_[t]) ts.next_open_arrival = kInf;
        continue;
      }
      for (size_t c = 0; c < ts.client_wake.size(); ++c) {
        if (ts.client_wake[c] > st_.vtime) continue;
        if (ts.submitted < cap_[t]) {
          if (Submit(t, static_cast<int>(c))) {
            ts.client_wake[c] = kInf;  // sleeps until its query drains
          }
          // Rejected: Terminal() scheduled the client's next think wake.
        } else {
          ts.client_wake[c] = kInf;  // retired
        }
      }
    }
  }

  // Promotes due retries to the queue tail, in (ready, seq) order — retried
  // queries requeue like fresh work, deterministically.
  void PromoteRetries() {
    std::vector<QueryInstance>& retries = st_.retry_queue;
    if (retries.empty()) return;
    std::sort(retries.begin(), retries.end(),
              [](const QueryInstance& a, const QueryInstance& b) {
                return a.retry_ready != b.retry_ready
                           ? a.retry_ready < b.retry_ready
                           : a.seq < b.seq;
              });
    size_t due = 0;
    while (due < retries.size() && retries[due].retry_ready <= st_.vtime) {
      QueryInstance inst = retries[due++];
      inst.est_ms = ctl_.MeanServiceMs(inst.cls);
      st_.queued_est_ms += inst.est_ms;
      st_.queue.push_back(inst);
    }
    retries.erase(retries.begin(), retries.begin() + static_cast<long>(due));
  }

  // Fills free core slots from the FIFO queue, then collects the running set.
  void Dispatch() {
    for (QueryInstance& slot : st_.slots) {
      if (slot.tenant >= 0) continue;
      while (st_.queue_head < st_.queue.size()) {
        const auto depth =
            static_cast<uint32_t>(st_.queue.size() - st_.queue_head);
        QueryInstance inst = st_.queue[st_.queue_head++];
        if (Start(inst, depth)) {
          slot = inst;
          break;
        }
      }
    }
    if (st_.queue_head > 0 && st_.queue_head == st_.queue.size()) {
      st_.queue.clear();
      st_.queue_head = 0;
    }
    running_.clear();
    for (QueryInstance& slot : st_.slots) {
      if (slot.tenant >= 0) running_.push_back(&slot);
    }
  }

  // Pop-time policies, in order: an already-expired deadline times the query
  // out, the shed policy drops predicted deadline misses, brown-out swaps in
  // the cheaper class, and the fault plan decides this attempt's fate.
  // Returns false when the query was dropped instead of started.
  bool Start(QueryInstance& inst, uint32_t depth) {
    st_.queued_est_ms = std::max(0.0, st_.queued_est_ms - inst.est_ms);
    if (inst.deadline < kInf && st_.vtime >= inst.deadline) {
      Terminal(inst, Outcome::kTimedOut, /*core=*/-1);
      return false;
    }
    const bool shed_on = adm_.policy == ShedPolicy::kShed ||
                         adm_.policy == ShedPolicy::kBoth;
    if (shed_on && inst.deadline < kInf &&
        ctl_.WouldMissDeadline(inst.cls, /*queued_work_ms=*/0,
                               Ms(inst.deadline - st_.vtime))) {
      Terminal(inst, Outcome::kShed, /*core=*/-1);
      return false;
    }
    TenantLoopState& ts = st_.tenants[static_cast<size_t>(inst.tenant)];
    if (config_.brownout.queue_depth > 0 &&
        depth >= static_cast<uint32_t>(config_.brownout.queue_depth) &&
        classes_[inst.cls].downgrade >= 0) {
      inst.cls = static_cast<size_t>(classes_[inst.cls].downgrade);
      ++ts.brownout_downgrades;
    }
    if (config_.faults.enabled()) {
      const auto fault_epoch =
          static_cast<uint64_t>(Ms(st_.vtime) / config_.faults.epoch_ms);
      const FaultDecision draw =
          EvalFault(config_.faults, inst.tenant, fault_epoch,
                    inst.seq * 1024 + static_cast<uint64_t>(inst.attempt));
      inst.will_fail = draw.fail;
      inst.slow = draw.slow_factor;
      if (draw.fail) ++ts.faults_injected;
      if (draw.slow_factor > 1.0) ++ts.slowdowns_injected;
    }
    inst.start = st_.vtime;
    return true;
  }

  // Earliest pending input: an open-loop arrival, a closed-loop wake, or a
  // retry whose backoff expires.
  double NextInput() const {
    double next = kInf;
    for (size_t t = 0; t < tenants_.size(); ++t) {
      const TenantLoopState& ts = st_.tenants[t];
      if (ts.submitted >= cap_[t]) continue;
      next = std::min(next, ts.next_open_arrival);
      for (const double wake : ts.client_wake) next = std::min(next, wake);
    }
    for (const QueryInstance& inst : st_.retry_queue) {
      next = std::min(next, inst.retry_ready);
    }
    return next;
  }

  // The bandwidth scale at which the running set's aggregate DRAM byte
  // rate fits the socket (core::SolveContention), leaving each instance's
  // service-time total at that scale in g_.
  double SolveScale() {
    double seq_bytes = 0;
    double rand_bytes = 0;
    for (const QueryInstance* inst : running_) {
      seq_bytes += classes_[inst->cls].bytes_seq;
      rand_bytes += classes_[inst->cls].bytes_rand;
    }
    g_.assign(running_.size(), 0.0);
    auto demand_at = [this](double scale) {
      double demand_bpc = 0;
      for (size_t i = 0; i < running_.size(); ++i) {
        const QueryClass& cls = classes_[running_[i]->cls];
        // A fault-plan slowdown dilates the class's service time, which
        // also thins its DRAM byte rate proportionally.
        const double cycles =
            scale == 1.0
                ? cls.solo().total_cycles
                : model_.Analyze(cls.solo().counters, scale).total_cycles;
        g_[i] = cycles * running_[i]->slow;
        demand_bpc += (cls.bytes_seq + cls.bytes_rand) / g_[i];
      }
      return demand_bpc;
    };
    return core::SolveContention(config_.machine, seq_bytes, rand_bytes,
                                 demand_at)
        .scale;
  }

  // Advances virtual time to the next event — the earliest of the next
  // input, a completion, a cancellation boundary, or a running query's
  // deadline — draining every running query's work at the contended rate,
  // then marks the queries whose deadline that instant crossed.
  void AdvanceFluid(double next_input) {
    const double scale = SolveScale();
    double next_event = next_input;
    for (size_t i = 0; i < running_.size(); ++i) {
      const QueryInstance& q = *running_[i];
      // A cancelling query stops at its boundary fraction, not at drain.
      const double target = q.cancel_remaining >= 0 ? q.cancel_remaining : 0;
      next_event =
          std::min(next_event, st_.vtime + (q.remaining - target) * g_[i]);
      // A running query crossing its deadline is an event: it must be
      // marked for boundary cancellation at that instant.
      if (q.cancel_remaining < 0 && q.deadline < kInf &&
          q.deadline > st_.vtime) {
        next_event = std::min(next_event, q.deadline);
      }
    }
    const double dt = next_event - st_.vtime;
    if (dt > 0) {
      double rate_bpc = 0;
      for (size_t i = 0; i < running_.size(); ++i) {
        const QueryClass& cls = classes_[running_[i]->cls];
        rate_bpc += (cls.bytes_seq + cls.bytes_rand) / g_[i];
        running_[i]->remaining -= dt / g_[i];
        running_[i]->scale_cycles += scale * dt;
        running_[i]->run_cycles += dt;
      }
      st_.total_bytes += rate_bpc * dt;
      st_.peak_gbps = std::max(st_.peak_gbps, rate_bpc * freq_);
      if (scale < 0.999) st_.saturated = true;
    }
    st_.vtime = next_event;
    RollEpochs(st_.vtime);

    // Deadline crossings: a running query past its deadline is marked to
    // cancel at the next top-level operator-region boundary of its class —
    // it keeps running (and contending) until its progress reaches that
    // fraction. A boundary of 1.0 means the query finishes late instead.
    for (QueryInstance& slot : st_.slots) {
      if (slot.tenant < 0 || slot.cancel_remaining >= 0) continue;
      if (slot.deadline == kInf || st_.vtime < slot.deadline) continue;
      const double progress = 1.0 - slot.remaining;
      double boundary = 1.0;
      for (const double f : classes_[slot.cls].cancel_fractions) {
        if (f > progress + kDoneEps) {
          boundary = f;
          break;
        }
      }
      slot.cancel_remaining = 1.0 - boundary;
    }
  }

  // Settles every slot whose attempt ended, in slot order, and frees it.
  void CompleteSlots() {
    for (size_t i = 0; i < st_.slots.size(); ++i) {
      QueryInstance& slot = st_.slots[i];
      if (slot.tenant < 0) continue;
      const bool done = slot.remaining <= kDoneEps;
      const bool cancelled = slot.cancel_remaining >= 0 &&
                             slot.remaining <= slot.cancel_remaining + kDoneEps;
      if (!done && !cancelled) continue;
      const int core = static_cast<int>(i);
      if (done && slot.will_fail) {
        // The attempt ran to completion and then failed transiently (the
        // full contention cost was paid). Retry with backoff if budget
        // remains, else the query fails terminally.
        if (slot.attempt <= config_.retry.max_retries) {
          Retry(slot);
        } else {
          Terminal(slot, Outcome::kFailed, core);
        }
      } else if (!done) {
        Terminal(slot, Outcome::kTimedOut, core);
      } else {
        Complete(slot, core);
      }
      slot = QueryInstance{};  // frees the slot (tenant = -1)
    }
  }

  void Complete(const QueryInstance& inst, int core) {
    st_.completions.push_back(
        CompletionRecord{.tenant = static_cast<uint32_t>(inst.tenant),
                         .cls = static_cast<uint32_t>(inst.cls),
                         .latency_ms = Ms(st_.vtime - inst.arrival),
                         .queue_wait_ms = Ms(inst.start - inst.arrival)});
    ClassLoopStats& cs = st_.classes[inst.cls];
    ++cs.executions;
    cs.service_cycles += st_.vtime - inst.start;
    cs.scale_cycles += inst.scale_cycles;
    cs.run_cycles += inst.run_cycles;
    ctl_.RecordCompletion(inst.cls, Ms(st_.vtime - inst.start));
    Finish(inst, Outcome::kOk, JournalEventType::kComplete, core);
  }

  void Retry(const QueryInstance& inst) {
    Rng jitter_rng(Mix64(config_.faults.seed ^ kBackoffSalt) +
                   inst.seq * 1024 + static_cast<uint64_t>(inst.attempt));
    const double backoff_ms =
        RetryBackoffMs(inst.attempt, jitter_rng.NextDouble());
    st_.tenants[static_cast<size_t>(inst.tenant)].backoff_ms.push_back(
        backoff_ms);
    QueryInstance again = inst;
    ++again.attempt;
    again.remaining = 1.0;
    again.cancel_remaining = -1;
    again.will_fail = false;
    again.slow = 1.0;
    again.scale_cycles = 0;
    again.run_cycles = 0;
    again.retry_ready = st_.vtime + Cycles(backoff_ms);
    st_.retry_queue.push_back(again);
    Journal(JournalEventType::kRetry, again);
  }

  // Terminal non-completion outcomes (rejected/shed/timed_out/failed):
  // count, then Finish(). `core` is the slot the attempt ran on, -1 when
  // it never started.
  void Terminal(const QueryInstance& inst, Outcome outcome, int core) {
    struct Disposition {
      Outcome outcome;
      uint64_t TenantLoopState::*count;
      JournalEventType event;
    };
    static constexpr Disposition kDispositions[] = {
        {Outcome::kRejected, &TenantLoopState::rejected,
         JournalEventType::kReject},
        {Outcome::kShed, &TenantLoopState::shed, JournalEventType::kShed},
        {Outcome::kTimedOut, &TenantLoopState::timed_out,
         JournalEventType::kTimeout},
        {Outcome::kFailed, &TenantLoopState::failed, JournalEventType::kFail},
    };
    for (const Disposition& d : kDispositions) {
      if (d.outcome != outcome) continue;
      ++(st_.tenants[static_cast<size_t>(inst.tenant)].*d.count);
      Finish(inst, outcome, d.event, core);
    }
  }

  // The tail every disposition shares: journal the event, record the span
  // of a sampled query, and schedule a closed-loop client's next think wake
  // (a failed query still releases its client).
  void Finish(const QueryInstance& inst, Outcome outcome,
              JournalEventType event, int core) {
    Journal(event, inst);
    const auto t = static_cast<size_t>(inst.tenant);
    // Head sampling: every N-th query in global admission order.
    if (config_.trace_sample_n > 0 && inst.seq % config_.trace_sample_n == 0) {
      st_.spans.push_back(obs::QuerySpan{
          .seq = inst.seq,
          .tenant = tenants_[t].name,
          .cls = classes_[inst.cls].label,
          .arrival_ms = Ms(inst.arrival),
          .start_ms = Ms(core >= 0 ? inst.start : st_.vtime),
          .end_ms = Ms(st_.vtime),
          .core = core,
          .outcome = std::string(engine::QueryOutcomeName(outcome)),
          .attempts = static_cast<uint32_t>(inst.attempt)});
    }
    if (inst.client >= 0) {
      TenantLoopState& ts = st_.tenants[t];
      ts.client_wake[static_cast<size_t>(inst.client)] =
          st_.vtime + Cycles(ExpDraw(ts.rng, tenants_[t].think_ms));
    }
  }

  // SLO epoch windows: fixed-width virtual-time buckets over the
  // completions that land inside them, plus occupancy extremes. Epochs are
  // closed (and their percentiles frozen) the moment virtual time crosses
  // the boundary, so a completion exactly on a boundary starts the next
  // window — a deterministic tie rule.
  void RollEpochs(double now) {
    if (epoch_cycles_ <= 0) return;
    while (now >= st_.epoch_start + epoch_cycles_) {
      CloseEpoch(st_.epoch_start + epoch_cycles_);
    }
  }

  void CloseEpoch(double end_cycles) {
    EpochAccState& acc = st_.acc;
    obs::EpochRecord e;
    e.index = static_cast<int>(st_.epochs.size());
    e.start_ms = Ms(st_.epoch_start);
    e.end_ms = Ms(end_cycles);
    // The window's completions, all traffic and grouped by tenant name and
    // by class label.
    std::vector<double> all;
    std::map<std::string, std::vector<double>> by_tenant;
    std::map<std::string, std::vector<double>> by_class;
    for (size_t i = acc.first_completion; i < st_.completions.size(); ++i) {
      const CompletionRecord& c = st_.completions[i];
      all.push_back(c.latency_ms);
      by_tenant[tenants_[c.tenant].name].push_back(c.latency_ms);
      by_class[classes_[c.cls].label].push_back(c.latency_ms);
    }
    e.completed = all.size();
    SetPercentiles(all, e);
    e.max_running = acc.max_running;
    e.max_queued = acc.max_queued;
    e.tenants = WindowStats(by_tenant);
    e.classes = WindowStats(by_class);
    st_.epochs.push_back(std::move(e));
    // Occupancy persists across the boundary; seed the new window's
    // extremes with the level it inherits — the last occupancy sample.
    acc = EpochAccState{.first_completion = st_.completions.size()};
    if (!st_.timeline.empty()) {
      acc.max_running = st_.timeline.back().running;
      acc.max_queued = st_.timeline.back().queued;
    }
    st_.epoch_start = end_cycles;
    if (ck_.enabled() &&
        st_.epochs.size() % static_cast<size_t>(ck_.every_epochs) == 0) {
      // Snapshot at the next top-of-loop, once the boundary's completions
      // and arrivals are settled.
      snapshot_pending_ = true;
    }
  }

  // Records the current occupancy: window extremes, and a timeline sample
  // whenever the level changed.
  void SampleQueue() {
    uint32_t running = 0;
    for (const QueryInstance& inst : st_.slots) {
      running += inst.tenant >= 0 ? 1 : 0;
    }
    const auto queued =
        static_cast<uint32_t>(st_.queue.size() - st_.queue_head);
    st_.acc.max_running = std::max(st_.acc.max_running, running);
    st_.acc.max_queued = std::max(st_.acc.max_queued, queued);
    if (!st_.timeline.empty() && st_.timeline.back().running == running &&
        st_.timeline.back().queued == queued) {
      return;
    }
    st_.timeline.push_back(obs::QueueSample{Ms(st_.vtime), running, queued});
  }

  // Emits one per-query event. Fresh runs append it to the live journal; a
  // resumed run first *verifies* re-derived events against the crashed
  // run's journal (replay-as-verification: the runtime is deterministic, so
  // any divergence means the checkpoint belongs to a different
  // configuration) and only then starts appending new ones.
  void Journal(JournalEventType type, const QueryInstance& inst) {
    if (!ck_.enabled()) return;
    const std::string payload = EncodeJournalEvent(
        JournalEvent{type, inst.seq, inst.tenant,
                     static_cast<uint32_t>(inst.attempt), Ms(st_.vtime)});
    if (expected_pos_ < expected_events_.size()) {
      if (payload != expected_events_[expected_pos_] && ck_error_.ok()) {
        std::string detail;
        StatusOr<JournalEvent> want =
            DecodeJournalEvent(expected_events_[expected_pos_]);
        if (want.ok()) {
          detail = " (journal has " +
                   std::string(JournalEventTypeName(want.value().type)) +
                   " seq=" + std::to_string(want.value().seq) +
                   ", re-derived " + std::string(JournalEventTypeName(type)) +
                   " seq=" + std::to_string(inst.seq) + ")";
        }
        ck_error_ = Status::Internal("journal replay divergence at record " +
                                     std::to_string(expected_pos_) + detail);
      }
      ++expected_pos_;
      return;
    }
    if (!journal_.is_open()) return;  // events before the first snapshot
    const Status appended = journal_.AppendRecord(payload);
    if (!appended.ok() && ck_error_.ok()) ck_error_ = appended;
  }

  // Writes the epoch-boundary snapshot and rotates the journal: events
  // after this snapshot land in its paired journal file.
  Status WriteSnapshot() {
    // Counted before the capture, so a resumed run (which does not rewrite
    // the snapshot it resumes from) still counts this write.
    ++st_.checkpoints;
    CheckpointSnapshot snap{.config_fingerprint = config_fingerprint_,
                            .class_digest = class_digest_,
                            .epoch_index = static_cast<int>(st_.epochs.size()),
                            .freq_ghz = freq_,
                            .state = st_,
                            .admission_models = ctl_.models()};
    // The queue's popped prefix is dead weight; persist the live suffix.
    snap.state.queue.erase(
        snap.state.queue.begin(),
        snap.state.queue.begin() + static_cast<long>(st_.queue_head));
    snap.state.queue_head = 0;
    Status written = WriteSnapshotFile(ck_.dir, snap);
    if (!written.ok()) return written;
    Status rotated = journal_.Close();
    if (!rotated.ok()) return rotated;
    return journal_.Create(ck_.dir + "/" + JournalFileName(snap.epoch_index));
  }

  // Restores the newest valid snapshot that fits this configuration; the
  // crashed run's journal becomes the verification stream.
  Status Resume() {
    StatusOr<RecoveredCheckpoint> recovered = LoadLatestCheckpoint(ck_.dir);
    if (!recovered.ok()) return recovered.status();
    RecoveredCheckpoint& rec = recovered.value();
    const std::string where = "checkpoint in '" + ck_.dir + "' ";
    if (rec.snapshot.config_fingerprint != config_fingerprint_) {
      return Status::FailedPrecondition(
          where + "was written under a different serving configuration");
    }
    if (rec.snapshot.class_digest != class_digest_) {
      return Status::FailedPrecondition(
          where + "was written against different class profiles");
    }
    const Status fits = CheckSnapshotFits(rec.snapshot, tenants_,
                                          classes_.size(), config_.cores);
    if (!fits.ok()) return Status(fits.code(), where + fits.message());
    if (rec.skipped_snapshots > 0) {
      std::fprintf(stderr,
                   "# recovery: skipped %d invalid snapshot(s) in %s "
                   "(last: %s)\n",
                   rec.skipped_snapshots, ck_.dir.c_str(),
                   rec.skipped_note.c_str());
    }
    if (rec.journal_torn) {
      std::fprintf(stderr,
                   "# recovery: discarding torn journal tail after byte "
                   "%llu: %s\n",
                   static_cast<unsigned long long>(rec.journal_valid_bytes),
                   rec.journal_tail_error.c_str());
    }
    st_ = std::move(rec.snapshot.state);
    ctl_.RestoreModels(std::move(rec.snapshot.admission_models));
    expected_events_ = std::move(rec.journal_payloads);
    Status opened = journal_.OpenForAppend(
        ck_.dir + "/" + JournalFileName(rec.snapshot.epoch_index),
        rec.journal_valid_bytes);
    if (!opened.ok()) return opened;
    std::fprintf(stderr,
                 "# resume: snapshot %d at virtual %.3f ms, %zu journal "
                 "record(s) to verify\n",
                 rec.snapshot.epoch_index, Ms(st_.vtime),
                 expected_events_.size());
    return Status::OK();
  }

  ServeResult Assemble() {
    // Close the trailing partial epoch so late completions are windowed.
    if (epoch_cycles_ > 0 &&
        (st_.vtime > st_.epoch_start || st_.epochs.empty())) {
      CloseEpoch(st_.vtime);
    }

    ServeResult result;
    obs::ServerRecord& record = result.record;
    record.enabled = true;
    record.cores = config_.cores;
    record.vtime_ms = Ms(st_.vtime);
    const double vtime_s = record.vtime_ms / 1000.0;
    // The completions, all traffic and grouped by tenant and by engine.
    std::vector<double> all_latencies;
    std::vector<std::vector<double>> by_tenant(tenants_.size());
    std::map<std::string, std::vector<double>> by_engine;
    all_latencies.reserve(st_.completions.size());
    for (const CompletionRecord& c : st_.completions) {
      all_latencies.push_back(c.latency_ms);
      by_tenant[c.tenant].push_back(c.latency_ms);
      by_engine[classes_[c.cls].engine].push_back(c.latency_ms);
    }
    for (size_t t = 0; t < tenants_.size(); ++t) {
      const TenantLoopState& ts = st_.tenants[t];
      std::vector<double>& latencies = by_tenant[t];
      obs::TenantRecord rec;
      rec.name = tenants_[t].name;
      rec.engine = tenants_[t].engine;
      rec.submitted = ts.submitted;
      rec.completed = latencies.size();
      rec.admitted = ts.submitted - ts.rejected;
      rec.rejected = ts.rejected;
      rec.shed = ts.shed;
      rec.timed_out = ts.timed_out;
      rec.failed = ts.failed;
      rec.retries = ts.backoff_ms.size();
      // The admission accounting invariant: every admitted query reaches
      // exactly one terminal disposition.
      UOLAP_CHECK_MSG(
          rec.admitted == rec.completed + rec.shed + rec.timed_out + rec.failed,
          "serving accounting: admitted != completed + shed + timed_out + "
          "failed");
      record.submitted += rec.submitted;
      record.completed += rec.completed;
      record.admitted += rec.admitted;
      record.rejected += rec.rejected;
      record.shed += rec.shed;
      record.timed_out += rec.timed_out;
      record.failed += rec.failed;
      record.retries += rec.retries;
      record.faults_injected += ts.faults_injected;
      record.slowdowns_injected += ts.slowdowns_injected;
      record.brownout_downgrades += ts.brownout_downgrades;
      obs::HistogramCell histogram;
      for (const double l : latencies) histogram.Observe(l);
      rec.latency_histogram = std::move(histogram.buckets);
      SetPercentiles(latencies, rec);
      double sum = 0;
      for (const double l : latencies) sum += l;  // in ascending order
      rec.mean_ms =
          latencies.empty() ? 0 : sum / static_cast<double>(latencies.size());
      rec.throughput_qps =
          vtime_s > 0 ? static_cast<double>(rec.completed) / vtime_s : 0;
      record.tenants.push_back(std::move(rec));
    }
    record.shed_policy = std::string(ShedPolicyName(adm_.policy));
    record.fault_plan = config_.faults.ToString();
    record.throughput_qps =
        vtime_s > 0 ? static_cast<double>(record.completed) / vtime_s : 0;
    record.avg_socket_gbps =
        st_.vtime > 0 ? st_.total_bytes * freq_ / st_.vtime : 0;
    record.peak_socket_gbps = st_.peak_gbps;
    record.saturated = st_.saturated;
    SetPercentiles(all_latencies, record);

    for (auto& [key, latencies] : by_engine) {
      obs::EngineLoadRecord rec;
      rec.engine = key;
      rec.completed = latencies.size();
      SetPercentiles(latencies, rec);
      rec.throughput_qps =
          vtime_s > 0 ? static_cast<double>(latencies.size()) / vtime_s : 0;
      record.engines.push_back(std::move(rec));
    }

    for (size_t i = 0; i < classes_.size(); ++i) {
      const QueryClass& cls = classes_[i];
      const ClassLoopStats& cs = st_.classes[i];
      obs::QueryClassRecord rec;
      rec.label = cls.label;
      rec.engine = cls.engine;
      rec.executions = cs.executions;
      rec.solo_ms = cls.solo().time_ms;
      rec.corun_ms =
          cs.executions > 0
              ? Ms(cs.service_cycles / static_cast<double>(cs.executions))
              : 0;
      rec.avg_bw_scale =
          cs.run_cycles > 0 ? cs.scale_cycles / cs.run_cycles : 1.0;
      rec.solo_dcache_frac = cls.solo().cycles.Frac(cls.solo().cycles.dcache);
      const core::ProfileResult corun =
          model_.Analyze(cls.solo().counters, rec.avg_bw_scale);
      rec.corun_dcache_frac = corun.cycles.Frac(corun.cycles.dcache);
      record.classes.push_back(rec);

      result.class_runs.push_back(cls.solo_run);
      if (cs.executions > 0 && rec.avg_bw_scale < 0.999) {
        // Re-analysis of the solo profile at the contention scale the class
        // actually observed — the co-run Top-Down view of the same counters.
        obs::RunRecord corun_run = cls.solo_run;
        corun_run.label += " [corun]";
        corun_run.bw_scale = rec.avg_bw_scale;
        corun_run.cores[0].whole = corun;
        obs::AnalyzeTree(config_.machine, &corun_run.cores[0].regions,
                         rec.avg_bw_scale);
        corun_run.makespan_cycles = corun.total_cycles;
        corun_run.time_ms = corun.time_ms;
        corun_run.socket_bandwidth_gbps = corun.bandwidth_gbps;
        // The audit covered the solo machine state, not this re-analysis.
        corun_run.audited = false;
        corun_run.audit_checks = 0;
        corun_run.violations.clear();
        result.class_runs.push_back(std::move(corun_run));
      }
    }

    double peak_queued = 0;
    for (const obs::QueueSample& q : st_.timeline) {
      peak_queued = std::max(peak_queued, static_cast<double>(q.queued));
    }
    record.queue_timeline = std::move(st_.timeline);

    // Serving telemetry: epoch windows, sampled spans (admission order),
    // SLO verdicts, and the run's metrics.
    record.epoch_ms = config_.epoch_ms;
    record.epochs = std::move(st_.epochs);
    record.trace_sample_n = config_.trace_sample_n;
    std::sort(st_.spans.begin(), st_.spans.end(),
              [](const obs::QuerySpan& a, const obs::QuerySpan& b) {
                return a.seq < b.seq;
              });
    record.spans = std::move(st_.spans);
    record.slos = config_.slos;
    record.slo_results = obs::EvaluateSlos(config_.slos, record);
    PublishMetrics(record, peak_queued);
    return result;
  }

  // The run's one metrics publication, a projection of the ledger. A Count
  // creates its series even for a zero delta, so zero per-tenant and
  // persistence counts are skipped: a series exists only for what
  // happened. Histogram sums are integer additions, so publishing once at
  // the end gives the bytes per-event publication would.
  void PublishMetrics(const obs::ServerRecord& record, double peak_queued) {
    namespace mn = obs::metric_names;
    auto count = [this](const char* name, const std::string& tenant,
                        uint64_t n) {
      if (n > 0) metrics_.Count(name, "tenant", tenant, n);
    };
    for (size_t t = 0; t < tenants_.size(); ++t) {
      const TenantLoopState& ts = st_.tenants[t];
      const obs::TenantRecord& rec = record.tenants[t];
      count(mn::kServerQueriesSubmitted, rec.name, rec.submitted);
      count(mn::kServerQueriesCompleted, rec.name, rec.completed);
      count(mn::kServerQueriesRejected, rec.name, rec.rejected);
      count(mn::kServerQueriesShed, rec.name, rec.shed);
      count(mn::kServerQueriesTimedOut, rec.name, rec.timed_out);
      count(mn::kServerQueriesFailed, rec.name, rec.failed);
      count(mn::kServerRetriesTotal, rec.name, rec.retries);
      count(mn::kServerFaultsInjected, rec.name, ts.faults_injected);
      count(mn::kServerSlowdownsInjected, rec.name, ts.slowdowns_injected);
      count(mn::kServerBrownoutDowngrades, rec.name, ts.brownout_downgrades);
      for (const double backoff : ts.backoff_ms) {
        metrics_.Observe(mn::kServerBackoffMs, "tenant", rec.name, backoff);
      }
    }
    for (const CompletionRecord& c : st_.completions) {
      const std::string& tenant = tenants_[c.tenant].name;
      metrics_.Observe(mn::kServerLatencyMs, "tenant", tenant, c.latency_ms);
      metrics_.Observe(mn::kServerQueueWaitMs, "tenant", tenant,
                       c.queue_wait_ms);
    }
    if (ck_.enabled()) {
      if (st_.checkpoints > 0) {
        metrics_.Count(mn::kServerCheckpointsTotal, st_.checkpoints);
      }
      // One journal record per admission and per retry, and one per
      // terminal disposition (a rejection is one, with no admission).
      const uint64_t records = record.submitted + record.completed +
                               record.shed + record.timed_out +
                               record.failed + record.retries;
      if (records > 0) metrics_.Count(mn::kServerJournalRecordsTotal, records);
    }
    metrics_.SetGauge(mn::kServerVtimeMs, record.vtime_ms);
    metrics_.MaxGauge(mn::kServerSocketGbpsPeak, record.peak_socket_gbps);
    metrics_.MaxGauge(mn::kServerQueueDepthPeak, peak_queued);
    metrics_.Count(mn::kServerEpochsTotal, record.epochs.size());
    metrics_.Count(mn::kServerSpansRecorded, record.spans.size());
    for (const obs::SloResult& r : record.slo_results) {
      if (!r.pass) {
        metrics_.Count(mn::kServerSloViolations, "slo", r.spec.ToString());
      }
    }
  }

  double Ms(double cycles) const { return cycles / (freq_ * 1e6); }
  double Cycles(double ms) const { return ms * freq_ * 1e6; }

  const ServerConfig& config_;
  const CheckpointConfig& ck_;
  const AdmissionConfig& adm_;
  const std::vector<TenantConfig>& tenants_;
  const std::vector<QueryClass>& classes_;
  const std::vector<std::vector<size_t>>& tenant_classes_;
  const double freq_;
  const core::TopDownModel model_;
  /// SLO epoch width in cycles (0 = epoch windows off).
  const double epoch_cycles_;
  obs::MetricsRegistry& metrics_;
  AdmissionController ctl_;
  // Functions of the configuration, so not part of the snapshot.
  std::vector<uint64_t> cap_;                   ///< per-tenant submissions
  std::vector<std::vector<double>> zipf_cdf_;  ///< per-tenant catalog CDF

  LoopState st_;

  uint64_t config_fingerprint_ = 0;
  uint32_t class_digest_ = 0;
  JournalWriter journal_;
  std::vector<std::string> expected_events_;  ///< resume: journal to verify
  size_t expected_pos_ = 0;
  bool snapshot_pending_ = false;
  Status ck_error_;  ///< deferred journal error; surfaced at the loop top

  // Per-iteration scratch: the running set and its service-time totals.
  std::vector<QueryInstance*> running_;
  std::vector<double> g_;
};

StatusOr<ServeResult> Server::TryRun() {
  UOLAP_CHECK_MSG(!tenants_.empty(), "no tenants added");
  EnsureClasses();
  if (config_.checkpoint.enabled()) {
    UOLAP_CHECK_MSG(config_.epoch_ms > 0,
                    "checkpointing requires epoch windows (epoch_ms > 0)");
    UOLAP_CHECK_MSG(config_.checkpoint.every_epochs >= 1,
                    "checkpoint-every must be >= 1");
  }
  UOLAP_CHECK_MSG(config_.retry.max_retries >= 0 &&
                      config_.retry.max_retries < 1024,
                  "retry budget outside the attempt-key space");
  ServeLoop loop(*this);
  return loop.Run();
}

}  // namespace uolap::server
