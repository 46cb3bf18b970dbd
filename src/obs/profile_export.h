#ifndef UOLAP_OBS_PROFILE_EXPORT_H_
#define UOLAP_OBS_PROFILE_EXPORT_H_

#include <string>

#include "common/status.h"
#include "obs/record.h"

namespace uolap::obs {

/// Version of the profile JSON schema emitted by ProfileToJson. Bump on
/// any breaking change to field names/meanings; the golden exporter test
/// pins the byte-level layout so accidental drift fails CI.
/// v2: per-run "audit" object (model-invariant validation results).
/// v3: optional top-level "server" block (multi-tenant serving runs:
///     per-tenant latency percentiles/histograms, per-engine load,
///     per-class solo-vs-co-run attribution, queue-depth timeline).
/// v4: serving telemetry — optional top-level "metrics" block (registry
///     snapshot), "server" gains overall p50/p95/p99, SLO epoch windows
///     ("epochs"), trace sampling metadata, and SLO specs/results.
///     Query spans go to the Chrome trace only, never the profile JSON.
/// v5: serving robustness — "server" and each tenant gain outcome rollups
///     (admitted/rejected/shed/timed_out/failed/retries), the server block
///     additionally faults_injected/slowdowns_injected/brownout_downgrades
///     and the shed_policy / fault_plan strings that shaped the run.
inline constexpr int kProfileSchemaVersion = 5;
inline constexpr char kProfileSchemaName[] = "uolap-profile";

/// True when a profile file of schema version `v` can be parsed by this
/// build's readers: exactly the version this build writes. Older files
/// are regenerated, not read.
inline constexpr bool IsSupportedProfileVersion(int v) {
  return v == kProfileSchemaVersion;
}

/// Serializes a session to the versioned profile JSON schema:
///
///   { "schema": "uolap-profile", "version": 5,
///     "bench": ..., "machine": ..., "freq_ghz": ..., "scale_factor": ...,
///     "seed": ..., "quick": ..., "wall_ms": ...,
///     "metrics": [ { "name", "kind", "series": [ { "label_key",
///                    "label_value", value or buckets/count/sum_micro } ] } ],
///       // "metrics" is present only when the registry snapshot taken at
///       // flush is non-empty.
///     "server": { cores/vtime_ms/submitted/completed/
///                 admitted/rejected/shed/timed_out/failed/retries/
///                 faults_injected/slowdowns_injected/brownout_downgrades/
///                 shed_policy/fault_plan/throughput_qps/
///                 avg_socket_gbps/peak_socket_gbps/saturated/
///                 p50_ms/p95_ms/p99_ms/
///                 "tenants": [ per-tenant latency stats + histogram ],
///                 "engines": [ per-engine-key load rollup ],
///                 "classes": [ solo vs co-run service time + Dcache ],
///                 "queue_timeline": [ {vtime_ms/running/queued} ],
///                 epoch_ms/"epochs": [ { index/start_ms/end_ms/completed/
///                    p50_ms/p95_ms/p99_ms/max_running/max_queued/
///                    "tenants"/"classes": [ {subject/completed/p50..p99} ] } ]/
///                 trace_sample_n/"slos": [ "<spec>" ]/
///                 "slo_results": [ { spec/known_subject/pass/
///                    first_violation_epoch/worst_value/epochs_evaluated } ] },
///       // "server" is present only when the session recorded a serving
///       // run (src/server); plain bench sessions omit the key.
///     "runs": [ { "label", "threads", "bandwidth_scale",
///                 "makespan_cycles", "time_ms", "socket_bandwidth_gbps",
///                 "audit": { "enabled", "checks",
///                            "violations": [ {checker/subject/message} ] },
///                 "cores": [ { "core",
///                    "total": { cycles/instructions/ipc/time_ms/
///                               dram_bytes/bandwidth_gbps/breakdown/
///                               counters },
///                    "regions": [ { id/name/parent/depth/visits/
///                                   exclusive{...}/inclusive{...} } ],
///                    "timeline": [ per-interval instructions/cycles/ipc/
///                                  l1d_miss_rate/dram_bytes/dram_gbps ]
///                 } ] } ] }
///
/// Region entries are emitted in node-creation order (deterministic), and
/// every object's keys are emitted in a fixed order, so equal sessions
/// serialize to equal bytes.
std::string ProfileToJson(const ProfileSession& session);

/// Serializes a session to Chrome trace-event JSON (load in Perfetto or
/// chrome://tracing): each run is a process, each simulated core a thread;
/// regions become "X" duration events placed on the modelled cycle
/// timeline, and the counter timeline becomes "C" counter tracks (IPC,
/// DRAM GB/s, L1D miss %). When the session carries a serving run with
/// sampled spans, a "serving" process is appended: each tenant gets a
/// thread carrying whole-query spans with nested queue-wait children, and
/// each server core slot gets a thread carrying execution spans with the
/// class's solo operator-region profile scaled into them.
std::string SessionToChromeTrace(const ProfileSession& session);

/// Writes `content` to `path` (binary, overwrite).
Status WriteTextFile(const std::string& path, const std::string& content);

}  // namespace uolap::obs

#endif  // UOLAP_OBS_PROFILE_EXPORT_H_
