// Deterministic hot-path smoke workload for the CI perf-smoke stage: a
// fixed synthetic address trace (never dereferenced by the simulator, so
// the run is bit-identical on every host — no ASLR pinning needed) that
// drives every accelerated path of the simulation kernels: resident
// re-scans, stream establish/advance/kill churn, the translation memo,
// random probes through the stream-index candidate masks, line and page
// straddles, and branchy retire traffic. The run is recorded through
// obs::ProfileRun, like every profiled run, and exported as a real
// versioned profile; a validated build (UOLAP_VALIDATE=ON) audits it.
//
//   uolap_perfsmoke --json=out.json [--reference]
//
// CI runs it twice — accelerated and --reference — and the two outputs
// must be byte-identical (the fast-path overhaul's counter bit-identity
// contract, asserted on top of the differential property tests). Both
// must also match the checked-in golden
// tests/golden/perfsmoke_profile.json, which pins the modelled counters
// of this trace: any drift fails CI and forces a conscious golden
// update. `uolap_report diff golden actual --max-regress=0` then
// re-checks at the modelled-cycle level.
//
// To update the golden after an intentional model change:
//   build/examples/uolap_perfsmoke --json=tests/golden/perfsmoke_profile.json

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/rng.h"
#include "core/core.h"
#include "core/calibration.h"
#include "core/machine.h"
#include "obs/attribution.h"
#include "obs/profile_export.h"
#include "obs/record.h"

namespace {

using namespace uolap;

// Fixed synthetic arenas (byte addresses). The simulator keys caches by
// address only, so these constants fully determine the trace.
constexpr uint64_t kScanArena = uint64_t{1} << 20;    // sequential runs
constexpr uint64_t kStrideArena = uint64_t{1} << 24;  // strided / backward
constexpr uint64_t kProbeArena = uint64_t{1} << 30;   // random probes
constexpr uint64_t kProbeSpan = uint64_t{1} << 28;    // 256 MB probe range

/// Sequential scans: establishes forward streams and keeps them hot so
/// re-scans walk L1-resident lines behind an established stream.
void ScanPhase(core::Core& core) {
  core::ScopedRegion region(core, "scan");
  for (int pass = 0; pass < 3; ++pass) {
    core.LoadSeq(reinterpret_cast<const void*>(kScanArena), 8, 4096);
    core::InstrMix m;
    m.alu = 4096;
    core.Retire(m);
  }
  core.StoreSeq(reinterpret_cast<void*>(kScanArena), 8, 4096);
  // Interleaved two-column walk through the cursor-based range API.
  core::SeqCursor a, b;
  for (int chunk = 0; chunk < 8; ++chunk) {
    const uint64_t off = static_cast<uint64_t>(chunk) * 4096;
    core.LoadRange(a, reinterpret_cast<const void*>(kScanArena + off), 8,
                   512);
    core.LoadRange(b, reinterpret_cast<const void*>(kStrideArena + off), 4,
                   1024);
  }
}

/// Strided and backward traffic: direction locking, skip tolerance, and
/// stream kills when the pattern breaks.
void StridePhase(core::Core& core) {
  core::ScopedRegion region(core, "stride");
  for (uint64_t i = 0; i < 512; ++i) {
    core.Load(reinterpret_cast<const void*>(kStrideArena + i * 192), 8);
  }
  for (uint64_t i = 512; i > 0; --i) {
    core.Load(reinterpret_cast<const void*>(kStrideArena + i * 64), 8);
  }
  // Line straddle + page straddle, pinning the documented contract arms.
  core.Load(reinterpret_cast<const void*>(kStrideArena + 60), 8);
  core.Store(reinterpret_cast<void*>(kStrideArena + 4096 - 4), 8);
}

/// Random probes: fresh line + page per access (stream-index reject
/// filter, DTLB/STLB churn), same-line bursts (re-access arm, memo), and
/// data-dependent branches.
void ProbePhase(core::Core& core) {
  core::ScopedRegion region(core, "probe");
  core.SetMlpHint(core::kMlpScalarProbe);
  Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t addr = kProbeArena + (rng.Next() & (kProbeSpan - 1));
    core.Load(reinterpret_cast<const void*>(addr & ~uint64_t{7}), 8);
    const bool taken = (rng.Next() & 3) == 0;
    core.Branch(7 + (i & 3), taken);
    if (taken) {
      // Same-page burst: consecutive fields of a matched row.
      core.Load(reinterpret_cast<const void*>(addr & ~uint64_t{63}), 8);
      core.Load(reinterpret_cast<const void*>((addr & ~uint64_t{63}) + 8),
                8);
    }
    core::InstrMix m;
    m.alu = 6;
    m.mul = 3;
    m.chain_cycles = 5;
    core.Retire(m);
  }
  core.SetMlpHint(core::kMlpDefault);
}

obs::ProfileSession RunSmoke(bool reference) {
  const core::MachineConfig cfg = core::MachineConfig::Broadwell();
  obs::ProfileSession session;
  session.bench = "uolap_perfsmoke";
  session.machine = cfg.name;
  session.freq_ghz = cfg.freq_ghz;
  session.scale_factor = 0.0;
  session.seed = 2024;
  session.quick = true;
  session.wall_ms = 0.0;  // host time is zeroed: the output must be stable
  auto trace = [reference](core::Machine& machine) {
    core::Core& core = machine.core(0);
    core.SetReferencePaths(reference);
    ScanPhase(core);
    StridePhase(core);
    ProbePhase(core);
  };
  session.runs.push_back(obs::ProfileRun(cfg, /*threads=*/1,
                                         /*sample_interval=*/100000,
                                         "perfsmoke", trace));
  return session;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  UOLAP_CHECK(flags.Parse(argc, argv).ok());
  const std::string path = flags.GetString("json", "perfsmoke_profile.json");
  const bool reference = flags.GetBool("reference", false);

  const obs::ProfileSession session = RunSmoke(reference);
  const std::string json = obs::ProfileToJson(session);
  UOLAP_CHECK(obs::WriteTextFile(path, json).ok());
  std::printf("wrote %s (%s kernels, %zu bytes)\n", path.c_str(),
              reference ? "reference" : "accelerated", json.size());
  return 0;
}
