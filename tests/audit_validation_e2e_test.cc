// End-to-end validation-layer test: drives real workloads through the
// harness Profile* entry points with validation enabled and asserts the
// clean path (zero violations, checks recorded, audit results landing in
// the RunRecord and the exported JSON). The per-rule failure paths live in
// audit_invariants_test.cc; this file covers the wiring around them.

#include <gtest/gtest.h>

#include <string>

#include "audit/validation.h"
#include "core/config.h"
#include "harness/profile.h"
#include "obs/profile_export.h"
#include "obs/record.h"

namespace uolap::harness {
namespace {

using core::MachineConfig;
using engine::Workers;

/// Restores the process-wide validation switch on scope exit so test
/// order never matters.
class ValidationGuard {
 public:
  ValidationGuard() : enabled_(audit::ValidationEnabled()) {}
  ~ValidationGuard() { audit::SetValidationEnabled(enabled_); }

 private:
  bool enabled_;
};

/// A workload exercising scans, scattered probes, branches, and retire.
void Workload(core::Core& core) {
  core.LoadSeq(reinterpret_cast<const void*>(uint64_t{1} << 21), 8, 8192);
  for (uint64_t i = 0; i < 512; ++i) {
    const uint64_t addr =
        (uint64_t{1} << 27) + (i * 2654435761ull) % (uint64_t{1} << 23);
    core.Load(reinterpret_cast<const void*>(addr), 8);
    core.Branch(/*site_id=*/11, (i & 7) < 3);
  }
  core::InstrMix m;
  m.alu = 4096;
  core.Retire(m);
}

TEST(AuditValidationE2eTest, SingleCoreProfileCleanUnderValidation) {
  ValidationGuard guard;
  audit::SetValidationEnabled(true);
  // Zero violations expected; a violation aborts, so a regression here
  // fails loudly rather than quietly producing a wrong figure.
  const core::ProfileResult r =
      Profile(MachineConfig::Broadwell(), 1, ObsOptions{}, "single",
              [](Workers& w) { Workload(*w.cores[0]); })
          .cores[0]
          .whole;
  EXPECT_GT(r.total_cycles, 0.0);
}

TEST(AuditValidationE2eTest, MultiCoreProfileCleanUnderValidation) {
  ValidationGuard guard;
  audit::SetValidationEnabled(true);
  const obs::RunRecord r = Profile(
      MachineConfig::Broadwell(), 2, ObsOptions{}, "multi",
      [](Workers& w) {
        w.ForEach([&](size_t t) { Workload(*w.cores[t]); });
      },
      /*executor=*/nullptr);
  EXPECT_EQ(r.cores.size(), 2u);
}

TEST(AuditValidationE2eTest, ObsRunCarriesAuditResults) {
  ValidationGuard guard;
  audit::SetValidationEnabled(true);
  const obs::RunRecord run =
      ProfileSingleObs(MachineConfig::Broadwell(), ObsOptions{}, "e2e",
                       [](Workers& w) { Workload(*w.cores[0]); });
  EXPECT_TRUE(run.audited);
  EXPECT_GT(run.audit_checks, 0u);
  EXPECT_TRUE(run.violations.empty());
}

TEST(AuditValidationE2eTest, ObsRunNotAuditedWhenDisabled) {
  ValidationGuard guard;
  audit::SetValidationEnabled(false);
  const obs::RunRecord run =
      ProfileSingleObs(MachineConfig::Broadwell(), ObsOptions{}, "off",
                       [](Workers& w) { Workload(*w.cores[0]); });
  EXPECT_FALSE(run.audited);
  EXPECT_EQ(run.audit_checks, 0u);
}

TEST(AuditValidationE2eTest, AuditResultsReachProfileJson) {
  ValidationGuard guard;
  audit::SetValidationEnabled(true);
  obs::ProfileSession session;
  session.bench = "e2e";
  session.machine = "broadwell";
  session.freq_ghz = MachineConfig::Broadwell().freq_ghz;
  session.runs.push_back(
      ProfileSingleObs(MachineConfig::Broadwell(), ObsOptions{}, "json",
                       [](Workers& w) { Workload(*w.cores[0]); }));
  const std::string json = obs::ProfileToJson(session);
  EXPECT_NE(json.find("\"audit\": {"), std::string::npos);
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": []"), std::string::npos);
}

}  // namespace
}  // namespace uolap::harness
