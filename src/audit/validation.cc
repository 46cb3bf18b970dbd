#include "audit/validation.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace uolap::audit {

namespace {

#ifdef UOLAP_VALIDATE
constexpr bool kValidateDefault = true;
#else
constexpr bool kValidateDefault = false;
#endif

std::atomic<bool> g_enabled{kValidateDefault};

}  // namespace

bool ValidationEnabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetValidationEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void ArmMachine(core::Machine& machine) {
  for (size_t i = 0; i < machine.num_cores(); ++i) {
    machine.core(i).SetValidateFills(true);
  }
}

AuditReport AuditMachine(const core::Machine& machine,
                         std::string_view label) {
  AuditReport report;
  for (size_t i = 0; i < machine.num_cores(); ++i) {
    std::string subject(label);
    subject += "/core";
    subject += std::to_string(i);
    report.Merge(AuditCore(machine.core(i), subject));
  }
  return report;
}

void ReportViolations(const AuditReport& report, std::string_view context) {
  if (report.ok()) return;
  for (const Violation& v : report.violations) {
    std::fprintf(stderr, "uolap-audit: %s [%s]: %s\n", v.checker.c_str(),
                 v.subject.c_str(), v.message.c_str());
  }
  std::fprintf(stderr,
               "uolap-audit: %zu model-invariant violation(s) in '%.*s' "
               "(%llu checks run)\n",
               report.violations.size(), static_cast<int>(context.size()),
               context.data(),
               static_cast<unsigned long long>(report.checks));
  std::fprintf(stderr,
               "uolap-audit: aborting — simulation counters cannot be "
               "trusted after an invariant violation\n");
  std::abort();
}

}  // namespace uolap::audit
