#ifndef UOLAP_AUDIT_VALIDATION_H_
#define UOLAP_AUDIT_VALIDATION_H_

#include <string_view>

#include "audit/invariants.h"
#include "core/machine.h"

namespace uolap::audit {

/// Process-wide validation switch the harness consults around every
/// profiled run. Defaults on when the tree is configured with
/// -DUOLAP_VALIDATE=ON, off otherwise; `--validate` flips it at runtime.
bool ValidationEnabled();
void SetValidationEnabled(bool on);

/// Arms every core of `machine` for fill-containment validation. Call
/// before the run starts (fills are only checked from then on).
void ArmMachine(core::Machine& machine);

/// Audits every core of a finalized machine (hierarchy + predictor +
/// counter identities); `label` prefixes the per-core subjects.
AuditReport AuditMachine(const core::Machine& machine, std::string_view label);

/// Does nothing for a clean report. Otherwise prints every violation to
/// stderr as one structured line each
///   uolap-audit: <checker> [<subject>]: <message>
/// and aborts: a model-invariant violation means the simulation's counters
/// cannot be trusted, so failing loudly beats producing a wrong figure.
/// Tests that exercise the checkers directly never go through here.
void ReportViolations(const AuditReport& report, std::string_view context);

}  // namespace uolap::audit

#endif  // UOLAP_AUDIT_VALIDATION_H_
