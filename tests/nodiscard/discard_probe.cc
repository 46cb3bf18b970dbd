// Compile-fail probe (see run_test.py; never built into a target). Each
// line marked DISCARD drops a Status-typed result; the build's flags must
// reject every one of them with the nodiscard diagnostic, and nothing else
// in this file may fail to compile.

#include "common/status.h"
#include "engine/engine.h"
#include "engine/registry.h"

namespace uolap {

Status Fallible();

void DiscardStatus() {
  Fallible();  // DISCARD
}

void DiscardRegistryGet(engine::EngineRegistry& registry) {
  registry.Get("typer");  // DISCARD
}

void DiscardEngineRun(const engine::OlapEngine& eng,
                      const engine::QuerySpec& spec, engine::Workers& w) {
  eng.Run(spec, w);  // DISCARD
}

}  // namespace uolap
