#ifndef UOLAP_ENGINE_REGISTRY_H_
#define UOLAP_ENGINE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "engine/engine.h"
#include "tpch/schema.h"

namespace uolap::engine {

/// String-keyed registry of lazily constructed engines over one database.
/// The single engine-selection mechanism of the tree: benches resolve
/// their engines by key ("typer", "tectorwise", "tectorwise+simd",
/// "rowstore", "colstore" — registered by
/// harness::RegisterBuiltinEngines), and the serving runtime routes
/// QuerySpecs through it without ever naming a concrete engine type.
///
/// Instances are cached (one engine per key for the registry's lifetime)
/// and construction is mutex-guarded, so several threads may resolve
/// keys at once. Registration is explicit — no static self-registration,
/// which is linker-fragile with static libraries.
class EngineRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<OlapEngine>(const tpch::Database&)>;

  explicit EngineRegistry(const tpch::Database& db) : db_(db) {}

  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

  /// Registers a factory under `name`. CHECK-fails on duplicates.
  void Register(const std::string& name, Factory factory);

  bool Has(const std::string& name) const;

  /// Returns the cached engine for `name`, constructing it on first use.
  /// Returns NotFound when the key was never registered (callers that
  /// know the key is valid use `Get(name).value()` and keep the former
  /// CHECK-abort behavior — the message carries the registered keys).
  StatusOr<OlapEngine*> Get(const std::string& name);

  const tpch::Database& db() const { return db_; }

 private:
  const tpch::Database& db_;
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
  std::map<std::string, std::unique_ptr<OlapEngine>> instances_;
};

}  // namespace uolap::engine

#endif  // UOLAP_ENGINE_REGISTRY_H_
