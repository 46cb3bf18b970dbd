#include "engine/registry.h"

#include <utility>

#include "common/macros.h"

namespace uolap::engine {

void EngineRegistry::Register(const std::string& name, Factory factory) {
  UOLAP_CHECK(factory != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  const bool inserted =
      factories_.emplace(name, std::move(factory)).second;
  UOLAP_CHECK_MSG(inserted, "engine key registered twice");
}

bool EngineRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) > 0;
}

StatusOr<OlapEngine*> EngineRegistry::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instances_.find(name);
  if (it != instances_.end()) return it->second.get();
  auto factory = factories_.find(name);
  if (factory == factories_.end()) {
    std::string known;
    for (const auto& [key, unused] : factories_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    return Status::NotFound("unknown engine key \"" + name +
                            "\" (registered: " + known + ")");
  }
  auto engine = factory->second(db_);
  UOLAP_CHECK(engine != nullptr);
  return instances_.emplace(name, std::move(engine)).first->second.get();
}

}  // namespace uolap::engine
