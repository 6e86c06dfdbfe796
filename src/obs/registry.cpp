#include "obs/registry.h"

namespace vidur {

std::uint64_t RegistrySnapshot::counter(const std::string& name) const {
  for (const CounterEntry& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot s;
  for (const auto& [name, c] : counters_)
    s.counters.push_back({name, c.value});
  for (const auto& [name, g] : gauges_) s.gauges.push_back({name, g.value});
  return s;
}

}  // namespace vidur
