// MetricsRegistry: named counters and gauges threaded through the
// simulator, schedulers and cluster manager (observability subsystem).
//
// Handles are resolved by name once (map-backed, node-stable addresses) and
// incremented through plain pointers on the hot path — no string hashing
// per event. A RegistrySnapshot is a plain value embedded in
// SimulationMetrics, so every ExperimentResult carries the registry's final
// state without holding a reference to the registry itself. Its
// `histograms` hold the `request.*` latency summaries, which are not
// registry state: the MetricsCollector fills them with exact order
// statistics of its per-request series (src/metrics/metrics.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vidur {

struct Counter {
  std::uint64_t value = 0;

  void inc(std::uint64_t by = 1) { value += by; }
};

struct Gauge {
  double value = 0.0;

  void set(double v) { value = v; }
};

/// Final registry state as plain sorted vectors (by name).
struct RegistrySnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  /// Exact summary of one per-request latency series (0s when empty).
  struct HistogramEntry {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counter value by name; 0 when absent (tests, summary lines).
  std::uint64_t counter(const std::string& name) const;
};

class MetricsRegistry {
 public:
  /// Named handle, created on first use. The returned pointer stays valid
  /// for the registry's lifetime (node-based storage).
  Counter* counter(const std::string& name) { return &counters_[name]; }
  Gauge* gauge(const std::string& name) { return &gauges_[name]; }

  /// Counters and gauges; `histograms` is left empty.
  RegistrySnapshot snapshot() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
};

}  // namespace vidur
