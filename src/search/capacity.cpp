#include "search/capacity.h"

#include <algorithm>

#include "common/check.h"

namespace vidur {

namespace {

/// Fixed request lengths + unit-rate arrival offsets; probes at different
/// QPS share all randomness, so feasibility is monotone in QPS.
struct ProbeTrace {
  std::vector<Request> requests;      // lengths, ids; arrival unset
  std::vector<double> unit_arrivals;  // cumulative Exp(1) inter-arrivals

  Trace at_qps(double qps) const {
    Trace out = requests;
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i].arrival_time = unit_arrivals[i] / qps;
    return out;
  }

  Trace statically() const {
    Trace out = requests;
    for (auto& r : out) r.arrival_time = 0.0;
    return out;
  }
};

ProbeTrace make_probe_trace(const TraceSpec& workload, int num_requests,
                            std::uint64_t seed) {
  ProbeTrace probe;
  workload.validate();
  Rng length_rng(seed);
  Rng arrival_rng(seed ^ 0xabcdef0123456789ULL);
  double clock = 0.0;
  probe.requests.reserve(static_cast<std::size_t>(num_requests));
  probe.unit_arrivals.reserve(static_cast<std::size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    Request r = sample_request(workload, length_rng);
    r.id = i;
    probe.requests.push_back(r);
    clock += arrival_rng.exponential(1.0);
    probe.unit_arrivals.push_back(clock);
  }
  return probe;
}

}  // namespace

int CapacitySearchOptions::probe_requests(
    const DeploymentConfig& config) const {
  const long slots = static_cast<long>(config.scheduler.max_batch_size) *
                     config.parallel.num_replicas;
  // Cap the probe size: past ~2x the slot count, queue blow-up at overload
  // is already observable, and probe cost grows linearly with requests.
  const long scaled = std::min<long>(slots * requests_per_slot, 12000);
  return static_cast<int>(std::max<long>(num_requests, scaled));
}

bool probe_feasible(const SimulationMetrics& metrics, int num_requests,
                    const CapacitySearchOptions& options) {
  if (metrics.num_completed != static_cast<std::size_t>(num_requests))
    return false;
  return metrics.scheduling_delay.p99 < options.max_p99_scheduling_delay;
}

double offline_throughput_qps(VidurSession& session,
                              const DeploymentConfig& config,
                              const TraceSpec& workload,
                              const CapacitySearchOptions& options) {
  const int n = options.probe_requests(config);
  const ProbeTrace probe = make_probe_trace(workload, n, options.trace_seed);
  try {
    const SimulationMetrics offline =
        session.simulate(config, probe.statically());
    if (offline.num_completed != static_cast<std::size_t>(n)) return 0.0;
    return offline.throughput_qps;
  } catch (const Error&) {
    return 0.0;  // infeasible deployment (does not fit, etc.)
  }
}

CapacityResult find_capacity(VidurSession& session,
                             const DeploymentConfig& config,
                             const TraceSpec& workload,
                             const CapacitySearchOptions& options,
                             double offline_qps_hint) {
  CapacityResult result;
  const int n = options.probe_requests(config);
  const ProbeTrace probe = make_probe_trace(workload, n, options.trace_seed);

  // Initial guess from an offline run: serve everything at once and read the
  // service throughput off the makespan. Capacity can exceed it (see
  // offline_throughput_qps), but the bracket below never probes above it.
  double offline_qps = offline_qps_hint;
  if (offline_qps <= 0.0) {
    offline_qps = offline_throughput_qps(session, config, workload, options);
    ++result.num_probes;
    if (offline_qps <= 0.0) return result;
  }

  auto run_probe = [&](double qps) -> std::pair<bool, SimulationMetrics> {
    SimulationMetrics m;
    try {
      m = session.simulate(config, probe.at_qps(qps));
    } catch (const Error&) {
      return {false, std::move(m)};
    }
    ++result.num_probes;
    return {probe_feasible(m, n, options), std::move(m)};
  };

  // Bracket the capacity downward from the offline guess.
  double lo = 0.0, hi = offline_qps;
  SimulationMetrics lo_metrics;
  {
    double q = offline_qps * 0.95;
    bool found = false;
    for (int i = 0; i < options.max_bracket_steps; ++i) {
      auto [ok, m] = run_probe(q);
      if (ok) {
        lo = q;
        lo_metrics = std::move(m);
        found = true;
        break;
      }
      hi = q;
      q *= 0.6;
    }
    if (!found) return result;  // no sustainable rate found
  }

  // Refine by binary search.
  for (int i = 0; i < options.binary_search_iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    auto [ok, m] = run_probe(mid);
    if (ok) {
      lo = mid;
      lo_metrics = std::move(m);
    } else {
      hi = mid;
    }
  }

  result.feasible = true;
  result.capacity_qps = lo;
  result.metrics_at_capacity = std::move(lo_metrics);
  return result;
}

}  // namespace vidur
