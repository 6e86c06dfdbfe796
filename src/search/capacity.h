// Capacity search (paper §6): the maximum QPS a deployment configuration
// sustains without the request queue blowing up, found by binary search on
// the arrival rate with a P99-scheduling-delay constraint.
#pragma once

#include <cstdint>

#include "core/session.h"
#include "workload/trace_generator.h"

namespace vidur {

struct CapacitySearchOptions {
  /// Minimum requests per probe simulation.
  int num_requests = 300;
  /// Probes must be long enough that queueing is observable: the actual
  /// probe size is max(num_requests, requests_per_slot * concurrency slots)
  /// where slots = max_batch_size * num_replicas.
  int requests_per_slot = 6;
  /// Constraint: P99 scheduling delay must stay below this (paper: 5 s).
  Seconds max_p99_scheduling_delay = 5.0;
  /// Binary-search refinement steps after bracketing.
  int binary_search_iters = 6;
  /// Bracketing: at most this many downward steps (x0.6 each) from the
  /// initial guess; the search never probes above it.
  int max_bracket_steps = 10;
  /// Request-length / arrival randomness (shared across probes so that the
  /// feasible set is monotone in QPS).
  std::uint64_t trace_seed = 0xcafeULL;

  int probe_requests(const DeploymentConfig& config) const;
};

struct CapacityResult {
  bool feasible = false;       ///< some positive QPS satisfies the constraint
  double capacity_qps = 0.0;   ///< highest feasible probed QPS
  /// Metrics observed at the capacity operating point (TTFT/TBT feed the
  /// SLO filter in Vidur-Search).
  SimulationMetrics metrics_at_capacity;
  int num_probes = 0;          ///< simulations spent
};

/// Probe helper: simulate `config` at `qps` and report whether the delay
/// constraint held (all requests completed and P99 delay under the limit).
bool probe_feasible(const SimulationMetrics& metrics, int num_requests,
                    const CapacitySearchOptions& options);

/// Offline (all-requests-at-t0) throughput of the deployment in QPS, used
/// both as the binary search's initial guess and as the branch-and-bound
/// pruning heuristic in Vidur-Search. It is not a true upper bound:
/// sustainable capacity has been measured 25-50% above it. Returns 0 for
/// infeasible deployments.
double offline_throughput_qps(VidurSession& session,
                              const DeploymentConfig& config,
                              const TraceSpec& workload,
                              const CapacitySearchOptions& options);

/// Find the capacity of `config` for the given workload.
/// Infeasible configurations (model does not fit, requests exceed the KV
/// pool) yield `feasible == false` rather than throwing.
/// `offline_qps_hint` > 0 skips the internal offline probe (pass the value
/// from offline_throughput_qps to avoid duplicate work).
CapacityResult find_capacity(VidurSession& session,
                             const DeploymentConfig& config,
                             const TraceSpec& workload,
                             const CapacitySearchOptions& options,
                             double offline_qps_hint = 0.0);

}  // namespace vidur
