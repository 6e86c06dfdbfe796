// VidurSession: the library's main entry point.
//
// Owns model onboarding (paper Fig. 2, components 1-3): profiling the model's
// operators on each SKU and training the runtime estimator — then runs
// simulations of arbitrary deployment configurations against request traces:
//
//   VidurSession session(model_by_name("llama2-70b"));
//   DeploymentConfig config = ...;
//   Trace trace = generate_trace(trace_by_name("chat1m"), arrivals, 500, 1);
//   SimulationMetrics m = session.simulate(config, trace);
//
// `simulate()` uses the runtime-estimator predictor (Vidur proper);
// `simulate_reference()` replays the same deployment on the ground-truth
// executor with measurement jitter — the stand-in for a real testbed run,
// used by the fidelity experiments (paper §7.2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/deployment.h"
#include "estimator/runtime_estimator.h"
#include "execution/execution_backend.h"
#include "metrics/metrics.h"
#include "model/model_spec.h"
#include "profiler/profiler.h"
#include "sim/simulator.h"
#include "workload/request.h"

namespace vidur {

struct SessionOptions {
  ProfilerOptions profiler;
  RuntimeEstimator::Options estimator;
  CpuOverheadModel cpu_overhead;
  double memory_utilization = 0.9;
  /// TP degrees profiled during onboarding (must cover every simulated TP).
  std::vector<int> tp_degrees = {1, 2, 4};
  /// Gather per-operator time attribution in every simulation (paper §5.2).
  bool collect_operator_metrics = false;
};

class VidurSession {
 public:
  explicit VidurSession(ModelSpec model)
      : VidurSession(std::move(model), SessionOptions{}) {}
  VidurSession(ModelSpec model, SessionOptions options);

  const ModelSpec& model() const { return model_; }
  const SessionOptions& options() const { return options_; }

  /// Profile + train the estimator for a SKU (idempotent; simulate() calls
  /// this lazily). Thread-safe.
  void onboard(const std::string& sku_name);

  const ProfileDb& profile(const std::string& sku_name);
  const RuntimeEstimator& estimator(const std::string& sku_name);

  /// Vidur simulation: runtime-estimator backend. Thread-safe. Pass the
  /// scenario's tenant identities to get per-tenant metric breakdowns for a
  /// tenant-tagged trace (see src/scenario/). `obs` attaches observability
  /// (trace recorder, shared registry, rolling windows — src/obs/); the
  /// defaults record nothing extra.
  SimulationMetrics simulate(const DeploymentConfig& config,
                             const Trace& trace,
                             const std::vector<TenantInfo>& tenants = {},
                             const SimObs& obs = {});

  /// Ground-truth replay of the same deployment ("Real" bars in Fig. 3/4).
  SimulationMetrics simulate_reference(
      const DeploymentConfig& config, const Trace& trace, std::uint64_t seed,
      const std::vector<TenantInfo>& tenants = {}, const SimObs& obs = {});

  /// Total simulated GPU time across every simulate() call (used by the
  /// Table 2 cost-savings accounting: this is what the runs would have cost
  /// on real hardware).
  double simulated_gpu_seconds() const;
  std::int64_t num_simulations() const;

 private:
  SimulationConfig make_sim_config(const DeploymentConfig& config) const;
  void account(const SimulationMetrics& metrics,
               const DeploymentConfig& config);
  /// Fill unset capacities of the pools the cost-aware scale-out policy
  /// ranks by $/SLO-point (the autoscaled pools of a role that has two or
  /// more of them) with the estimator-derived relative throughput
  /// (pool_capacity_weight).
  void prepare_pools(SimulationConfig& sim);
  /// Relative per-replica capacity of one pool: the reciprocal predicted
  /// time of a canonical continuous-batching iteration (one 512-token
  /// prefill chunk + 31 decodes at 512 KV context) across the pool's
  /// pipeline, from the RuntimeEstimator's per-SKU predictions.
  double pool_capacity_weight(const PoolSpec& pool);

  ModelSpec model_;
  SessionOptions options_;
  std::map<std::string, ProfileDb> profiles_;
  std::map<std::string, std::unique_ptr<RuntimeEstimator>> estimators_;
  mutable std::mutex mutex_;
  double simulated_gpu_seconds_ = 0.0;
  std::int64_t num_simulations_ = 0;
};

}  // namespace vidur
