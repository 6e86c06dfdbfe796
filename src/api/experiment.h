// Declarative experiment API: one serializable value type that describes a
// complete Vidur experiment — model, deployment, workload, SLOs, seeds,
// mode, and optional sweep axes — so every scenario the library can play is
// reachable from a JSON file (the `vidur` CLI) or three lines of builder
// calls, with no bespoke harness program to write and recompile.
//
//   ExperimentSpec spec;
//   spec.with_model("llama2-70b")
//       .with_parallelism(4, 1, 2)
//       .with_trace("chat1m", /*qps=*/3.0, /*num_requests=*/500);
//   ExperimentResult result = run_experiment(spec);     // src/api/run.h
//
// A spec round-trips losslessly through JSON (parse(serialize(s)) == s) and
// validate() turns every common misconfiguration into an actionable error
// (unknown names get a did-you-mean, incompatible features name both sides).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/deployment.h"
#include "metrics/metrics.h"
#include "search/config_space.h"
#include "workload/trace_generator.h"

namespace vidur {

/// What run_experiment() does with the spec.
enum class ExperimentMode {
  kSimulate,        ///< VidurSession::simulate (runtime-estimator backend)
  kReference,       ///< simulate_reference (ground-truth replay, paper "Real")
  kCapacitySearch,  ///< Vidur-Search over `search` space (run_search)
  kElasticPlan,     ///< static peak vs autoscaled (plan_elastic_capacity)
};

/// Stable name, e.g. "simulate", "capacity_search". Inverse:
/// experiment_mode_from_name.
const std::string& experiment_mode_name(ExperimentMode mode);
ExperimentMode experiment_mode_from_name(const std::string& name);
/// Every mode name, in declaration order (for listings/validation).
const std::vector<std::string>& experiment_mode_names();

/// The workload an experiment plays: either a named scenario from the
/// ScenarioRegistry (multi-tenant, time-varying), or a synthetic workload
/// composed from a built-in trace's length distribution and an arrival
/// process.
struct WorkloadSpec {
  /// Registered scenario name; empty selects the synthetic form.
  std::string scenario;
  /// Built-in trace name (synthetic form only).
  std::string trace = "chat1m";
  ArrivalSpec arrival{ArrivalKind::kPoisson, 1.5, 2.0};
  /// Request count; 0 keeps a named scenario's own default.
  int num_requests = 200;

  bool synthetic() const { return scenario.empty(); }

  bool operator==(const WorkloadSpec&) const = default;
};

/// Options of the elastic_plan mode (mirrors ElasticPlanOptions; the trace
/// seed comes from ExperimentSpec::seed).
struct ElasticPlanSpec {
  double slo_target = 0.95;
  int max_replicas = 8;
  int burst_slots = 2;

  bool operator==(const ElasticPlanSpec&) const = default;
};

/// Observability attachments of a run (simulate/reference modes): request
/// lifecycle tracing and rolling windowed metrics. All defaults off; the
/// registry snapshot in the result is always collected regardless.
struct ObsSpec {
  /// Record lifecycle/batch/cluster trace events (the CLI's `--trace out.
  /// json` flips this on and exports Chrome trace_event JSON).
  bool trace = false;
  /// Trace ring-buffer capacity in records (oldest overwritten beyond it).
  int trace_capacity = 1 << 18;
  /// Rolling windowed metrics (per-tenant/per-pool TTFT/TBT/SLO/queue
  /// depth): window length in simulated seconds; 0 disables.
  double rolling_window_s = 0.0;
  /// Run the trace analytics engine (src/obs/analysis.h) after the
  /// simulation and attach its report to the result under "analysis".
  /// Implies trace recording for the duration of the run.
  bool analyze = false;

  bool operator==(const ObsSpec&) const = default;
};

/// Optional sweep axes: every non-empty axis replaces the base spec's value
/// and the cartesian product of all axes becomes one experiment per point
/// (run_sweep). Empty axes keep the base value.
struct SweepAxes {
  std::vector<std::string> sku;           ///< deployment.sku_name
  std::vector<int> tensor_parallel;
  std::vector<int> pipeline_parallel;
  std::vector<int> num_replicas;
  std::vector<std::string> scheduler;     ///< SchedulerKind names
  std::vector<int> max_batch_size;
  std::vector<TokenCount> chunk_size;
  std::vector<double> qps;                ///< workload.arrival.qps

  bool empty() const;
  /// Product of the non-empty axis sizes (1 when no axis is set).
  std::size_t num_points() const;

  bool operator==(const SweepAxes&) const = default;
};

struct ExperimentSpec {
  std::string name = "experiment";
  ExperimentMode mode = ExperimentMode::kSimulate;
  std::string model = "llama2-7b";
  DeploymentConfig deployment;
  WorkloadSpec workload;
  /// Latency targets: the SLO filter in capacity_search; informational
  /// elsewhere (named scenarios carry their own per-tenant SLOs).
  SloSpec slo{2.0, 0.2};
  /// Trace-generation (and reference-replay) seed.
  std::uint64_t seed = 42;
  /// TP degrees profiled during onboarding; must cover every simulated TP.
  std::vector<int> tp_degrees = {1, 2, 4};
  /// Worker threads for capacity_search and run_sweep (0 = hardware).
  int num_threads = 0;
  /// capacity_search mode: the deployment space to search.
  SearchSpace search;
  /// elastic_plan mode options.
  ElasticPlanSpec elastic;
  /// Observability: tracing and rolling windows (simulate/reference modes).
  ObsSpec obs;
  /// Optional sweep axes (run_sweep expands them; see SweepAxes).
  SweepAxes sweep;

  // ---- builder-style construction (each returns *this) ----
  ExperimentSpec& with_name(std::string n);
  ExperimentSpec& with_mode(ExperimentMode m);
  ExperimentSpec& with_model(std::string model_name);
  ExperimentSpec& with_sku(std::string sku_name);
  ExperimentSpec& with_parallelism(int tp, int pp, int replicas);
  ExperimentSpec& with_scheduler(SchedulerKind kind, int max_batch_size = 128,
                                 TokenCount chunk_size = 512);
  ExperimentSpec& with_routing(GlobalSchedulerKind kind);
  /// Synthetic Poisson workload on a built-in trace.
  ExperimentSpec& with_trace(std::string trace_name, double qps,
                             int num_requests);
  /// Named scenario workload (num_requests 0 keeps the scenario default).
  ExperimentSpec& with_scenario(std::string scenario_name,
                                int num_requests = 0);
  ExperimentSpec& with_slo(SloSpec s);
  ExperimentSpec& with_seed(std::uint64_t s);
  ExperimentSpec& with_autoscale(AutoscalerConfig autoscale);
  /// Append a named pool (heterogeneous / disaggregated deployments; see
  /// DeploymentConfig::pools).
  ExperimentSpec& with_pool(PoolSpec pool);
  /// Enable the per-replica prefix cache (deployment.prefix_cache), sized
  /// to `capacity_fraction` of each replica's KV blocks.
  ExperimentSpec& with_prefix_cache(double capacity_fraction = 0.5);
  /// Install the fault-injection block (deployment.faults): per-pool
  /// crash/spot/straggler profiles plus recovery and shed policies.
  ExperimentSpec& with_faults(FaultConfig faults);

  /// Throws vidur::Error with an actionable message on any inconsistency:
  /// unknown model/SKU/trace/scenario/scheduler names (with a did-you-mean
  /// suggestion), a TP degree not covered by `tp_degrees`, disaggregation
  /// combined with autoscaling, or mode/workload mismatches. Every
  /// deployment check runs over checked_pools(), whichever form the
  /// deployment was written in.
  void validate() const;

  /// The pools validate() checks: deployment.lowered_pools() with the
  /// homogeneous fleet at the largest size any run of this spec uses
  /// (sweep points and elastic_plan resize it; elastic_plan also caps the
  /// policy's floor at the size it picks). Throws like lowered_pools().
  std::vector<PoolSpec> checked_pools() const;

  /// Expand the sweep axes into one concrete spec per point (the base spec
  /// alone when no axis is set). Children carry a descriptive name suffix
  /// and empty sweep axes.
  std::vector<ExperimentSpec> expand_sweep() const;

  /// Lossless serialization: from_json(to_json()) == *this. Sections that
  /// equal their defaults are omitted from the output; unknown or
  /// ill-typed fields are rejected with a did-you-mean on parse.
  JsonValue to_json() const;
  static ExperimentSpec from_json(const JsonValue& json);
  std::string to_json_string() const;
  static ExperimentSpec from_json_string(const std::string& text);

  bool operator==(const ExperimentSpec&) const = default;
};

}  // namespace vidur
