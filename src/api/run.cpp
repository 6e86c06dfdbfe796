#include "api/run.h"

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "cluster/pool.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/analysis.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "search/elastic_plan.h"
#include "search/search.h"

namespace vidur {

namespace {

/// Materialize the spec's workload: a scenario trace (with tenant infos)
/// or a synthetic trace from the named length distribution.
Trace build_trace(const ExperimentSpec& spec,
                  std::vector<TenantInfo>* tenants) {
  if (!spec.workload.synthetic()) {
    Scenario scenario = scenario_by_name(spec.workload.scenario);
    if (spec.workload.num_requests > 0)
      scenario.num_requests = spec.workload.num_requests;
    *tenants = scenario.tenant_infos();
    return generate_scenario_trace(scenario, spec.seed);
  }
  return generate_trace(trace_by_name(spec.workload.trace),
                        spec.workload.arrival, spec.workload.num_requests,
                        spec.seed);
}

/// Context the analysis engine cannot read off the record stream: SLO
/// targets (global + per-tenant) and the pool name of every replica slot.
/// Also embedded under "context" in exported trace documents so
/// `vidur analyze trace.json` reproduces the in-process report.
AnalysisOptions make_analysis_options(const ExperimentSpec& spec,
                                      const std::vector<TenantInfo>& tenants) {
  AnalysisOptions options;
  options.ttft_target = spec.slo.ttft_target;
  options.tbt_target = spec.slo.tbt_target;
  for (const TenantInfo& t : tenants) {
    TenantSloOverride ov;
    ov.tenant = static_cast<int>(t.id);
    ov.name = t.name;
    ov.ttft_target = t.slo.ttft_target;
    ov.tbt_target = t.slo.tbt_target;
    options.tenants.push_back(std::move(ov));
  }
  const std::vector<PoolSpec> pools = spec.deployment.lowered_pools();
  for (const int pool : pool_slot_layout(pools))
    options.replica_pools.push_back(
        pools[static_cast<std::size_t>(pool)].name);
  return options;
}

ExperimentResult dispatch(VidurSession& session, const ExperimentSpec& spec) {
  ExperimentResult result;
  result.spec = spec;
  // Observability attachments of the simulate/reference modes: the recorder
  // outlives the run (sim borrows it), then its records become the result's
  // Chrome trace document and/or the analytics report (obs.analyze implies
  // recording even without a trace export).
  std::unique_ptr<TraceRecorder> recorder;
  SimObs obs;
  std::vector<TenantInfo> tenants;
  if (spec.mode == ExperimentMode::kSimulate ||
      spec.mode == ExperimentMode::kReference) {
    if (spec.obs.trace || spec.obs.analyze) {
      recorder = std::make_unique<TraceRecorder>(
          static_cast<std::size_t>(spec.obs.trace_capacity));
      obs.trace = recorder.get();
    }
    obs.rolling_window_s = spec.obs.rolling_window_s;
  }
  // The fault injector's RNG streams default to a stream derived from the
  // experiment seed (splitmix64 finalizer, so faults never correlate with
  // trace generation). Resolved here, on a copy, so result.spec round-trips
  // the user's `seed: 0` losslessly.
  DeploymentConfig deployment = spec.deployment;
  if (deployment.faults.enabled() && deployment.faults.seed == 0) {
    std::uint64_t z = spec.seed + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    deployment.faults.seed = z ^ (z >> 31);
  }
  switch (spec.mode) {
    case ExperimentMode::kSimulate: {
      const Trace trace = build_trace(spec, &tenants);
      result.metrics = session.simulate(deployment, trace, tenants, obs);
      break;
    }
    case ExperimentMode::kReference: {
      const Trace trace = build_trace(spec, &tenants);
      result.metrics =
          session.simulate_reference(deployment, trace, spec.seed,
                                     tenants, obs);
      break;
    }
    case ExperimentMode::kCapacitySearch: {
      VidurSearchOptions options;
      options.slo = spec.slo;
      options.num_threads = spec.num_threads;
      options.capacity.trace_seed = spec.seed;
      if (spec.workload.num_requests > 0)
        options.capacity.num_requests = spec.workload.num_requests;
      result.search = run_search(session, spec.search,
                                 trace_by_name(spec.workload.trace), options);
      break;
    }
    case ExperimentMode::kElasticPlan: {
      Scenario scenario = scenario_by_name(spec.workload.scenario);
      if (spec.workload.num_requests > 0)
        scenario.num_requests = spec.workload.num_requests;
      ElasticPlanOptions options;
      options.slo_target = spec.elastic.slo_target;
      options.max_replicas = spec.elastic.max_replicas;
      options.burst_slots = spec.elastic.burst_slots;
      options.trace_seed = spec.seed;
      if (!spec.deployment.pools.empty()) {
        // Heterogeneous pools: each pool's slot count is its own ceiling
        // and the per-pool autoscale sections name the policies under
        // test; the planner builds the static-peak twin itself.
        result.elastic = plan_elastic_capacity_pools(
            session, spec.deployment, scenario, options);
        break;
      }
      // The deployment's autoscale section names the policy under test;
      // plan_elastic_capacity owns enabling/disabling it per run.
      DeploymentConfig base = spec.deployment;
      AutoscalerConfig policy = std::move(base.autoscale);
      base.autoscale = AutoscalerConfig{};
      result.elastic =
          plan_elastic_capacity(session, base, scenario, policy, options);
      break;
    }
  }
  if (recorder != nullptr) {
    const std::vector<TraceRecord> records = recorder->records();
    const AnalysisOptions options = make_analysis_options(spec, tenants);
    if (spec.obs.analyze)
      result.analysis = analysis_json(analyze_trace(records, options));
    if (spec.obs.trace) {
      result.trace = chrome_trace_json(records);
      result.trace.set("context", analysis_options_json(options));
    }
  }
  return result;
}

SessionOptions session_options(const ExperimentSpec& spec) {
  SessionOptions options;
  options.tp_degrees = spec.tp_degrees;
  return options;
}

void check_session(const VidurSession& session, const ExperimentSpec& spec) {
  VIDUR_CHECK_MSG(session.model().name == spec.model,
                  "run_experiment: the session's model '"
                      << session.model().name
                      << "' does not match the spec's model '" << spec.model
                      << "'");
  // validate() checked the spec's own tp_degrees; a caller-owned session
  // profiles its SessionOptions::tp_degrees instead, and a TP outside
  // them would die much later inside the estimator.
  const std::vector<int>& covered = session.options().tp_degrees;
  const auto check_tp = [&](int tp) {
    VIDUR_CHECK_MSG(std::count(covered.begin(), covered.end(), tp) > 0,
                    "run_experiment: tensor_parallel "
                        << tp << " is not covered by the session's "
                        "profiled tp_degrees; construct the VidurSession "
                        "with SessionOptions::tp_degrees including it");
  };
  for (const PoolSpec& pool : spec.checked_pools())
    check_tp(pool.parallel.tensor_parallel);
  if (spec.mode == ExperimentMode::kCapacitySearch)
    for (const int tp : spec.search.tp_degrees) check_tp(tp);
  for (const int tp : spec.sweep.tensor_parallel) check_tp(tp);
}

}  // namespace

ExperimentResult run_experiment(VidurSession& session,
                                const ExperimentSpec& spec) {
  spec.validate();
  check_session(session, spec);
  VIDUR_CHECK_MSG(spec.sweep.empty(),
                  "run_experiment: spec '"
                      << spec.name
                      << "' carries sweep axes; use run_sweep for it");
  return dispatch(session, spec);
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  spec.validate();
  VidurSession session(model_by_name(spec.model), session_options(spec));
  return run_experiment(session, spec);
}

std::vector<ExperimentResult> run_sweep(VidurSession& session,
                                        const ExperimentSpec& spec) {
  spec.validate();
  check_session(session, spec);
  const std::vector<ExperimentSpec> points = spec.expand_sweep();
  std::vector<ExperimentResult> results(points.size());

  const auto run_point = [&](std::size_t i) {
    try {
      results[i] = dispatch(session, points[i]);
    } catch (const Error& e) {
      // One infeasible point (model does not fit, degenerate config) must
      // not sink the rest of the sweep.
      results[i].spec = points[i];
      results[i].error = e.what();
    }
  };

  // capacity_search points already fan out across a pool internally; a
  // second pool on top would oversubscribe, so sweep those serially.
  if (points.size() == 1 || spec.mode == ExperimentMode::kCapacitySearch) {
    for (std::size_t i = 0; i < points.size(); ++i) run_point(i);
    return results;
  }

  // Onboard every swept SKU once, up front: onboarding holds the session
  // lock, so letting the workers race to it would serialize the pool's
  // first wave anyway.
  std::set<std::string> skus;
  for (const ExperimentSpec& p : points) skus.insert(p.deployment.sku_name);
  for (const std::string& sku : skus) session.onboard(sku);

  const std::size_t hardware = hardware_threads();
  const std::size_t threads = std::min<std::size_t>(
      points.size(),
      spec.num_threads > 0 ? static_cast<std::size_t>(spec.num_threads)
                           : hardware);
  ThreadPool pool(threads);
  parallel_for(pool, points.size(), run_point);
  return results;
}

std::vector<ExperimentResult> run_sweep(const ExperimentSpec& spec) {
  spec.validate();
  VidurSession session(model_by_name(spec.model), session_options(spec));
  return run_sweep(session, spec);
}

}  // namespace vidur
