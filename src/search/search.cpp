#include "search/search.h"

#include <algorithm>
#include <thread>

namespace vidur {

std::optional<ConfigEvaluation> SearchResult::best() const {
  std::optional<ConfigEvaluation> out;
  for (const auto& e : evaluations) {
    if (!e.feasible || !e.meets_slo) continue;
    if (!out || e.qps_per_dollar > out->qps_per_dollar) out = e;
  }
  return out;
}

std::optional<ConfigEvaluation> SearchResult::best_unconstrained() const {
  std::optional<ConfigEvaluation> out;
  for (const auto& e : evaluations) {
    if (!e.feasible) continue;
    if (!out || e.qps_per_dollar > out->qps_per_dollar) out = e;
  }
  return out;
}

std::vector<ConfigEvaluation> SearchResult::pareto_frontier(
    bool use_ttft) const {
  auto latency = [use_ttft](const ConfigEvaluation& e) {
    return use_ttft ? e.ttft_p90 : e.tbt_p99;
  };
  std::vector<ConfigEvaluation> frontier;
  for (const auto& e : evaluations) {
    if (!e.feasible) continue;
    bool dominated = false;
    for (const auto& other : evaluations) {
      if (!other.feasible) continue;
      const bool better_latency = latency(other) < latency(e);
      const bool better_value = other.qps_per_dollar > e.qps_per_dollar;
      const bool no_worse = latency(other) <= latency(e) &&
                            other.qps_per_dollar >= e.qps_per_dollar;
      if (no_worse && (better_latency || better_value)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) frontier.push_back(e);
  }
  std::sort(frontier.begin(), frontier.end(),
            [&](const ConfigEvaluation& a, const ConfigEvaluation& b) {
              return latency(a) < latency(b);
            });
  return frontier;
}

namespace {

ConfigEvaluation evaluate_config(VidurSession& session,
                                 const DeploymentConfig& config,
                                 const TraceSpec& workload,
                                 const VidurSearchOptions& options,
                                 double offline_qps) {
  ConfigEvaluation eval;
  eval.config = config;
  eval.cost_per_hour = config.cost_per_hour();
  const CapacityResult cap = find_capacity(session, config, workload,
                                           options.capacity, offline_qps);
  eval.num_probes = cap.num_probes;
  if (cap.feasible) {
    eval.feasible = true;
    eval.capacity_qps = cap.capacity_qps;
    eval.qps_per_dollar = cap.capacity_qps / eval.cost_per_hour;
    eval.ttft_p90 = cap.metrics_at_capacity.ttft.p90;
    eval.tbt_p99 = cap.metrics_at_capacity.tbt.p99;
    // A zero target is disabled (see SloSpec), not an unmeetable bound.
    eval.meets_slo = (options.slo.ttft_target <= 0 ||
                      eval.ttft_p90 < options.slo.ttft_target) &&
                     (options.slo.tbt_target <= 0 ||
                      eval.tbt_p99 < options.slo.tbt_target);
  }
  return eval;
}

}  // namespace

SearchResult run_search(VidurSession& session, const SearchSpace& space,
                        const TraceSpec& workload,
                        const VidurSearchOptions& options) {
  const std::vector<DeploymentConfig> configs =
      space.enumerate(session.model());

  SearchResult result;
  result.evaluations.resize(configs.size());

  // Onboarding is lazy and mutex-guarded, but forcing it here keeps the
  // worker tasks free of the expensive profiling critical section.
  for (const auto& sku : space.skus) session.onboard(sku);

  const int threads = options.num_threads > 0
                          ? options.num_threads
                          : static_cast<int>(hardware_threads());
  ThreadPool pool(static_cast<std::size_t>(threads));

  // Phase 1: cheap offline-throughput probe for every config (one static
  // simulation each). Offline throughput upper-bounds capacity.
  std::vector<double> offline_qps(configs.size(), 0.0);
  parallel_for(pool, configs.size(), [&](std::size_t i) {
    offline_qps[i] =
        offline_throughput_qps(session, configs[i], workload, options.capacity);
  });

  if (!options.prune) {
    parallel_for(pool, configs.size(), [&](std::size_t i) {
      result.evaluations[i] = evaluate_config(session, configs[i], workload,
                                              options, offline_qps[i]);
      ++result.evaluations[i].num_probes;  // the offline probe
    });
    return result;
  }

  // Phase 2 (branch and bound): visit configs in descending upper-bound
  // QPS/$ order; skip a config when even its upper bound cannot beat the
  // best SLO-compliant capacity QPS/$ already found. The "bound" is the
  // offline-throughput heuristic, not a true bound, so best() can miss a
  // config whose capacity exceeds its offline throughput.
  std::vector<double> upper_bound(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i)
    upper_bound[i] = offline_qps[i] / configs[i].cost_per_hour();
  std::vector<std::size_t> order(configs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return upper_bound[a] > upper_bound[b];
  });

  double best_qps_per_dollar = 0.0;
  for (std::size_t i : order) {
    ConfigEvaluation& eval = result.evaluations[i];
    if (offline_qps[i] <= 0.0 || upper_bound[i] <= best_qps_per_dollar) {
      // Pruned: record the bound so callers can see why it was skipped.
      eval.config = configs[i];
      eval.cost_per_hour = configs[i].cost_per_hour();
      eval.num_probes = 1;
      continue;
    }
    eval = evaluate_config(session, configs[i], workload, options,
                           offline_qps[i]);
    ++eval.num_probes;  // the offline probe
    // Only an SLO-compliant config bounds the rest: best() ignores the
    // others, so pruning against them could skip the compliant optimum.
    if (eval.feasible && eval.meets_slo)
      best_qps_per_dollar = std::max(best_qps_per_dollar, eval.qps_per_dollar);
  }

  return result;
}

}  // namespace vidur
