// Tests for src/search: config-space enumeration, capacity search, pruning
// exactness, SLO filtering and Pareto frontiers (Vidur-Search, paper §6).
#include <gtest/gtest.h>

#include <cmath>

#include "search/search.h"

namespace vidur {
namespace {

SessionOptions fast_session_options() {
  SessionOptions options;
  options.profiler.max_tokens = 8192;
  options.tp_degrees = {1, 2};
  return options;
}

VidurSession& shared_session() {
  static VidurSession session(model_by_name("llama2-7b"),
                              fast_session_options());
  return session;
}

SearchSpace tiny_space() {
  SearchSpace space;
  space.skus = {"a100"};
  space.tp_degrees = {1, 2};
  space.pp_degrees = {1};
  space.max_total_gpus = 2;
  space.schedulers = {SchedulerKind::kVllm, SchedulerKind::kSarathi};
  space.batch_sizes = {32};
  space.sarathi_chunk_sizes = {512};
  return space;
}

CapacitySearchOptions fast_capacity() {
  CapacitySearchOptions options;
  options.num_requests = 100;
  options.requests_per_slot = 4;
  options.binary_search_iters = 3;
  return options;
}

// ------------------------------------------------------------ config space

TEST(ConfigSpace, EnumeratesExpectedCount) {
  // tp {1,2} x pp {1} x sched {vllm, sarathi(1 chunk)} x bs {32} x sku {1}.
  const auto configs = tiny_space().enumerate(model_by_name("llama2-7b"));
  EXPECT_EQ(configs.size(), 4u);
}

TEST(ConfigSpace, SkipsInvalidTpDegrees) {
  SearchSpace space = tiny_space();
  space.tp_degrees = {1, 3};  // 3 does not divide 32 heads
  const auto configs = space.enumerate(model_by_name("llama2-7b"));
  for (const auto& c : configs) EXPECT_NE(c.parallel.tensor_parallel, 3);
}

TEST(ConfigSpace, SkipsOversizedParallelism) {
  SearchSpace space = tiny_space();
  space.tp_degrees = {2};
  space.pp_degrees = {2};
  space.max_total_gpus = 2;  // tp*pp = 4 > 2
  EXPECT_TRUE(space.enumerate(model_by_name("llama2-7b")).empty());
}

TEST(ConfigSpace, ReplicasFillGpuBudget) {
  SearchSpace space = tiny_space();
  space.max_total_gpus = 8;
  for (const auto& c : space.enumerate(model_by_name("llama2-7b"))) {
    EXPECT_LE(c.total_gpus(), 8);
    EXPECT_GT(c.total_gpus(), 8 - c.parallel.gpus_per_replica());
  }
}

TEST(ConfigSpace, BatchSizeDividedAcrossPipelineStages) {
  SearchSpace space = tiny_space();
  space.pp_degrees = {2};
  space.max_total_gpus = 4;
  space.batch_sizes = {64};
  for (const auto& c : space.enumerate(model_by_name("llama2-7b")))
    EXPECT_EQ(c.scheduler.max_batch_size, 32);  // 64 / pp2
}

TEST(ConfigSpace, SarathiGetsChunkVariants) {
  SearchSpace space = tiny_space();
  space.schedulers = {SchedulerKind::kSarathi};
  space.sarathi_chunk_sizes = {512, 1024, 2048};
  const auto configs = space.enumerate(model_by_name("llama2-7b"));
  EXPECT_EQ(configs.size(), 6u);  // 2 tp x 3 chunks
}

// --------------------------------------------------------------- capacity

TEST(Capacity, ProbeRequestsScaleWithConcurrency) {
  CapacitySearchOptions options;
  options.num_requests = 100;
  options.requests_per_slot = 6;
  DeploymentConfig config;
  config.scheduler.max_batch_size = 64;
  config.parallel = ParallelConfig{1, 1, 4};
  EXPECT_EQ(options.probe_requests(config), 6 * 64 * 4);
  config.scheduler.max_batch_size = 2;
  config.parallel = ParallelConfig{1, 1, 1};
  EXPECT_EQ(options.probe_requests(config), 100);
}

TEST(Capacity, FindsSaneCapacityBelowOfflineBound) {
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 1, 1};
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 32;
  const CapacitySearchOptions options = fast_capacity();
  const double offline = offline_throughput_qps(
      shared_session(), config, trace_by_name("chat1m"), options);
  const CapacityResult cap = find_capacity(shared_session(), config,
                                           trace_by_name("chat1m"), options);
  ASSERT_TRUE(cap.feasible);
  EXPECT_GT(cap.capacity_qps, 0.1);
  EXPECT_LE(cap.capacity_qps, offline * 1.01);
  EXPECT_LT(cap.metrics_at_capacity.scheduling_delay.p99,
            options.max_p99_scheduling_delay);
  EXPECT_GT(cap.num_probes, 2);
}

TEST(Capacity, MoreReplicasRaiseCapacity) {
  DeploymentConfig one;
  one.sku_name = "a100";
  one.parallel = ParallelConfig{1, 1, 1};
  one.scheduler.kind = SchedulerKind::kSarathi;
  one.scheduler.max_batch_size = 32;
  DeploymentConfig two = one;
  two.parallel.num_replicas = 2;

  const CapacitySearchOptions options = fast_capacity();
  const CapacityResult cap1 = find_capacity(shared_session(), one,
                                            trace_by_name("chat1m"), options);
  const CapacityResult cap2 = find_capacity(shared_session(), two,
                                            trace_by_name("chat1m"), options);
  ASSERT_TRUE(cap1.feasible);
  ASSERT_TRUE(cap2.feasible);
  // Two replicas serve strictly more than one; sublinear scaling is fine
  // (binary-search granularity), superlinear is not.
  EXPECT_GT(cap2.capacity_qps, cap1.capacity_qps * 1.3);
  EXPECT_LT(cap2.capacity_qps, cap1.capacity_qps * 2.3);
}

TEST(Capacity, InfeasibleDeploymentReportsNotFeasible) {
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 1, 1};
  // 70B cannot fit on one A100; the session profiled 7B, but planning fails
  // first inside the simulation -> feasible == false, no throw.
  VidurSession session70(model_by_name("llama2-70b"), fast_session_options());
  const CapacityResult cap = find_capacity(
      session70, config, trace_by_name("chat1m"), fast_capacity());
  EXPECT_FALSE(cap.feasible);
  EXPECT_EQ(cap.capacity_qps, 0.0);
}

TEST(Capacity, ProbeFeasibilityCriteria) {
  CapacitySearchOptions options;
  options.max_p99_scheduling_delay = 5.0;
  SimulationMetrics m;
  m.num_completed = 100;
  m.scheduling_delay.p99 = 1.0;
  EXPECT_TRUE(probe_feasible(m, 100, options));
  m.scheduling_delay.p99 = 6.0;
  EXPECT_FALSE(probe_feasible(m, 100, options));
  m.scheduling_delay.p99 = 1.0;
  m.num_completed = 99;  // incomplete run
  EXPECT_FALSE(probe_feasible(m, 100, options));
}

// ----------------------------------------------------------------- search

TEST(Search, PruningFindsTheSameOptimum) {
  VidurSearchOptions options;
  options.capacity = fast_capacity();
  options.num_threads = 2;
  options.prune = false;
  const SearchResult full = run_search(shared_session(), tiny_space(),
                                       trace_by_name("chat1m"), options);
  options.prune = true;
  const SearchResult pruned = run_search(shared_session(), tiny_space(),
                                         trace_by_name("chat1m"), options);
  ASSERT_TRUE(full.best_unconstrained().has_value());
  ASSERT_TRUE(pruned.best_unconstrained().has_value());
  EXPECT_EQ(full.best_unconstrained()->config.to_string(),
            pruned.best_unconstrained()->config.to_string());
  // Pruning must not change the optimum's value materially (same probes).
  EXPECT_NEAR(full.best_unconstrained()->qps_per_dollar,
              pruned.best_unconstrained()->qps_per_dollar, 1e-9);

  // With a TBT target just below the unconstrained optimum's TBT P99, that
  // optimum misses the SLO. Its QPS/$ must not bound the pruning, or it
  // would prune the SLO-compliant optimum.
  options.slo.ttft_target = 0.0;  // disabled
  options.slo.tbt_target =
      std::nextafter(full.best_unconstrained()->tbt_p99, 0.0);
  options.prune = false;
  const SearchResult full_slo = run_search(shared_session(), tiny_space(),
                                           trace_by_name("chat1m"), options);
  options.prune = true;
  const SearchResult pruned_slo = run_search(
      shared_session(), tiny_space(), trace_by_name("chat1m"), options);
  ASSERT_TRUE(full_slo.best().has_value());
  ASSERT_TRUE(pruned_slo.best().has_value());
  EXPECT_EQ(full_slo.best()->config.to_string(),
            pruned_slo.best()->config.to_string());
  EXPECT_NEAR(full_slo.best()->qps_per_dollar,
              pruned_slo.best()->qps_per_dollar, 1e-9);
}

TEST(Search, EvaluationsCoverTheWholeSpace) {
  VidurSearchOptions options;
  options.capacity = fast_capacity();
  options.prune = false;
  const SearchResult result = run_search(shared_session(), tiny_space(),
                                         trace_by_name("chat1m"), options);
  EXPECT_EQ(result.evaluations.size(), 4u);
  for (const auto& e : result.evaluations) {
    EXPECT_TRUE(e.feasible);
    EXPECT_GT(e.capacity_qps, 0.0);
    EXPECT_GT(e.cost_per_hour, 0.0);
    EXPECT_NEAR(e.qps_per_dollar, e.capacity_qps / e.cost_per_hour, 1e-12);
  }
}

TEST(Search, SloFilteringSelectsCompliantBest) {
  VidurSearchOptions options;
  options.capacity = fast_capacity();
  options.prune = false;
  options.slo.ttft_target = 1e9;  // permissive
  options.slo.tbt_target = 1e9;
  const SearchResult result = run_search(shared_session(), tiny_space(),
                                         trace_by_name("chat1m"), options);
  ASSERT_TRUE(result.best().has_value());
  EXPECT_EQ(result.best()->config.to_string(),
            result.best_unconstrained()->config.to_string());

  // Impossible SLOs: nothing qualifies.
  SearchResult copy = result;
  for (auto& e : copy.evaluations) e.meets_slo = false;
  EXPECT_FALSE(copy.best().has_value());
  EXPECT_TRUE(copy.best_unconstrained().has_value());
}

TEST(Search, ParetoFrontierIsNonDominatedAndSorted) {
  SearchResult result;
  auto add = [&result](double ttft, double tbt, double value) {
    ConfigEvaluation e;
    e.feasible = true;
    e.ttft_p90 = ttft;
    e.tbt_p99 = tbt;
    e.qps_per_dollar = value;
    result.evaluations.push_back(e);
  };
  add(1.0, 0.10, 5.0);   // frontier (fast, good value)
  add(2.0, 0.20, 10.0);  // frontier (slower, best value)
  add(1.5, 0.15, 4.0);   // dominated by (1.0, 5.0)
  add(3.0, 0.30, 10.0);  // dominated by (2.0, 10.0)

  const auto frontier = result.pareto_frontier(/*use_ttft=*/true);
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_DOUBLE_EQ(frontier[0].ttft_p90, 1.0);   // sorted by latency
  EXPECT_DOUBLE_EQ(frontier[1].ttft_p90, 2.0);
  EXPECT_DOUBLE_EQ(frontier[1].qps_per_dollar, 10.0);

  const auto tbt_frontier = result.pareto_frontier(/*use_ttft=*/false);
  ASSERT_EQ(tbt_frontier.size(), 2u);
  EXPECT_DOUBLE_EQ(tbt_frontier[0].tbt_p99, 0.10);
}

TEST(Search, InfeasibleConfigsExcludedFromFrontier) {
  SearchResult result;
  ConfigEvaluation infeasible;
  infeasible.feasible = false;
  result.evaluations.push_back(infeasible);
  EXPECT_TRUE(result.pareto_frontier(true).empty());
  EXPECT_FALSE(result.best_unconstrained().has_value());
}

}  // namespace
}  // namespace vidur
