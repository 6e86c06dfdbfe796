// TBT conservation: the fleet's inter-token-gap distribution holds exactly
// the gaps of completed requests. Every completed request contributes
// (tokens emitted - 1) gaps, restarts and retries included; lost, shed and
// cut-off requests contribute none, and the per-tenant distributions
// partition the fleet's. Pinned on a faulted run with lost requests and
// restarts, a run cut off by max_sim_time, and a sharded run at threads 1
// and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>

#include "execution/execution_backend.h"
#include "fault/fault_config.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "workload/trace_generator.h"

namespace vidur {
namespace {

BackendFactory reference_factory(const SimulationConfig& config) {
  const ModelSpec model = config.model;
  const NodeSpec node = config.node;
  const ParallelConfig parallel = config.parallel;
  return [model, node, parallel](ReplicaId r) {
    return std::make_unique<ReferenceExecutor>(
        node, model, parallel, 1 + static_cast<std::uint64_t>(r));
  };
}

SimulationConfig static_config(SchedulerKind kind, int replicas) {
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.parallel = ParallelConfig{1, 1, replicas};
  config.scheduler.kind = kind;
  config.scheduler.max_batch_size = 32;
  config.scheduler.chunk_size = 512;
  return config;
}

/// What the run's requests say the TBT distributions must hold.
struct Expected {
  std::size_t gaps = 0;
  Seconds max_gap = -1.0;
  std::map<TenantId, std::size_t> gaps_by_tenant;
  /// Requests whose gaps must stay out: terminal without completing, or
  /// cut off mid-flight, after emitting two or more tokens.
  int excluded_with_gaps = 0;
  /// Completed requests that emitted tokens before a restart or retry.
  int completed_with_replayed_tokens = 0;
};

Expected expected_from(const Simulator& sim) {
  Expected e;
  for (const RequestState& r : sim.request_states()) {
    const RequestRecord& rec = r.record;
    if (!rec.completed()) {
      if (rec.tokens_emitted >= 2) ++e.excluded_with_gaps;
      continue;
    }
    EXPECT_GE(rec.tokens_emitted, 1) << "request " << rec.id;
    const auto gaps = static_cast<std::size_t>(rec.tokens_emitted - 1);
    e.gaps += gaps;
    e.gaps_by_tenant[rec.tenant] += gaps;
    e.max_gap = std::max(e.max_gap, rec.worst_tbt());
    if (rec.tokens_emitted > rec.decode_tokens)
      ++e.completed_with_replayed_tokens;
  }
  return e;
}

void expect_conserved(const Expected& e, const SimulationMetrics& m) {
  EXPECT_EQ(m.tbt.count, e.gaps);
  if (e.gaps > 0) {
    EXPECT_EQ(m.tbt.max, e.max_gap);
  }
  std::size_t tenant_total = 0;
  for (const auto& t : m.tenant_metrics) {
    EXPECT_EQ(t.tbt.count, e.gaps_by_tenant.count(t.info.id)
                               ? e.gaps_by_tenant.at(t.info.id)
                               : 0u)
        << t.info.name;
    tenant_total += t.tbt.count;
  }
  EXPECT_EQ(tenant_total, m.tbt.count);
}

TEST(TbtConservation, FaultedRunCountsOnlyCompletedRequests) {
  // Violent crash churn with a one-attempt retry budget loses requests
  // mid-decode; a tight KV pool preempts and restarts others.
  SimulationConfig config = static_config(SchedulerKind::kSarathi, 3);
  config.memory_utilization = 0.3;
  config.global_scheduler = GlobalSchedulerKind::kCacheAware;
  config.prefix_cache.enabled = true;
  config.autoscale.kind = AutoscalerKind::kReactive;
  config.autoscale.min_replicas = 2;
  config.autoscale.initial_replicas = 3;
  config.autoscale.decision_interval = 2.0;
  config.autoscale.provision_delay = 2.0;
  config.autoscale.warmup_delay = 1.0;
  config.autoscale.scale_down_cooldown = 60.0;
  config.autoscale.target_load_per_replica = 6.0;
  config.autoscale.scale_up_load = 10.0;
  config.autoscale.scale_down_load = 0.25;
  FaultProfile crashes;
  crashes.crash_mtbf_s = 12.0;
  crashes.spot_windows = {SpotWindow{20.0, 40.0, 2, 0.0},
                          SpotWindow{70.0, 30.0, 1, 5.0}};
  config.faults.seed = 99;
  config.faults.profiles = {crashes};
  config.faults.recovery.max_attempts = 1;
  config.faults.recovery.backoff_base_s = 0.25;
  const Scenario scenario = scenario_by_name("spot-churn");
  config.tenants = scenario.tenant_infos();
  Scenario sized = scenario;
  sized.num_requests = 140;
  const Trace trace = generate_scenario_trace(sized, 31);

  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  const Expected e = expected_from(sim);
  ASSERT_TRUE(m.resilience.enabled);
  EXPECT_GT(m.resilience.num_lost, 0);
  EXPECT_GT(m.num_restarts, 0);
  EXPECT_GT(e.excluded_with_gaps, 0) << "no lost request had gaps to leak";
  EXPECT_GT(e.completed_with_replayed_tokens, 0)
      << "no completed request re-emitted tokens after a restart";
  ASSERT_GT(m.tenant_metrics.size(), 1u);
  expect_conserved(e, m);
}

TEST(TbtConservation, CutOffRunCountsOnlyCompletedRequests) {
  SimulationConfig config = static_config(SchedulerKind::kVllm, 1);
  config.max_sim_time = 20.0;
  const Scenario scenario = scenario_by_name("batch-over-interactive");
  config.tenants = scenario.tenant_infos();
  Scenario sized = scenario;
  sized.num_requests = 200;
  const Trace trace = generate_scenario_trace(sized, 11);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  const Expected e = expected_from(sim);
  EXPECT_LT(m.num_completed, 200u);
  EXPECT_GT(m.num_completed, 0u);
  EXPECT_GT(e.excluded_with_gaps, 0) << "no cut-off request had gaps";
  ASSERT_GT(m.tenant_metrics.size(), 1u);
  expect_conserved(e, m);
}

TEST(TbtConservation, ShardedRunCountsOnlyCompletedRequests) {
  // A static round-robin fleet engages the sharded core: each replica
  // folds its own gaps on its shard thread.
  SimulationConfig config = static_config(SchedulerKind::kSarathi, 4);
  const Scenario scenario = scenario_by_name("batch-over-interactive");
  config.tenants = scenario.tenant_infos();
  Scenario sized = scenario;
  sized.num_requests = 240;
  const Trace trace = generate_scenario_trace(sized, 5);

  Summary serial;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    config.threads = threads;
    Simulator sim(config, trace, reference_factory(config));
    const SimulationMetrics m = sim.run();
    ASSERT_GT(m.tenant_metrics.size(), 1u);
    expect_conserved(expected_from(sim), m);
    if (threads == 1) {
      serial = m.tbt;
      continue;
    }
    EXPECT_EQ(m.tbt.count, serial.count);
    for (const auto field :
         {&Summary::mean, &Summary::stddev, &Summary::min, &Summary::p50,
          &Summary::p90, &Summary::p95, &Summary::p99, &Summary::max})
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m.tbt.*field),
                std::bit_cast<std::uint64_t>(serial.*field));
  }
}

}  // namespace
}  // namespace vidur
