// Tests for src/sim: the event queue and the end-to-end simulator across
// schedulers, parallelism configs and global routing policies.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "common/random.h"
#include "core/session.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "workload/trace_generator.h"

namespace vidur {
namespace {

// ------------------------------------------------------------ event queue

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule(1.0, [&, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule(2.0, [&] { ++fired; });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run_next();
  EXPECT_THROW(q.schedule(4.0, [] {}), Error);
}

TEST(EventQueue, RunNextOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.run_next(), Error);
}

TEST(EventQueue, NowIsMonotonicAcrossInterleavedSchedules) {
  EventQueue q;
  Rng rng(17);
  Seconds last = -1.0;
  int executed = 0;
  // Events re-schedule future events at random offsets; now() must never
  // move backwards no matter how the heap interleaves them.
  std::function<void()> chain = [&] {
    EXPECT_GE(q.now(), last);
    last = q.now();
    ++executed;
    if (executed < 200) {
      q.schedule(q.now() + rng.uniform(0.0, 2.0), chain);
      q.schedule(q.now() + rng.uniform(0.0, 2.0), chain);
    }
  };
  q.schedule(0.5, chain);
  while (!q.empty()) q.run_next();
  EXPECT_GE(executed, 200);
  EXPECT_DOUBLE_EQ(q.now(), last);
}

TEST(EventQueue, TypedEventsInterleaveFifoWithCallbacks) {
  EventQueue q;
  std::vector<std::int64_t> order;
  auto typed = [&](EventKind kind, std::int64_t marker) {
    SimEvent ev;
    ev.kind = kind;
    ev.handle = marker;
    q.schedule_event(1.0, ev);
  };
  q.schedule(1.0, [&] { order.push_back(0); });
  typed(EventKind::kStageEnd, 1);
  q.schedule(1.0, [&] { order.push_back(2); });
  typed(EventKind::kDeliverToStage, 3);
  typed(EventKind::kStageEnd, 4);
  while (!q.empty())
    q.run_next([&](const SimEvent& ev) { order.push_back(ev.handle); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, MatchesReferenceOrderAcross10kRandomSchedules) {
  // Random interleaving of pushes and pops against a brute-force reference:
  // the heap must pop in exact (time, scheduling order) sequence. Times are
  // quantized so simultaneous events are common.
  EventQueue q;
  Rng rng(2024);
  std::vector<std::pair<Seconds, std::int64_t>> reference;  // insertion order
  std::int64_t next_id = 0;
  int executed = 0;
  const auto push = [&] {
    const Seconds t =
        q.now() + std::floor(rng.uniform(0.0, 40.0)) * 0.25;
    SimEvent ev;
    ev.kind = EventKind::kStageEnd;
    ev.handle = next_id;
    q.schedule_event(t, ev);
    reference.emplace_back(t, next_id++);
  };
  const auto pop = [&] {
    // Reference: earliest time, first-scheduled among ties.
    std::size_t best = 0;
    for (std::size_t i = 1; i < reference.size(); ++i)
      if (reference[i].first < reference[best].first) best = i;
    std::int64_t popped = -1;
    q.run_next([&](const SimEvent& ev) { popped = ev.handle; });
    EXPECT_EQ(popped, reference[best].second);
    EXPECT_DOUBLE_EQ(q.now(), reference[best].first);
    reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(best));
    ++executed;
  };
  for (int step = 0; step < 10000; ++step) {
    if (reference.empty() || rng.uniform(0.0, 1.0) < 0.5)
      push();
    else
      pop();
  }
  while (!reference.empty()) pop();
  EXPECT_TRUE(q.empty());
  EXPECT_GE(executed, 4000);
}

TEST(EventQueue, TickHandlerRunsOnScheduledTicks) {
  EventQueue q;
  int ticks = 0;
  q.set_tick_handler([&] {
    if (++ticks < 3) q.schedule_tick(q.now() + 1.0);
  });
  q.schedule_tick(1.0);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(ticks, 3);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

// -------------------------------------------------------------- simulator

SimulationConfig base_config(SchedulerKind kind = SchedulerKind::kVllm,
                             int tp = 1, int pp = 1, int replicas = 1) {
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.parallel = ParallelConfig{tp, pp, replicas};
  config.scheduler.kind = kind;
  config.scheduler.max_batch_size = 32;
  config.scheduler.chunk_size = 512;
  return config;
}

BackendFactory reference_factory(const SimulationConfig& config,
                                 std::uint64_t seed = 1) {
  const ModelSpec model = config.model;
  const NodeSpec node = config.node;
  const ParallelConfig parallel = config.parallel;
  return [model, node, parallel, seed](ReplicaId r) {
    return std::make_unique<ReferenceExecutor>(node, model, parallel,
                                               seed + static_cast<std::uint64_t>(r));
  };
}

Trace poisson_trace(int n, double qps, std::uint64_t seed = 11) {
  return generate_trace(trace_by_name("chat1m"),
                        ArrivalSpec{ArrivalKind::kPoisson, qps, 0}, n, seed);
}

class SimulatorPolicyTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SimulatorPolicyTest, CompletesAllRequestsWithSaneMetrics) {
  const SimulationConfig config = base_config(GetParam());
  const Trace trace = poisson_trace(60, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 60u);
  EXPECT_GT(m.makespan, 0.0);
  EXPECT_GT(m.throughput_qps, 0.0);
  EXPECT_GT(m.mfu, 0.0);
  EXPECT_LT(m.mfu, 1.0);
  EXPECT_LE(m.busy_fraction, 1.0 + 1e-9);
  EXPECT_GT(m.ttft.p50, 0.0);
  EXPECT_GT(m.tbt.p50, 0.0);
  // Per-request invariants.
  for (const RequestState& r : sim.request_states()) {
    EXPECT_TRUE(r.finished());
    EXPECT_GE(r.record.scheduling_delay(), 0.0);
    EXPECT_GE(r.record.ttft(), 0.0);
    EXPECT_GE(r.record.e2e_latency(), r.record.ttft());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SimulatorPolicyTest,
    ::testing::Values(SchedulerKind::kFasterTransformer, SchedulerKind::kOrca,
                      SchedulerKind::kVllm, SchedulerKind::kSarathi,
                      SchedulerKind::kLightLlm),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      std::string name = scheduler_name(info.param);
      for (char& c : name)
        if (c == '+' || c == '_') c = 'P';
      return name;
    });

TEST(Simulator, DeterministicForSameSeed) {
  const SimulationConfig config = base_config();
  const Trace trace = poisson_trace(40, 1.0);
  Simulator a(config, trace, reference_factory(config, 7));
  Simulator b(config, trace, reference_factory(config, 7));
  const SimulationMetrics ma = a.run();
  const SimulationMetrics mb = b.run();
  EXPECT_DOUBLE_EQ(ma.makespan, mb.makespan);
  EXPECT_DOUBLE_EQ(ma.ttft.p90, mb.ttft.p90);
  EXPECT_DOUBLE_EQ(ma.normalized_e2e_latency.p95,
                   mb.normalized_e2e_latency.p95);
}

TEST(Simulator, PredictorRunsAreIdenticalAcrossRepeats) {
  // The replay guarantee the typed queue, the estimator cache, and the
  // stage-timing memo must preserve: rerunning the same simulation produces
  // bit-identical metrics even though the second run hits caches the first
  // run populated.
  VidurSession session(model_by_name("llama2-7b"));
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 1, 2};
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 16;
  const Trace trace = poisson_trace(50, 2.0);
  const SimulationMetrics a = session.simulate(config, trace);
  const SimulationMetrics b = session.simulate(config, trace);
  EXPECT_EQ(a.num_sim_events, b.num_sim_events);
  EXPECT_EQ(a.num_completed, b.num_completed);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.throughput_qps, b.throughput_qps);
  EXPECT_DOUBLE_EQ(a.ttft.mean, b.ttft.mean);
  EXPECT_DOUBLE_EQ(a.ttft.p99, b.ttft.p99);
  EXPECT_DOUBLE_EQ(a.tbt.mean, b.tbt.mean);
  EXPECT_DOUBLE_EQ(a.tbt.p99, b.tbt.p99);
  EXPECT_DOUBLE_EQ(a.normalized_e2e_latency.p95, b.normalized_e2e_latency.p95);
  EXPECT_DOUBLE_EQ(a.scheduling_delay.max, b.scheduling_delay.max);
  EXPECT_DOUBLE_EQ(a.mfu, b.mfu);
  EXPECT_DOUBLE_EQ(a.mbu, b.mbu);
  EXPECT_DOUBLE_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_DOUBLE_EQ(a.total_energy_joules, b.total_energy_joules);
}

TEST(Simulator, ReferenceRunsAreIdenticalForSameSeed) {
  VidurSession session(model_by_name("llama2-7b"));
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 2, 1};  // exercise pipeline events
  config.scheduler.kind = SchedulerKind::kVllm;
  config.scheduler.max_batch_size = 16;
  const Trace trace = poisson_trace(40, 2.0);
  const SimulationMetrics a = session.simulate_reference(config, trace, 99);
  const SimulationMetrics b = session.simulate_reference(config, trace, 99);
  EXPECT_EQ(a.num_sim_events, b.num_sim_events);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.ttft.mean, b.ttft.mean);
  EXPECT_DOUBLE_EQ(a.tbt.p99, b.tbt.p99);
  EXPECT_DOUBLE_EQ(a.normalized_e2e_latency.p95, b.normalized_e2e_latency.p95);
}

TEST(Simulator, DifferentSeedsDiffer) {
  const SimulationConfig config = base_config();
  const Trace trace = poisson_trace(40, 1.0);
  Simulator a(config, trace, reference_factory(config, 7));
  Simulator b(config, trace, reference_factory(config, 8));
  EXPECT_NE(a.run().makespan, b.run().makespan);
}

TEST(Simulator, RunTwiceThrows) {
  const SimulationConfig config = base_config();
  Simulator sim(config, poisson_trace(5, 1.0), reference_factory(config));
  sim.run();
  EXPECT_THROW(sim.run(), Error);
}

TEST(Simulator, MaxSimTimeTruncates) {
  SimulationConfig config = base_config();
  config.max_sim_time = 1.0;
  Simulator sim(config, poisson_trace(200, 5.0), reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_LT(m.num_completed, 200u);
  EXPECT_LE(m.makespan, 1.0 + 1e-9);
}

TEST(Simulator, PipelineParallelKeepsStagesBusy) {
  // PP=2 on one replica must outperform a serial pipeline: makespan under
  // an offline burst should be well below 2x the PP=1 per-stage work.
  SimulationConfig pp2 = base_config(SchedulerKind::kSarathi, 1, 2, 1);
  const Trace trace = generate_trace(
      trace_by_name("chat1m"), ArrivalSpec{ArrivalKind::kStatic, 0, 0}, 64, 5);
  Simulator sim2(pp2, trace, reference_factory(pp2));
  const SimulationMetrics m2 = sim2.run();
  EXPECT_EQ(m2.num_completed, 64u);

  SimulationConfig pp1 = base_config(SchedulerKind::kSarathi, 1, 1, 1);
  Simulator sim1(pp1, trace, reference_factory(pp1));
  const SimulationMetrics m1 = sim1.run();
  // Two half-model stages pipelined: between 0.55x and 1.1x of the
  // single-stage makespan (bubbles cost something, but not 2x).
  EXPECT_LT(m2.makespan, m1.makespan * 1.10);
  EXPECT_GT(m2.makespan, m1.makespan * 0.55);
}

TEST(Simulator, MultiReplicaScalesThroughput) {
  // Fixed-length requests so the comparison is not tail-limited: with
  // identical per-request work, 4 replicas serve the burst ~4x faster.
  Trace trace;
  for (int i = 0; i < 128; ++i) trace.push_back(Request{i, 0.0, 256, 64});
  SimulationConfig one = base_config(SchedulerKind::kVllm, 1, 1, 1);
  SimulationConfig four = base_config(SchedulerKind::kVllm, 1, 1, 4);
  Simulator sim1(one, trace, reference_factory(one));
  Simulator sim4(four, trace, reference_factory(four));
  const double makespan1 = sim1.run().makespan;
  const double makespan4 = sim4.run().makespan;
  EXPECT_LT(makespan4, makespan1 * 0.45);
  EXPECT_GT(makespan4, makespan1 * 0.15);  // no super-linear magic
}

TEST(Simulator, RoundRobinSpreadsRequests) {
  SimulationConfig config = base_config(SchedulerKind::kVllm, 1, 1, 4);
  config.global_scheduler = GlobalSchedulerKind::kRoundRobin;
  const Trace trace = poisson_trace(40, 2.0);
  Simulator sim(config, trace, reference_factory(config));
  sim.run();
  std::vector<int> counts(4, 0);
  for (const RequestState& r : sim.request_states())
    ++counts[static_cast<std::size_t>(r.replica)];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(Simulator, LeastOutstandingAvoidsBusyReplica) {
  SimulationConfig config = base_config(SchedulerKind::kVllm, 1, 1, 2);
  config.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
  // One giant request occupies its replica for the whole test; small
  // requests arrive slowly enough to drain between arrivals, so LOR keeps
  // routing them to the idle replica (round-robin would alternate).
  Trace trace;
  trace.push_back(Request{0, 0.0, 2000, 2000});
  for (int i = 1; i < 21; ++i)
    trace.push_back(Request{i, 0.5 * i, 64, 8});
  Simulator sim(config, trace, reference_factory(config));
  sim.run();
  const auto& states = sim.request_states();
  int with_giant = 0;
  for (std::size_t i = 1; i < states.size(); ++i)
    with_giant += states[i].replica == states[0].replica ? 1 : 0;
  EXPECT_LT(with_giant, 3);
}

TEST(Simulator, DeferredGlobalQueueCompletesEverything) {
  SimulationConfig config = base_config(SchedulerKind::kSarathi, 1, 1, 2);
  config.global_scheduler = GlobalSchedulerKind::kDeferred;
  const Trace trace = poisson_trace(50, 3.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 50u);
}

TEST(Simulator, InvalidConfigThrows) {
  SimulationConfig config = base_config();
  config.model = model_by_name("llama2-70b");  // does not fit 1x A100
  EXPECT_THROW(
      Simulator(config, poisson_trace(5, 1.0), reference_factory(config)),
      Error);
}

TEST(Simulator, AsyncPipelineCommNeverSlower) {
  // Overlapping the inter-stage send with the next micro-batch can only
  // remove time from the critical path.
  const Trace trace = generate_trace(
      trace_by_name("chat1m"), ArrivalSpec{ArrivalKind::kStatic, 0, 0}, 48, 3);
  SimulationConfig sync = base_config(SchedulerKind::kSarathi, 1, 2, 1);
  Simulator sim_sync(sync, trace, reference_factory(sync, 21));
  const SimulationMetrics m_sync = sim_sync.run();

  SimulationConfig async = base_config(SchedulerKind::kSarathi, 1, 2, 1);
  async.async_pipeline_comm = true;
  Simulator sim_async(async, trace, reference_factory(async, 21));
  const SimulationMetrics m_async = sim_async.run();

  EXPECT_EQ(m_async.num_completed, 48u);
  // Identical RNG consumption order is not guaranteed, so allow jitter-scale
  // slack rather than strict dominance.
  EXPECT_LT(m_async.makespan, m_sync.makespan * 1.02);
}

TEST(Simulator, AsyncPipelineCommIsNoopWithoutPipeline) {
  const Trace trace = poisson_trace(30, 2.0);
  SimulationConfig sync = base_config(SchedulerKind::kVllm, 1, 1, 1);
  SimulationConfig async = sync;
  async.async_pipeline_comm = true;
  Simulator a(sync, trace, reference_factory(sync, 4));
  Simulator b(async, trace, reference_factory(async, 4));
  EXPECT_DOUBLE_EQ(a.run().makespan, b.run().makespan);
}

TEST(Simulator, OperatorMetricsCollectedWhenEnabled) {
  SimulationConfig config = base_config(SchedulerKind::kSarathi);
  config.collect_operator_metrics = true;
  const Trace trace = poisson_trace(20, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  ASSERT_FALSE(m.operator_stats.empty());
  // Every simulated iteration touches the core GEMMs and decode attention.
  EXPECT_GT(m.operator_stats.count(OpType::kMlpGateUpProj), 0u);
  EXPECT_GT(m.operator_stats.count(OpType::kAttnDecode), 0u);
  Seconds total = 0.0;
  for (const auto& [op, stats] : m.operator_stats) {
    EXPECT_GT(stats.invocations, 0);
    EXPECT_GE(stats.total_seconds, 0.0);
    total += stats.total_seconds;
  }
  EXPECT_GT(total, 0.0);
  EXPECT_FALSE(m.operator_table().empty());
}

TEST(Simulator, OperatorMetricsOffByDefault) {
  const SimulationConfig config = base_config();
  const Trace trace = poisson_trace(10, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_TRUE(m.operator_stats.empty());
  EXPECT_TRUE(m.operator_table().empty());
}

TEST(Simulator, OperatorMetricsDoNotPerturbTimings) {
  // Attribution must be a pure observer: enabling it cannot change the
  // reference executor's RNG stream or any event timestamp.
  const Trace trace = poisson_trace(25, 1.5);
  SimulationConfig off = base_config(SchedulerKind::kVllm);
  SimulationConfig on = off;
  on.collect_operator_metrics = true;
  Simulator a(off, trace, reference_factory(off, 13));
  Simulator b(on, trace, reference_factory(on, 13));
  EXPECT_DOUBLE_EQ(a.run().makespan, b.run().makespan);
}

TEST(Simulator, EnergyMetricsPopulated) {
  const SimulationConfig config = base_config();
  const Trace trace = poisson_trace(30, 1.0);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_GT(m.total_energy_joules, 0.0);
  EXPECT_GT(m.energy_per_output_token, 0.0);
  // Mean draw must sit between idle and TDP of the (single-GPU) cluster.
  const SkuSpec sku = sku_by_name("a100");
  EXPECT_GE(m.mean_cluster_power_watts, sku.idle_watts - 1e-9);
  EXPECT_LE(m.mean_cluster_power_watts, sku.peak_watts + 1e-9);
}

TEST(Simulator, BusierClusterDrawsMorePower) {
  Trace light, heavy;
  for (int i = 0; i < 8; ++i) light.push_back(Request{i, 2.0 * i, 64, 16});
  for (int i = 0; i < 64; ++i) heavy.push_back(Request{i, 0.0, 1024, 128});
  const SimulationConfig config = base_config(SchedulerKind::kSarathi);
  Simulator sim_light(config, light, reference_factory(config, 2));
  Simulator sim_heavy(config, heavy, reference_factory(config, 2));
  EXPECT_GT(sim_heavy.run().mean_cluster_power_watts,
            sim_light.run().mean_cluster_power_watts);
}

TEST(Simulator, RandomizedConfigurationsSatisfyInvariants) {
  // Property sweep: random deployments (policy, batch knobs, parallelism,
  // memory pressure, async comm, disaggregation) must complete every
  // request and never violate the request-level or cluster-level
  // invariants. This is the failure-injection net for scheduler bugs that
  // only appear under odd knob combinations.
  Rng rng(0xF00D);
  const SchedulerKind kinds[] = {
      SchedulerKind::kFasterTransformer, SchedulerKind::kOrca,
      SchedulerKind::kVllm, SchedulerKind::kSarathi, SchedulerKind::kLightLlm};
  for (int trial = 0; trial < 20; ++trial) {
    SimulationConfig config;
    config.model = model_by_name("llama2-7b");
    config.node.sku = sku_by_name(rng.bernoulli(0.5) ? "a100" : "h100");
    config.parallel =
        ParallelConfig{static_cast<int>(rng.uniform_int(0, 1)) + 1,
                       static_cast<int>(rng.uniform_int(0, 1)) + 1,
                       static_cast<int>(rng.uniform_int(1, 2))};
    config.scheduler.kind = kinds[rng.uniform_int(0, 4)];
    config.scheduler.max_batch_size = 1 << rng.uniform_int(2, 6);  // 4..64
    config.scheduler.chunk_size = 1 << rng.uniform_int(7, 11);     // 128..2048
    config.memory_utilization = rng.uniform(0.3, 0.9);
    config.async_pipeline_comm = rng.bernoulli(0.5);
    // Disaggregation composes with 2-replica layouts only (needs both roles).
    if (config.parallel.num_replicas == 2 && rng.bernoulli(0.4))
      config.disagg.num_prefill_replicas = 1;

    const Trace trace =
        poisson_trace(30, 1.5, /*seed=*/100 + static_cast<std::uint64_t>(trial));
    Simulator sim(config, trace,
                  reference_factory(config, 7 + static_cast<std::uint64_t>(trial)));
    const SimulationMetrics m = sim.run();

    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 scheduler_name(config.scheduler.kind) + " tp" +
                 std::to_string(config.parallel.tensor_parallel) + " pp" +
                 std::to_string(config.parallel.pipeline_parallel) + " x" +
                 std::to_string(config.parallel.num_replicas) +
                 (config.disagg.enabled() ? " disagg" : ""));
    EXPECT_EQ(m.num_completed, 30u);
    EXPECT_GT(m.mfu, 0.0);
    EXPECT_LT(m.mfu, 1.0);
    EXPECT_LE(m.busy_fraction,
              config.parallel.pipeline_parallel + 1e-9);
    const SkuSpec& sku = config.node.sku;
    EXPECT_GE(m.mean_cluster_power_watts,
              sku.idle_watts * config.parallel.total_gpus() - 1e-9);
    EXPECT_LE(m.mean_cluster_power_watts,
              sku.peak_watts * config.parallel.total_gpus() + 1e-9);
    for (const RequestState& r : sim.request_states()) {
      EXPECT_TRUE(r.finished());
      EXPECT_GE(r.record.scheduling_delay(), 0.0);
      EXPECT_LE(r.record.ttft(), r.record.e2e_latency() + 1e-12);
      // Token times going backwards would have thrown inside run().
      EXPECT_EQ(r.record.tokens_emitted, r.request.decode_tokens);
      EXPECT_TRUE(r.record.pending_gaps.empty());  // folded at completion
      EXPECT_DOUBLE_EQ(r.record.last_token_time, r.record.completed_time);
    }
  }
}

TEST(Simulator, RestartsSurfaceInMetrics) {
  // A tight KV pool with vLLM forces preempt-restarts; metrics must count
  // them. Use a memory_utilization that leaves few blocks.
  SimulationConfig config = base_config(SchedulerKind::kVllm);
  config.memory_utilization = 0.25;  // ~4.5 GB of KV after weights+workspace
  const Trace trace = generate_trace(
      trace_by_name("bwb4k"), ArrivalSpec{ArrivalKind::kStatic, 0, 0}, 24, 9);
  Simulator sim(config, trace, reference_factory(config));
  const SimulationMetrics m = sim.run();
  EXPECT_EQ(m.num_completed, 24u);
  EXPECT_GT(m.num_restarts, 0);
}

}  // namespace
}  // namespace vidur
