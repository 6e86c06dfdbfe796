// Cross-policy property harness for the elastic cluster subsystem: every
// (autoscaler policy x pool topology) combination must uphold the same
// invariants —
//   * per-pool active counts never leave [floor, slot ceiling],
//   * no request is ever served by a replica outside its active window,
//   * per-pool GPU-hours equal the integral reconstructed from the scaling
//     event log (billing is exactly the lifecycle timeline),
//   * same-seed reruns are bit-identical (events, timelines, and metrics).
// The matrix runs twice: once against a scripted ClusterManager harness
// (fast, surgical), once end-to-end through the Simulator on a flash-crowd
// trace.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/pool.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

namespace vidur {
namespace {

// ----------------------------------------------------- policy/topology axes

enum class PolicyAxis { kReactive, kPredictive };

const char* policy_name(PolicyAxis p) {
  return p == PolicyAxis::kReactive ? "reactive" : "predictive";
}

/// The spike profile every end-to-end run plays (and predictive policies
/// forecast from).
RateProfile test_profile() {
  return RateProfile::spike(/*baseline=*/1.0, /*spike=*/5.0,
                            /*spike_start=*/20.0, /*spike_duration=*/40.0);
}

AutoscalerConfig make_policy(PolicyAxis axis,
                             ScaleSignal signal = ScaleSignal::kOutstanding) {
  AutoscalerConfig c;
  c.min_replicas = 1;
  c.decision_interval = 2.0;
  c.provision_delay = 4.0;
  c.warmup_delay = 2.0;
  c.scale_up_cooldown = 0.0;
  c.scale_down_cooldown = 15.0;
  if (axis == PolicyAxis::kReactive) {
    c.kind = AutoscalerKind::kReactive;
    c.signal = signal;
    c.target_load_per_replica = 8.0;
    c.scale_up_load = 12.0;
    c.scale_down_load = 2.0;
    c.target_kv_utilization = 0.2;
    c.scale_up_kv_utilization = 0.3;
    c.scale_down_kv_utilization = 0.05;
  } else {
    c.kind = AutoscalerKind::kPredictive;
    c.profile = test_profile();
    c.baseline_qps = 2.0;
    c.replica_capacity_qps = 1.5;
    c.headroom = 0.1;
  }
  return c;
}

struct Topology {
  std::string name;
  std::vector<PoolSpec> pools;
  bool disaggregated = false;
};

PoolSpec make_pool(const std::string& name, const std::string& sku,
                   PoolRole role, int slots, AutoscalerConfig autoscale) {
  PoolSpec pool;
  pool.name = name;
  pool.sku_name = sku;
  pool.role = role;
  pool.parallel = ParallelConfig{1, 1, slots};
  pool.autoscale = std::move(autoscale);
  return pool;
}

/// The topology axis, parameterized by the policy under test. The decode
/// pool scales on KV pressure under the reactive policy (its natural
/// signal); predictive policies forecast arrivals and keep the queue-depth
/// signal everywhere.
std::vector<Topology> topologies(PolicyAxis axis) {
  const AutoscalerConfig policy = make_policy(axis);
  const AutoscalerConfig decode_policy =
      axis == PolicyAxis::kReactive
          ? make_policy(axis, ScaleSignal::kKvPressure)
          : policy;
  std::vector<Topology> out;
  out.push_back({"single-pool",
                 {make_pool("fleet", "a100", PoolRole::kUnified, 4, policy)},
                 false});
  out.push_back({"hetero-unified",
                 {make_pool("a100-pool", "a100", PoolRole::kUnified, 3,
                            policy),
                  make_pool("h100-pool", "h100", PoolRole::kUnified, 2,
                            policy)},
                 false});
  out.push_back({"prefill-decode",
                 {make_pool("prefill", "a100", PoolRole::kPrefill, 3,
                            policy),
                  make_pool("decode", "a100", PoolRole::kDecode, 3,
                            decode_policy)},
                 true});
  PoolSpec pinned =
      make_pool("pinned", "h100", PoolRole::kUnified, 2, AutoscalerConfig{});
  out.push_back({"elastic-plus-static",
                 {make_pool("elastic", "a100", PoolRole::kUnified, 3, policy),
                  pinned},
                 false});
  return out;
}

// ------------------------------------------------------ shared invariants

/// Per-pool active counts stay within [floor, ceiling] on every sample.
void check_bounds(const ClusterScalingReport& report) {
  ASSERT_FALSE(report.pools.empty());
  for (const PoolScalingReport& pool : report.pools) {
    for (const ReplicaCountSample& sample : pool.active_timeline) {
      EXPECT_GE(sample.active, pool.min_replicas)
          << "pool " << pool.name << " dipped below its floor at t="
          << sample.time;
      EXPECT_LE(sample.active, pool.slots)
          << "pool " << pool.name << " exceeded its ceiling at t="
          << sample.time;
    }
  }
}

/// Per-pool GPU-hours must equal the paid-interval integral reconstructed
/// from the event log: a slot is paid from the transition out of
/// kDecommissioned (provisioning order, or warm activation at t=0) until
/// the transition back into it, clamped to the accounting horizon.
void check_gpu_hour_integral(const ClusterScalingReport& report,
                             Seconds end_time) {
  for (const PoolScalingReport& pool : report.pools) {
    std::map<ReplicaId, Seconds> up_since;
    double paid_seconds = 0.0;
    for (const ScalingEvent& e : report.events) {
      if (e.replica < pool.first_slot ||
          e.replica >= pool.first_slot + pool.slots)
        continue;
      if (e.from == ReplicaState::kDecommissioned) {
        ASSERT_EQ(up_since.count(e.replica), 0u);
        up_since[e.replica] = e.time;
      } else if (e.to == ReplicaState::kDecommissioned) {
        ASSERT_EQ(up_since.count(e.replica), 1u);
        paid_seconds += std::max(
            0.0, std::min(e.time, end_time) - up_since[e.replica]);
        up_since.erase(e.replica);
      }
    }
    for (const auto& [replica, since] : up_since)
      paid_seconds += std::max(0.0, end_time - since);
    EXPECT_NEAR(pool.gpu_hours,
                paid_seconds / 3600.0 * pool.gpus_per_replica, 1e-9)
        << "pool " << pool.name
        << ": billed GPU-hours diverge from the event-log integral";
  }
}

void expect_reports_identical(const ClusterScalingReport& a,
                              const ClusterScalingReport& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time);
    EXPECT_EQ(a.events[i].replica, b.events[i].replica);
    EXPECT_EQ(a.events[i].from, b.events[i].from);
    EXPECT_EQ(a.events[i].to, b.events[i].to);
  }
  ASSERT_EQ(a.pools.size(), b.pools.size());
  for (std::size_t i = 0; i < a.pools.size(); ++i) {
    EXPECT_EQ(a.pools[i].gpu_hours, b.pools[i].gpu_hours);
    EXPECT_EQ(a.pools[i].cost_usd, b.pools[i].cost_usd);
    EXPECT_EQ(a.pools[i].mean_active_replicas,
              b.pools[i].mean_active_replicas);
    EXPECT_EQ(a.pools[i].num_scale_up_events, b.pools[i].num_scale_up_events);
    EXPECT_EQ(a.pools[i].num_scale_down_events,
              b.pools[i].num_scale_down_events);
  }
  EXPECT_EQ(a.gpu_hours, b.gpu_hours);
  EXPECT_EQ(a.mean_active_replicas, b.mean_active_replicas);
}

// ------------------------------------------- scripted ClusterManager runs

struct PoolHarness {
  EventQueue events;
  std::map<ReplicaId, int> load;
  std::map<ReplicaId, double> kv;
  int parked = 0;
  bool work = true;
  std::unique_ptr<ClusterManager> manager;

  explicit PoolHarness(const std::vector<PoolSpec>& pools) {
    ClusterManager::Hooks hooks;
    hooks.replica_load = [this](ReplicaId r) { return load[r]; };
    hooks.parked_requests = [this] { return parked; };
    hooks.work_remaining = [this] { return work; };
    hooks.on_activated = [](ReplicaId) {};
    hooks.on_draining = [this](ReplicaId r) { load[r] = 0; };
    hooks.replica_kv_utilization = [this](ReplicaId r) { return kv[r]; };
    manager = std::make_unique<ClusterManager>(pools, &events,
                                               std::move(hooks));
    manager->start();
  }

  void run_until(Seconds t) {
    while (!events.empty() && events.next_time() <= t) events.run_next();
  }

  /// A deterministic load script: quiet start, overload burst (queue depth
  /// and KV pressure together), then a long quiet tail that forces drains.
  ClusterScalingReport play_script(Seconds horizon) {
    for (int step = 0; static_cast<Seconds>(step) < horizon; ++step) {
      const auto t = static_cast<Seconds>(step);
      const bool burst = t >= 10.0 && t < 50.0;
      parked = burst ? 120 : 2;
      for (ReplicaId r = 0; r < manager->fleet_size(); ++r) {
        const bool up = manager->state(r) == ReplicaState::kActive;
        load[r] = up ? (burst ? 30 : 1) : 0;
        kv[r] = up ? (burst ? 0.9 : 0.02) : 0.0;
      }
      run_until(t + 1.0 - 1e-9);
    }
    work = false;
    run_until(horizon + 1e6);
    return manager->report(horizon);
  }
};

class ClusterPropertyManager
    : public ::testing::TestWithParam<PolicyAxis> {};

TEST_P(ClusterPropertyManager, InvariantsHoldAcrossTopologies) {
  for (const Topology& topology : topologies(GetParam())) {
    SCOPED_TRACE(std::string(policy_name(GetParam())) + " / " +
                 topology.name);
    constexpr Seconds kHorizon = 120.0;
    PoolHarness harness(topology.pools);
    const ClusterScalingReport report = harness.play_script(kHorizon);

    check_bounds(report);
    check_gpu_hour_integral(report, kHorizon);
    // The burst must actually exercise scaling somewhere (otherwise this
    // harness proves nothing).
    EXPECT_GE(report.num_scale_up_events, 1);
    EXPECT_GE(report.num_scale_down_events, 1);
    // Static pools never scale and never leave their ceiling.
    for (const PoolScalingReport& pool : report.pools) {
      if (pool.autoscaled) continue;
      EXPECT_EQ(pool.num_scale_up_events, 0);
      EXPECT_EQ(pool.num_scale_down_events, 0);
      EXPECT_EQ(pool.mean_active_replicas, pool.slots);
    }

    // Bit-identical rerun of the same script.
    PoolHarness rerun(topology.pools);
    expect_reports_identical(report, rerun.play_script(kHorizon));
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ClusterPropertyManager,
                         ::testing::Values(PolicyAxis::kReactive,
                                           PolicyAxis::kPredictive),
                         [](const auto& info) {
                           return policy_name(info.param);
                         });

// ------------------------------------------------- end-to-end simulations

SimulationConfig pool_sim_config(const Topology& topology) {
  SimulationConfig config;
  config.model = model_by_name("llama2-7b");
  config.node.sku = sku_by_name("a100");
  config.scheduler.kind = SchedulerKind::kVllm;
  config.scheduler.max_batch_size = 16;
  config.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;
  config.pools = topology.pools;
  return config;
}

BackendFactory pool_reference_factory(const SimulationConfig& config,
                                      std::uint64_t seed) {
  const ModelSpec model = config.model;
  std::vector<NodeSpec> nodes;
  std::vector<ParallelConfig> parallels;
  std::vector<std::size_t> slot_pool;
  for (std::size_t p = 0; p < config.pools.size(); ++p) {
    NodeSpec node = config.node;
    node.sku = sku_by_name(config.pools[p].sku_name);
    nodes.push_back(node);
    parallels.push_back(config.pools[p].parallel);
    for (int i = 0; i < config.pools[p].slots(); ++i) slot_pool.push_back(p);
  }
  return [model, nodes, parallels, slot_pool, seed](ReplicaId r) {
    const std::size_t p = slot_pool[static_cast<std::size_t>(r)];
    return std::make_unique<ReferenceExecutor>(
        nodes[p], model, parallels[p],
        seed + static_cast<std::uint64_t>(r));
  };
}

Trace flash_crowd_trace(int num_requests) {
  Scenario s;
  s.name = "property-spike";
  s.tenants = {TenantSpec{.name = "chat",
                          .trace = trace_by_name("chat1m"),
                          .share = 1.0,
                          .priority = 0,
                          .slo = SloSpec{2.0, 0.5}}};
  s.arrival = ArrivalSpec{ArrivalKind::kPoisson, /*qps=*/2.5, /*cv=*/0};
  s.profile = test_profile();
  s.num_requests = num_requests;
  return generate_scenario_trace(s, 17);
}

/// Replica state just before (strictly) / up to (inclusively) time t,
/// reconstructed from the event log. Slots without events never left
/// their initial state.
ReplicaState state_at(const std::vector<ScalingEvent>& events,
                      ReplicaId replica, Seconds t, bool inclusive) {
  ReplicaState state = ReplicaState::kDecommissioned;
  for (const ScalingEvent& e : events) {
    if (e.replica != replica) continue;
    if (e.time < t || (inclusive && e.time == t)) state = e.to;
  }
  return state;
}

void check_serving_windows(const Simulator& sim, const SimulationMetrics& m,
                           bool disaggregated) {
  for (const RequestState& r : sim.request_states()) {
    ASSERT_TRUE(r.record.completed());
    ASSERT_GE(r.replica, 0);
    // A request never completes on a slot outside its active/draining
    // window (the completing batch was running there, so the slot cannot
    // be cold or decommissioned just before the completion).
    const ReplicaState at_completion = state_at(
        m.scaling.events, r.replica, r.record.completed_time, false);
    EXPECT_TRUE(at_completion == ReplicaState::kActive ||
                at_completion == ReplicaState::kDraining)
        << "request " << r.request.id << " completed on replica "
        << r.replica << " in state " << replica_state_name(at_completion);
    // Unified fleets serve a request where it was routed: the slot must be
    // active (or just entering its drain) when the request first runs.
    // Disaggregated requests record their first schedule on the prefill
    // side but finish on a decode slot, so the check does not transfer.
    if (!disaggregated) {
      const ReplicaState at_first = state_at(
          m.scaling.events, r.replica, r.record.first_scheduled_time, true);
      EXPECT_TRUE(at_first == ReplicaState::kActive ||
                  at_first == ReplicaState::kDraining)
          << "request " << r.request.id << " first ran on replica "
          << r.replica << " in state " << replica_state_name(at_first);
    }
  }
}

class ClusterPropertySimulation
    : public ::testing::TestWithParam<PolicyAxis> {};

TEST_P(ClusterPropertySimulation, InvariantsHoldAcrossTopologies) {
  const Trace trace = flash_crowd_trace(200);
  for (const Topology& topology : topologies(GetParam())) {
    SCOPED_TRACE(std::string(policy_name(GetParam())) + " / " +
                 topology.name);
    const SimulationConfig config = pool_sim_config(topology);
    Simulator sim(config, trace, pool_reference_factory(config, 5));
    const SimulationMetrics m = sim.run();

    EXPECT_EQ(m.num_completed, trace.size());
    ASSERT_TRUE(m.scaling.enabled);
    check_bounds(m.scaling);
    check_gpu_hour_integral(m.scaling, m.makespan);
    check_serving_windows(sim, m, topology.disaggregated);

    // Same-seed rerun: bit-identical scaling behavior and metrics.
    Simulator rerun(config, trace, pool_reference_factory(config, 5));
    const SimulationMetrics m2 = rerun.run();
    EXPECT_EQ(m.makespan, m2.makespan);
    EXPECT_EQ(m.ttft.p99, m2.ttft.p99);
    EXPECT_EQ(m.num_sim_events, m2.num_sim_events);
    expect_reports_identical(m.scaling, m2.scaling);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ClusterPropertySimulation,
                         ::testing::Values(PolicyAxis::kReactive,
                                           PolicyAxis::kPredictive),
                         [](const auto& info) {
                           return policy_name(info.param);
                         });

}  // namespace
}  // namespace vidur
