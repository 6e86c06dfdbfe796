// Every deployment runs as pools. The homogeneous form (one SKU and
// parallelism for every replica, an optional top-level autoscaler) and the
// legacy `disagg` split are lowered into `deployment.pools` before the
// engine sees them, so these tests pin the lowering against fixed bytes:
//
//   - result-JSON fixtures under tests/data/pool_lowering/, recorded from
//     the engine that still ran each legacy form on its own code path, must
//     be reproduced byte for byte — estimator cache counters included. The
//     only tolerated difference is the declared per-pool output a pool
//     deployment always reports: `fleet.pools[]`, `prefix_cache.by_pool[]`
//     and the rolling `pool:<name>` tracks, which the check strips;
//   - each legacy spec must produce exactly the same result as the pool
//     deployment a user would write for it by hand;
//   - a one-pool TP2 fleet must report the fleet MBU and energy of its
//     homogeneous twin (and of its own per-pool breakout).
//
// The fixtures are fixed data: re-recording them from an engine that lowers
// legacy specs would make the pin circular.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "api/run.h"

namespace vidur {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(VIDUR_TEST_DATA_DIR) + "/pool_lowering/" + name +
         ".json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `value` without the declared per-pool additions.
JsonValue strip_pool_breakouts(const JsonValue& value, const std::string& key) {
  if (value.is_array()) {
    JsonValue out = JsonValue::array();
    for (const JsonValue& item : value.items()) {
      if (key == "rolling" && item.is_object()) {
        const JsonValue* track = item.find("track");
        if (track != nullptr && track->as_string().rfind("pool:", 0) == 0)
          continue;
      }
      out.push(strip_pool_breakouts(item, ""));
    }
    return out;
  }
  if (!value.is_object()) return value;
  JsonValue out = JsonValue::object();
  for (const auto& [name, member] : value.members()) {
    if ((key == "fleet" && name == "pools") ||
        (key == "prefix_cache" && name == "by_pool"))
      continue;
    out.set(name, strip_pool_breakouts(member, name));
  }
  return out;
}

std::string run_to_json(const ExperimentSpec& spec) {
  const ExperimentResult result = run_experiment(spec);
  EXPECT_FALSE(result.failed()) << spec.name << ": " << result.error;
  return result.to_json().dump();
}

// ----------------------------------------------------------- the cases

ExperimentSpec base_spec(const std::string& name) {
  ExperimentSpec spec;
  spec.with_name(name)
      .with_model("llama2-7b")
      .with_scheduler(SchedulerKind::kSarathi, 64, 512)
      .with_seed(7);
  spec.tp_degrees = {1, 2};
  return spec;
}

/// The hand-written pool form of a legacy spec: the homogeneous fields go
/// back to their defaults and `pools` describes the same slots.
ExperimentSpec as_pools(ExperimentSpec spec, std::vector<PoolSpec> pools) {
  spec.deployment.sku_name = DeploymentConfig{}.sku_name;
  spec.deployment.parallel = ParallelConfig{};
  spec.deployment.disagg.num_prefill_replicas = 0;
  spec.deployment.autoscale = AutoscalerConfig{};
  spec.deployment.pools = std::move(pools);
  return spec;
}

PoolSpec pool(const std::string& name, PoolRole role, int tp, int pp,
              int slots) {
  PoolSpec p;
  p.name = name;
  p.sku_name = "a100";
  p.role = role;
  p.parallel = ParallelConfig{tp, pp, slots};
  return p;
}

ExperimentSpec homogeneous_static() {
  ExperimentSpec spec = base_spec("homogeneous-static");
  spec.with_parallelism(1, 1, 3)
      .with_routing(GlobalSchedulerKind::kRoundRobin)
      .with_trace("chat1m", 3.0, 200);
  return spec;
}

ExperimentSpec homogeneous_static_pools() {
  return as_pools(homogeneous_static(),
                  {pool("fleet", PoolRole::kUnified, 1, 1, 3)});
}

AutoscalerConfig reactive_autoscale() {
  AutoscalerConfig a;
  a.kind = AutoscalerKind::kReactive;
  a.min_replicas = 3;
  a.provision_delay = 5.0;
  a.warmup_delay = 2.5;
  a.decision_interval = 2.0;
  a.target_load_per_replica = 3.0;
  a.scale_up_load = 5.0;
  a.scale_down_load = 0.5;
  return a;
}

ExperimentSpec homogeneous_elastic() {
  ExperimentSpec spec = base_spec("homogeneous-elastic");
  spec.with_parallelism(1, 1, 4)
      .with_routing(GlobalSchedulerKind::kCacheAware)
      .with_prefix_cache(0.5)
      .with_autoscale(reactive_autoscale())
      .with_scenario("spot-churn", 250);
  FaultProfile profile;
  profile.pool = "fleet";
  profile.crash_mtbf_s = 12.0;
  profile.spot_windows = {SpotWindow{20.0, 30.0, 1, 4.0}};
  FaultConfig faults;
  faults.seed = 42;
  faults.profiles = {profile};
  faults.shed = ShedPolicy{1, 0};
  spec.with_faults(faults);
  spec.obs.rolling_window_s = 10.0;
  return spec;
}

ExperimentSpec homogeneous_elastic_pools() {
  PoolSpec fleet = pool("fleet", PoolRole::kUnified, 1, 1, 4);
  fleet.autoscale = reactive_autoscale();
  return as_pools(homogeneous_elastic(), {fleet});
}

ExperimentSpec legacy_disagg(const std::string& name,
                             GlobalSchedulerKind routing) {
  ExperimentSpec spec = base_spec(name);
  spec.with_parallelism(1, 1, 5).with_routing(routing);
  spec.deployment.disagg.num_prefill_replicas = 2;
  if (routing == GlobalSchedulerKind::kPriority)
    spec.with_scenario("batch-over-interactive", 200);
  else
    spec.with_trace("chat1m", 4.0, 200);
  return spec;
}

ExperimentSpec legacy_disagg_pools(const std::string& name,
                                   GlobalSchedulerKind routing) {
  return as_pools(legacy_disagg(name, routing),
                  {pool("prefill", PoolRole::kPrefill, 1, 1, 2),
                   pool("decode", PoolRole::kDecode, 1, 1, 3)});
}

ExperimentSpec disagg_pp2() {
  ExperimentSpec spec = base_spec("disagg-pp2-async");
  spec.with_parallelism(1, 2, 3)
      .with_routing(GlobalSchedulerKind::kRoundRobin)
      .with_trace("chat1m", 2.0, 150);
  spec.deployment.disagg.num_prefill_replicas = 1;
  spec.deployment.async_pipeline_comm = true;
  return spec;
}

ExperimentSpec disagg_pp2_pools() {
  return as_pools(disagg_pp2(), {pool("prefill", PoolRole::kPrefill, 1, 2, 1),
                                 pool("decode", PoolRole::kDecode, 1, 2, 2)});
}

struct LoweringCase {
  const char* fixture;
  ExperimentSpec (*legacy)();
  ExperimentSpec (*pools)();
};

const LoweringCase kCases[] = {
    {"homogeneous-static", homogeneous_static, homogeneous_static_pools},
    {"homogeneous-elastic", homogeneous_elastic, homogeneous_elastic_pools},
    {"disagg-round-robin",
     [] {
       return legacy_disagg("disagg-round-robin",
                            GlobalSchedulerKind::kRoundRobin);
     },
     [] {
       return legacy_disagg_pools("disagg-round-robin",
                                  GlobalSchedulerKind::kRoundRobin);
     }},
    {"disagg-least-outstanding",
     [] {
       return legacy_disagg("disagg-least-outstanding",
                            GlobalSchedulerKind::kLeastOutstanding);
     },
     [] {
       return legacy_disagg_pools("disagg-least-outstanding",
                                  GlobalSchedulerKind::kLeastOutstanding);
     }},
    {"disagg-deferred",
     [] {
       return legacy_disagg("disagg-deferred", GlobalSchedulerKind::kDeferred);
     },
     [] {
       return legacy_disagg_pools("disagg-deferred",
                                  GlobalSchedulerKind::kDeferred);
     }},
    {"disagg-priority",
     [] {
       return legacy_disagg("disagg-priority", GlobalSchedulerKind::kPriority);
     },
     [] {
       return legacy_disagg_pools("disagg-priority",
                                  GlobalSchedulerKind::kPriority);
     }},
    {"disagg-pp2-async", disagg_pp2, disagg_pp2_pools},
};

// ------------------------------------------------------------- the pins

TEST(PoolLowering, LegacySpecsReproduceTheirFixtures) {
  for (const LoweringCase& c : kCases) {
    SCOPED_TRACE(c.fixture);
    const std::string stripped =
        strip_pool_breakouts(JsonValue::parse(run_to_json(c.legacy())), "")
            .dump();
    EXPECT_EQ(stripped, read_file(fixture_path(c.fixture)))
        << "result bytes moved beyond the declared per-pool additions";
  }
}

TEST(PoolLowering, LegacySpecsEqualTheirPoolTwins) {
  for (const LoweringCase& c : kCases) {
    SCOPED_TRACE(c.fixture);
    EXPECT_EQ(run_to_json(c.legacy()), run_to_json(c.pools()));
  }
}

TEST(PoolLowering, LegacySpecsAnalyzeLikeTheirPoolTwins) {
  // The analysis engine labels replicas with the lowered pools' names, so
  // the legacy split reports the same per-pool breakdown as its twin.
  for (const LoweringCase& c : kCases) {
    SCOPED_TRACE(c.fixture);
    ExperimentSpec legacy = c.legacy();
    ExperimentSpec pools = c.pools();
    legacy.obs.analyze = pools.obs.analyze = true;
    const ExperimentResult a = run_experiment(legacy);
    const ExperimentResult b = run_experiment(pools);
    ASSERT_FALSE(a.failed()) << a.error;
    ASSERT_FALSE(b.failed()) << b.error;
    ASSERT_TRUE(a.has_analysis());
    EXPECT_EQ(a.analysis.dump(), b.analysis.dump());
  }
}

TEST(PoolLowering, OnePoolTp2FleetMatchesItsHomogeneousTwin) {
  // Fleet MBU divides per-GPU HBM bytes by per-GPU bandwidth and bills
  // energy at each batch's own per-GPU intensity, whatever form the
  // deployment was written in.
  ExperimentSpec spec = base_spec("tp2-fleet");
  spec.with_parallelism(2, 1, 3).with_trace("chat1m", 3.0, 200);
  const ExperimentResult homogeneous = run_experiment(spec);
  const ExperimentResult pooled = run_experiment(
      as_pools(spec, {pool("fleet", PoolRole::kUnified, 2, 1, 3)}));
  ASSERT_FALSE(homogeneous.failed()) << homogeneous.error;
  ASSERT_FALSE(pooled.failed()) << pooled.error;
  const SimulationMetrics& h = homogeneous.metrics;
  const SimulationMetrics& p = pooled.metrics;
  EXPECT_EQ(p.mfu, h.mfu);
  EXPECT_EQ(p.mbu, h.mbu);
  EXPECT_EQ(p.total_energy_joules, h.total_energy_joules);
  ASSERT_EQ(p.scaling.pools.size(), 1u);
  // The breakout divides by paid replica-hours, which round differently
  // from makespan x slots in the last bit.
  EXPECT_DOUBLE_EQ(p.scaling.pools[0].mbu, p.mbu);
  EXPECT_DOUBLE_EQ(p.scaling.pools[0].energy_joules, p.total_energy_joules);
}

TEST(PoolLowering, HomogeneousAutoscaleErrorsNameTheFleetPool) {
  // The homogeneous form is validated as the `fleet` pool it lowers to, so
  // its autoscaler bounds report in the pool wording.
  ExperimentSpec spec = homogeneous_static();
  AutoscalerConfig autoscale = reactive_autoscale();
  autoscale.min_replicas = 5;
  spec.with_autoscale(autoscale);
  try {
    run_experiment(spec);
    FAIL() << "expected vidur::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("pool 'fleet': autoscale.min_replicas "
                                         "(5) exceeds the pool's 3 slots"),
              std::string::npos)
        << "actual message: " << e.what();
  }
}

}  // namespace
}  // namespace vidur
