// Cross-thread determinism suite for the sharded simulation core: the
// `execution.threads` knob must never change results. Same-seed runs at
// threads=1/2/8 are compared *byte for byte* — result JSON (headline
// metrics + full registry snapshot) and the exported trace document — for
//
//   - the committed golden chaos/cache specs (spot-churn, session-chat),
//     whose cache-aware routing keeps them on the central path, and
//   - a round-robin fleet that actually engages the sharded engine,
//
// plus the spec-layer contract (threads round-trips losslessly, invalid
// values rejected), the run_sweep() ordering pin (results keyed by sweep
// index, byte-stable across worker counts), and the hardware_threads()
// clamp pin.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/run.h"
#include "common/check.h"
#include "common/thread_pool.h"

namespace vidur {
namespace {

ExperimentSpec load_spec(const std::string& name) {
  const std::string path = std::string(VIDUR_SPEC_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return ExperimentSpec::from_json_string(text.str());
}

/// One run's complete observable output, serialized for byte comparison.
struct RunDump {
  std::string result;  ///< ExperimentResult::to_json() (metrics + registry)
  std::string trace;   ///< Chrome trace document (merged trace records)
};

/// Run `spec` at the given thread count in a fresh session (cold estimator
/// cache, so the cache-traffic counters are comparable across runs).
RunDump run_fresh(ExperimentSpec spec, int threads) {
  spec.deployment.threads = threads;
  spec.obs.trace = true;
  const ExperimentResult result = run_experiment(spec);
  EXPECT_FALSE(result.failed()) << result.error;
  return {result.to_json().dump(), result.trace.dump()};
}

/// Same, against a caller-owned (typically pre-warmed) session.
RunDump run_shared(VidurSession& session, ExperimentSpec spec, int threads) {
  spec.deployment.threads = threads;
  spec.obs.trace = true;
  const ExperimentResult result = run_experiment(session, spec);
  EXPECT_FALSE(result.failed()) << result.error;
  return {result.to_json().dump(), result.trace.dump()};
}

TEST(ParallelSim, GoldenSpecsBitIdenticalAcrossThreadCounts) {
  // The committed chaos and prefix-cache specs: autoscaling, fault
  // injection, cache-aware routing and tracing all enabled. Their routing
  // needs fleet-global state every decision, so the engine must keep them
  // on the central path — and the knob must be a provable no-op.
  for (const char* name : {"spot-churn.json", "session-chat.json"}) {
    const ExperimentSpec spec = load_spec(name);
    const RunDump base = run_fresh(spec, 1);
    for (const int threads : {2, 8}) {
      const RunDump run = run_fresh(spec, threads);
      EXPECT_EQ(run.result, base.result)
          << name << ": result JSON diverged at threads=" << threads;
      EXPECT_EQ(run.trace, base.trace)
          << name << ": trace diverged at threads=" << threads;
    }
  }
}

TEST(ParallelSim, ShardedFleetBitIdenticalAcrossThreadCounts) {
  // A deployment the sharded engine actually parallelizes: static
  // round-robin fleet, no pools/autoscale/faults, tracing on. The session
  // is shared and pre-warmed so the estimator-cache traffic attributed to
  // each measured run is identical (all hits) regardless of which shard
  // thread performs the lookups.
  ExperimentSpec spec;
  spec.name = "parallel-fleet";
  spec.with_parallelism(1, 1, 8)
      .with_scheduler(SchedulerKind::kVllm, 64)
      .with_trace("chat1m", 8.0, 800)
      .with_seed(7);

  VidurSession session(model_by_name(spec.model));
  run_shared(session, spec, 1);  // warm the estimator cache, discarded

  const RunDump base = run_shared(session, spec, 1);
  for (const int threads : {2, 8}) {
    const RunDump run = run_shared(session, spec, threads);
    EXPECT_EQ(run.result, base.result)
        << "result JSON diverged at threads=" << threads;
    EXPECT_EQ(run.trace, base.trace)
        << "trace diverged at threads=" << threads;
  }
}

/// `json` without its top-level "rolling" member.
std::string without_rolling(const std::string& json) {
  const JsonValue doc = JsonValue::parse(json);
  JsonValue out = JsonValue::object();
  for (const auto& [key, value] : doc.members())
    if (key != "rolling") out.set(key, value);
  return out.dump();
}

TEST(ParallelSim, ShardedRunReplaysTheCentralOrder) {
  // run() pre-routes a static round-robin fleet into per-replica shards
  // and claims the result is the central single-queue order exactly.
  // Rolling windows read fleet-wide state at every completion, so they
  // keep the same spec on the central path: the two runs must agree on
  // every byte except the rolling tracks themselves. Degrade fault edges
  // split the sharded run into several windows.
  ExperimentSpec spec;
  spec.name = "sharded-vs-central";
  spec.with_parallelism(1, 1, 6)
      .with_scheduler(SchedulerKind::kVllm, 64)
      .with_trace("chat1m", 6.0, 500)
      .with_seed(5);
  FaultProfile straggler;
  straggler.degrade_mtbf_s = 15.0;
  straggler.degrade_factor = 2.0;
  straggler.degrade_duration_s = 6.0;
  FaultConfig faults;
  faults.seed = 3;
  faults.profiles = {straggler};
  spec.with_faults(faults);
  ExperimentSpec central = spec;
  central.obs.rolling_window_s = 10.0;

  VidurSession session(model_by_name(spec.model));
  run_shared(session, spec, 1);  // warm the estimator cache, discarded
  for (const int threads : {1, 4}) {
    const RunDump sharded = run_shared(session, spec, threads);
    const RunDump replay = run_shared(session, central, threads);
    EXPECT_EQ(without_rolling(sharded.result), without_rolling(replay.result))
        << "sharded and central results diverged at threads=" << threads;
    EXPECT_EQ(sharded.trace, replay.trace)
        << "sharded and central traces diverged at threads=" << threads;
  }
}

TEST(ParallelSim, WideShardedFleetReplaysTheCentralOrder) {
  // Sixteen slots under straggler faults: every window merges the trace
  // records of many dirty shards through the heap, and each shard thread
  // folds its own slots' batch metrics. The sharded run must reproduce the
  // central single-queue run byte for byte at every thread count.
  ExperimentSpec spec;
  spec.name = "wide-sharded-vs-central";
  spec.with_parallelism(1, 1, 16)
      .with_scheduler(SchedulerKind::kVllm, 64)
      .with_trace("chat1m", 16.0, 480)
      .with_seed(9);
  FaultProfile straggler;
  straggler.degrade_mtbf_s = 10.0;
  straggler.degrade_factor = 1.5;
  straggler.degrade_duration_s = 4.0;
  FaultConfig faults;
  faults.seed = 4;
  faults.profiles = {straggler};
  spec.with_faults(faults);
  ExperimentSpec central = spec;
  central.obs.rolling_window_s = 10.0;

  VidurSession session(model_by_name(spec.model));
  run_shared(session, spec, 1);  // warm the estimator cache, discarded
  const RunDump replay = run_shared(session, central, 1);
  ASSERT_GT(JsonValue::parse(replay.result)
                .find("resilience")
                ->find("degrade_events")
                ->as_int(),
            1);
  for (const int threads : {1, 4, 8}) {
    const RunDump sharded = run_shared(session, spec, threads);
    EXPECT_EQ(without_rolling(sharded.result), without_rolling(replay.result))
        << "sharded and central results diverged at threads=" << threads;
    EXPECT_EQ(sharded.trace, replay.trace)
        << "sharded and central traces diverged at threads=" << threads;
  }
}

TEST(ParallelSim, ThreadsKnobRoundTripsLosslessly) {
  // Non-default values survive to_json/from_json; the default is omitted
  // entirely so committed specs stay canonically serialized.
  ExperimentSpec spec;
  spec.deployment.threads = 4;
  const std::string text = spec.to_json_string();
  EXPECT_NE(text.find("\"execution\""), std::string::npos);
  EXPECT_EQ(ExperimentSpec::from_json_string(text).deployment.threads, 4);

  spec.deployment.threads = 1;
  EXPECT_EQ(spec.to_json_string().find("\"execution\""), std::string::npos);
}

TEST(ParallelSim, ThreadsKnobValidation) {
  ExperimentSpec spec;
  spec.deployment.threads = 0;
  EXPECT_THROW(spec.validate(), Error);

  spec.deployment.threads = 2;
  EXPECT_NO_THROW(spec.validate());

  // Disaggregated deployments synchronize on KV transfers every iteration;
  // the sharded core refuses them rather than silently serializing.
  spec.deployment.disagg.num_prefill_replicas = 1;
  spec.deployment.parallel.num_replicas = 2;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ParallelSim, SweepResultsKeyedBySweepIndex) {
  // run_sweep must key results by sweep index, not worker completion
  // order: the same sweep run with 1 worker and 4 workers must produce
  // byte-identical JSON at every index. Reference mode keeps the runs
  // estimator-free, so there is no shared-cache traffic to attribute and
  // the comparison can be exact.
  ExperimentSpec spec;
  spec.name = "sweep-order";
  spec.mode = ExperimentMode::kReference;
  spec.with_trace("chat1m", 2.0, 60).with_seed(11);
  spec.sweep.qps = {0.5, 1.0, 2.0, 4.0};
  spec.sweep.num_replicas = {1, 2};

  const std::vector<ExperimentSpec> points = spec.expand_sweep();
  ASSERT_EQ(points.size(), 8u);

  spec.num_threads = 1;
  const std::vector<ExperimentResult> serial = run_sweep(spec);
  spec.num_threads = 4;
  const std::vector<ExperimentResult> pooled = run_sweep(spec);
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(pooled.size(), points.size());

  for (std::size_t i = 0; i < points.size(); ++i) {
    // Each slot holds the point the expansion order put there...
    EXPECT_EQ(serial[i].spec.name, points[i].name);
    EXPECT_EQ(pooled[i].spec.name, points[i].name);
    EXPECT_EQ(pooled[i].spec.workload.arrival.qps,
              points[i].workload.arrival.qps);
    // ...and its payload is byte-stable across worker counts.
    EXPECT_EQ(pooled[i].to_json().dump(), serial[i].to_json().dump())
        << "sweep point " << i << " (" << points[i].name
        << ") diverged across worker counts";
  }
}

TEST(ParallelSim, HardwareThreadsIsClampedToAtLeastOne) {
  // Every call site (run_sweep, search, bench meta) sizes pools off this;
  // std::thread::hardware_concurrency() may return 0 and must never
  // propagate.
  EXPECT_GE(hardware_threads(), 1u);
}

}  // namespace
}  // namespace vidur
