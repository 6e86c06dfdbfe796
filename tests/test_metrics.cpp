// Tests for src/metrics: request-record derived metrics and collector
// aggregation (throughput, MFU, utilization accounting).
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "api/result.h"
#include "common/check.h"
#include "common/random.h"
#include "metrics/metrics.h"

namespace vidur {
namespace {

RequestRecord sample_record(
    std::initializer_list<Seconds> token_times = {
        11.0, 11.5, 12.0, 12.6, 13.0, 13.4, 13.8, 14.2, 14.6, 15.0}) {
  RequestRecord r;
  r.id = 1;
  r.arrival_time = 10.0;
  r.first_scheduled_time = 10.5;
  r.prefill_completed_time = 11.0;
  r.completed_time = 15.0;
  r.prefill_tokens = 100;
  r.decode_tokens = 10;
  for (const Seconds t : token_times) r.emit_token(t);
  return r;
}

TEST(RequestRecord, StreamingTokenState) {
  RequestRecord r = sample_record();
  EXPECT_EQ(r.tokens_emitted, 10);
  EXPECT_DOUBLE_EQ(r.last_token_time, 15.0);
  EXPECT_DOUBLE_EQ(r.worst_tbt(), 0.6);
  ASSERT_EQ(r.pending_gaps.size(), 9u);
  EXPECT_DOUBLE_EQ(r.pending_gaps.front(), 0.5);

  LatencyDistribution tbt;
  r.fold_gaps(tbt);
  EXPECT_EQ(tbt.count(), 9u);
  EXPECT_DOUBLE_EQ(tbt.max(), 0.6);
  EXPECT_TRUE(r.pending_gaps.empty());
  EXPECT_EQ(r.pending_gaps.capacity(), 0u);  // the buffer is freed
  EXPECT_DOUBLE_EQ(r.worst_tbt(), 0.6);      // the streaming state stays

  RequestRecord one = sample_record({11.0});
  EXPECT_EQ(one.tokens_emitted, 1);
  EXPECT_LT(one.worst_tbt(), 0.0);  // below two tokens
  EXPECT_TRUE(one.pending_gaps.empty());
}

TEST(RequestRecord, TokenTimeGoingBackwardsNamesTheRequest) {
  RequestRecord r = sample_record({11.0, 12.0});
  r.id = 42;
  try {
    r.emit_token(11.5);
    FAIL() << "expected a backwards token time to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("request 42"), std::string::npos)
        << e.what();
  }
  r.emit_token(12.0);  // a zero gap is not backwards
  EXPECT_EQ(r.tokens_emitted, 3);
}

TEST(RequestRecord, DerivedMetrics) {
  const RequestRecord r = sample_record();
  EXPECT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.scheduling_delay(), 0.5);
  EXPECT_DOUBLE_EQ(r.ttft(), 1.0);
  EXPECT_DOUBLE_EQ(r.e2e_latency(), 5.0);
  EXPECT_DOUBLE_EQ(r.normalized_e2e_latency(), 0.5);
  EXPECT_DOUBLE_EQ(r.normalized_execution_latency(), 0.45);
}

TEST(RequestRecord, IncompleteRequest) {
  RequestRecord r = sample_record();
  r.completed_time = -1.0;
  EXPECT_FALSE(r.completed());
}

TEST(MetricsCollector, AggregatesRequestLevelMetrics) {
  MetricsCollector collector(1, 312e12, 1);
  RequestRecord r1 = sample_record();
  RequestRecord r2 = sample_record({11.0, 20.0});
  r2.id = 2;
  r2.completed_time = 20.0;  // norm e2e = 1.0
  LatencyDistribution tbt;
  r1.fold_gaps(tbt);
  r2.fold_gaps(tbt);
  collector.record_tbt(/*tenant=*/0, tbt);
  collector.record_request(r1);
  collector.record_request(r2);

  const SimulationMetrics m = collector.finalize(20.0);
  EXPECT_EQ(m.num_requests, 2u);
  EXPECT_EQ(m.num_completed, 2u);
  EXPECT_DOUBLE_EQ(m.throughput_qps, 0.1);
  // TBT samples: 9 gaps from r1 + 1 gap from r2.
  EXPECT_EQ(m.tbt.count, 10u);
  EXPECT_DOUBLE_EQ(m.tbt.max, 9.0);
}

TEST(MetricsCollector, IncompleteRequestsCountedButNotAggregated) {
  MetricsCollector collector(1, 312e12, 1);
  collector.record_request(sample_record());
  RequestRecord incomplete = sample_record();
  incomplete.id = 3;
  incomplete.completed_time = -1.0;
  collector.record_request(incomplete);
  const SimulationMetrics m = collector.finalize(20.0);
  EXPECT_EQ(m.num_requests, 2u);
  EXPECT_EQ(m.num_completed, 1u);
}

TEST(MetricsCollector, MfuAccountsForClusterPeak) {
  // One batch doing 1e12 FLOPs over 1s on a 312 TFLOPs GPU ~ 0.32% MFU.
  MetricsCollector collector(1, 312e12, 1);
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 1.0;
  batch.flops = 1e12;
  batch.batch_size = 4;
  batch.kv_utilization = 0.5;
  collector.record_batch(batch);
  const SimulationMetrics m = collector.finalize(1.0);
  EXPECT_NEAR(m.mfu, 1e12 / 312e12, 1e-9);
  EXPECT_DOUBLE_EQ(m.busy_fraction, 1.0);
  EXPECT_DOUBLE_EQ(m.mean_kv_utilization, 0.5);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 4.0);
}

TEST(MetricsCollector, MfuDividesAcrossGpus) {
  MetricsCollector collector(2, 312e12, 4);  // 8 GPUs in the cluster
  BatchRecord batch;
  batch.end_time = 1.0;
  batch.flops = 312e12;
  collector.record_batch(batch);
  const SimulationMetrics m = collector.finalize(1.0);
  EXPECT_NEAR(m.mfu, 1.0 / 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.busy_fraction, 0.5);  // 1 of 2 replicas busy
}

TEST(MetricsCollector, TimeWeightedAverages) {
  MetricsCollector collector(1, 1e12, 1);
  BatchRecord slow;
  slow.start_time = 0.0;
  slow.end_time = 9.0;  // 9s at batch size 10
  slow.batch_size = 10;
  slow.kv_utilization = 1.0;
  BatchRecord fast;
  fast.start_time = 9.0;
  fast.end_time = 10.0;  // 1s at batch size 0
  fast.batch_size = 0;
  fast.kv_utilization = 0.0;
  collector.record_batch(slow);
  collector.record_batch(fast);
  const SimulationMetrics m = collector.finalize(10.0);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 9.0);
  EXPECT_DOUBLE_EQ(m.mean_kv_utilization, 0.9);
}

TEST(MetricsCollector, RestartsSummed) {
  MetricsCollector collector(1, 1e12, 1);
  RequestRecord r = sample_record();
  r.num_restarts = 2;
  collector.record_request(r);
  RequestRecord r2 = sample_record();
  r2.num_restarts = 1;
  collector.record_request(r2);
  EXPECT_EQ(collector.finalize(20.0).num_restarts, 3);
}

TEST(MetricsCollector, ToStringContainsKeyFields) {
  MetricsCollector collector(1, 1e12, 1);
  collector.record_request(sample_record());
  const std::string s = collector.finalize(20.0).to_string();
  EXPECT_NE(s.find("TTFT"), std::string::npos);
  EXPECT_NE(s.find("TBT"), std::string::npos);
  EXPECT_NE(s.find("MFU"), std::string::npos);
}

TEST(MetricsCollector, InvalidConstructionThrows) {
  EXPECT_THROW(MetricsCollector(0, 1e12, 1), Error);
  EXPECT_THROW(MetricsCollector(1, 0.0, 1), Error);
  EXPECT_THROW(MetricsCollector(1, 1e12, 0), Error);
}

TEST(MetricsCollector, NegativeBatchDurationThrows) {
  MetricsCollector collector(1, 1e12, 1);
  BatchRecord bad;
  bad.start_time = 2.0;
  bad.end_time = 1.0;
  EXPECT_THROW(collector.record_batch(bad), Error);
}

}  // namespace
}  // namespace vidur

// Appended coverage: MBU (model bandwidth utilization) accounting.
namespace vidur {
namespace {

TEST(MetricsCollectorMbu, ComputedAgainstPerGpuBandwidth) {
  MetricsCollector collector(1, 1e12, 4, /*hbm=*/1e12);
  BatchRecord batch;
  batch.end_time = 2.0;
  batch.hbm_bytes_per_gpu = 1e12;  // 1e12 bytes over 2s on 1e12 B/s -> 50%
  collector.record_batch(batch);
  const SimulationMetrics m = collector.finalize(2.0);
  EXPECT_NEAR(m.mbu, 0.5, 1e-9);
}

TEST(MetricsCollectorMbu, ZeroBandwidthDisablesMbu) {
  MetricsCollector collector(1, 1e12, 1);
  BatchRecord batch;
  batch.end_time = 1.0;
  batch.hbm_bytes_per_gpu = 1e12;
  collector.record_batch(batch);
  EXPECT_DOUBLE_EQ(collector.finalize(1.0).mbu, 0.0);
}

// ------------------------------------------------------------------ energy

PoolResources one_gpu_pool() {
  return PoolResources{.name = "fleet",
                       .gpus_per_replica = 1,
                       .peak_flops_per_gpu = 1e12,
                       .hbm_bytes_per_sec_per_gpu = 1e12,
                       .idle_watts_per_gpu = 100.0,
                       .peak_watts_per_gpu = 500.0};
}

/// A collector over `slots` replicas of `pool`.
MetricsCollector one_pool_collector(const PoolResources& pool = one_gpu_pool(),
                                    int slots = 1) {
  return MetricsCollector({pool},
                          std::vector<int>(static_cast<std::size_t>(slots), 0));
}

RequestRecord one_token_request() {
  RequestRecord r = sample_record({11.0});  // at prefill completion
  r.decode_tokens = 1;
  return r;
}

TEST(MetricsEnergy, FullyUtilizedBatchDrawsPeakPower) {
  MetricsCollector collector = one_pool_collector();
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 2.0;
  batch.flops = 2e12;  // 1e12 FLOP/s over 2s on a 1e12-peak GPU: 100%
  collector.record_batch(batch);
  collector.record_request(one_token_request());
  const SimulationMetrics m = collector.finalize(2.0);
  EXPECT_NEAR(m.total_energy_joules, 2.0 * 500.0, 1e-6);
  EXPECT_NEAR(m.mean_cluster_power_watts, 500.0, 1e-6);
}

TEST(MetricsEnergy, IdleClusterDrawsIdlePower) {
  MetricsCollector collector = one_pool_collector();
  collector.record_request(one_token_request());
  const SimulationMetrics m = collector.finalize(10.0);
  EXPECT_NEAR(m.total_energy_joules, 10.0 * 100.0, 1e-6);
  EXPECT_NEAR(m.mean_cluster_power_watts, 100.0, 1e-6);
}

TEST(MetricsEnergy, HalfUtilizedBatchInterpolatesLinearly) {
  MetricsCollector collector = one_pool_collector();
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 1.0;
  batch.flops = 5e11;  // 50% FLOP utilization, no HBM traffic
  collector.record_batch(batch);
  collector.record_request(one_token_request());
  // 1s busy at idle + 0.5*(peak-idle) = 300 W.
  EXPECT_NEAR(collector.finalize(1.0).total_energy_joules, 300.0, 1e-6);
}

TEST(MetricsEnergy, IntensityUsesDominantRooflineAxis) {
  // A memory-bound batch: low FLOP utilization but saturated bandwidth must
  // be billed as fully utilized (decode iterations look exactly like this).
  MetricsCollector collector = one_pool_collector();
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 1.0;
  batch.flops = 1e10;             // 1% of peak
  batch.hbm_bytes_per_gpu = 1e12;  // 100% of bandwidth
  collector.record_batch(batch);
  collector.record_request(one_token_request());
  EXPECT_NEAR(collector.finalize(1.0).total_energy_joules, 500.0, 1e-6);
}

TEST(MetricsEnergy, AutoscaledFleetBillsIdleWattsFromScalingTimeline) {
  // 4-slot elastic fleet that averaged one active replica over a 10s run:
  // idle watts follow the paid replica-hours in the scaling report, not
  // the static slot ceiling.
  MetricsCollector collector = one_pool_collector(one_gpu_pool(), 4);
  collector.record_request(one_token_request());

  ClusterScalingReport scaling;
  scaling.enabled = true;
  scaling.fleet_size = 4;
  scaling.replica_hours = 10.0 / 3600.0;  // 10 paid replica-seconds
  scaling.gpu_hours = scaling.replica_hours;
  const SimulationMetrics elastic = collector.finalize(10.0, scaling);
  EXPECT_NEAR(elastic.total_energy_joules, 10.0 * 100.0, 1e-6);
  EXPECT_TRUE(elastic.scaling.enabled);

  // The one-argument finalize keeps the legacy static-fleet assumption:
  // every slot always on, 4x the idle energy.
  const SimulationMetrics static_fleet = collector.finalize(10.0);
  EXPECT_NEAR(static_fleet.total_energy_joules, 4 * 10.0 * 100.0, 1e-6);
  EXPECT_FALSE(static_fleet.scaling.enabled);
  EXPECT_EQ(static_fleet.scaling.fleet_size, 4);
}

TEST(MetricsEnergy, BusyEnergyStillAccruesUnderAScalingReport) {
  // A fully-utilized 2s batch plus 8 paid-but-idle GPU-seconds.
  MetricsCollector collector = one_pool_collector();
  BatchRecord batch;
  batch.start_time = 0.0;
  batch.end_time = 2.0;
  batch.flops = 2e12;  // 100% utilization for 2s
  collector.record_batch(batch);
  collector.record_request(one_token_request());

  ClusterScalingReport scaling;
  scaling.enabled = true;
  scaling.fleet_size = 1;
  scaling.gpu_hours = 10.0 / 3600.0;
  const SimulationMetrics m = collector.finalize(10.0, scaling);
  EXPECT_NEAR(m.total_energy_joules, 2.0 * 500.0 + 8.0 * 100.0, 1e-6);
}

TEST(MetricsEnergy, EnergyPerTokenDividesByOutputTokens) {
  MetricsCollector collector = one_pool_collector();
  RequestRecord r = sample_record();  // 10 decode tokens
  collector.record_request(r);
  const SimulationMetrics m = collector.finalize(1.0);
  EXPECT_NEAR(m.energy_per_output_token, m.total_energy_joules / 10.0, 1e-9);
}

TEST(MetricsEnergy, DisabledWithoutPowerModel) {
  MetricsCollector collector(1, 1e12, 1);
  BatchRecord batch;
  batch.end_time = 1.0;
  batch.flops = 1e12;
  collector.record_batch(batch);
  const SimulationMetrics m = collector.finalize(1.0);
  EXPECT_DOUBLE_EQ(m.total_energy_joules, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_cluster_power_watts, 0.0);
}

TEST(MetricsEnergy, InvalidPowerModelThrows) {
  PoolResources pool = one_gpu_pool();
  pool.peak_watts_per_gpu = 50.0;  // below idle
  EXPECT_THROW(one_pool_collector(pool), Error);
}

// ---------------------------------------------------------- per-slot fold

/// A scaling report billing every slot of every pool for the whole run.
ClusterScalingReport full_time_report(const std::vector<PoolResources>& pools,
                                      const std::vector<int>& pool_of_slot,
                                      Seconds now) {
  ClusterScalingReport scaling;
  scaling.fleet_size = static_cast<int>(pool_of_slot.size());
  for (std::size_t i = 0; i < pools.size(); ++i) {
    PoolScalingReport pool;
    pool.name = pools[i].name;
    pool.gpus_per_replica = pools[i].gpus_per_replica;
    for (const int p : pool_of_slot) pool.slots += p == static_cast<int>(i);
    pool.replica_hours = pool.slots * now / 3600.0;
    pool.gpu_hours = pool.replica_hours * pool.gpus_per_replica;
    scaling.replica_hours += pool.replica_hours;
    scaling.gpu_hours += pool.gpu_hours;
    scaling.pools.push_back(pool);
  }
  return scaling;
}

TEST(Metrics, BatchFoldIsPerSlot) {
  // The sharded engine's threads fold their own slots' batches in any
  // cross-slot interleaving; only each slot's own order is fixed. Two
  // interleavings of the same per-slot sequences must finalize to the same
  // bytes, fleet and per-pool fields alike. The values are irregular so
  // that a cross-slot summation order would show in the last digits.
  PoolResources a = one_gpu_pool();
  a.name = "a";
  a.gpus_per_replica = 2;
  PoolResources b = one_gpu_pool();
  b.name = "b";
  b.peak_flops_per_gpu = 3e11;
  b.hbm_bytes_per_sec_per_gpu = 7e11;
  const std::vector<PoolResources> pools = {a, b};
  const std::vector<int> pool_of_slot = {0, 0, 0, 1, 1};
  const auto slots = pool_of_slot.size();

  Rng rng(42);
  std::vector<std::vector<BatchRecord>> per_slot(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    Seconds t = rng.uniform();
    for (int k = 0; k < 50; ++k) {
      BatchRecord batch;
      batch.replica = static_cast<ReplicaId>(slot);
      batch.start_time = t;
      t += 0.01 + 0.1 * rng.uniform();
      batch.end_time = t;
      batch.flops = 1e11 * rng.uniform();
      batch.hbm_bytes_per_gpu = static_cast<ByteCount>(5e10 * rng.uniform());
      batch.batch_size = 1 + static_cast<int>(64 * rng.uniform());
      batch.kv_utilization = rng.uniform();
      per_slot[slot].push_back(batch);
    }
  }
  const Seconds now = 10.0;
  const ClusterScalingReport scaling =
      full_time_report(pools, pool_of_slot, now);

  // Slot-major in reverse slot order, then batch-major across slots.
  MetricsCollector by_slot(pools, pool_of_slot);
  for (std::size_t slot = slots; slot-- > 0;)
    for (const BatchRecord& batch : per_slot[slot]) by_slot.record_batch(batch);
  MetricsCollector by_batch(pools, pool_of_slot);
  for (std::size_t k = 0; k < per_slot[0].size(); ++k)
    for (std::size_t slot = 0; slot < slots; ++slot)
      by_batch.record_batch(per_slot[slot][k]);

  const SimulationMetrics m = by_slot.finalize(now, scaling);
  EXPECT_GT(m.mfu, 0.0);
  EXPECT_GT(m.total_energy_joules, 0.0);
  EXPECT_EQ(metrics_to_json(m).dump(),
            metrics_to_json(by_batch.finalize(now, scaling)).dump());
}

TEST(Metrics, TwoPoolSlotSumsMatchHandComputedValues) {
  // Pool "fast" has two slots, pool "slow" one; batches of different
  // slots arrive interleaved. Every number is exact by hand.
  PoolResources fast;  // slots 0 and 1
  fast.name = "fast";
  fast.peak_flops_per_gpu = 100.0;
  fast.hbm_bytes_per_sec_per_gpu = 50.0;
  fast.idle_watts_per_gpu = 10.0;
  fast.peak_watts_per_gpu = 110.0;
  PoolResources slow;  // slot 2
  slow.name = "slow";
  slow.peak_flops_per_gpu = 50.0;
  slow.hbm_bytes_per_sec_per_gpu = 100.0;
  slow.idle_watts_per_gpu = 20.0;
  slow.peak_watts_per_gpu = 120.0;
  const std::vector<int> pool_of_slot = {0, 0, 1};
  MetricsCollector collector({fast, slow}, pool_of_slot);

  const auto batch = [](ReplicaId slot, Seconds start, Seconds end,
                        FlopCount flops, ByteCount hbm, int size, double kv) {
    BatchRecord r;
    r.replica = slot;
    r.start_time = start;
    r.end_time = end;
    r.flops = flops;
    r.hbm_bytes_per_gpu = hbm;
    r.batch_size = size;
    r.kv_utilization = kv;
    return r;
  };
  // Per batch: FLOP / bandwidth intensity -> busy energy.
  collector.record_batch(batch(2, 0, 1, 50, 50, 8, 1.0));  // 1.0/0.5 -> 120 J
  collector.record_batch(batch(0, 0, 2, 100, 25, 2, 0.5));  // .5/.25 -> 120 J
  collector.record_batch(batch(1, 0, 4, 200, 100, 1, 0.75));  // .5/.5 -> 240 J
  collector.record_batch(batch(2, 1, 3, 25, 100, 2, 0.5));  // .25/.5 -> 140 J
  collector.record_batch(batch(0, 2, 4, 200, 0, 4, 0.25));  // 1.0/0 -> 220 J

  const SimulationMetrics m = collector.finalize(
      10.0, full_time_report({fast, slow}, pool_of_slot, 10.0));
  ASSERT_EQ(m.scaling.pools.size(), 2u);
  const PoolScalingReport& f = m.scaling.pools[0];
  const PoolScalingReport& s = m.scaling.pools[1];

  // fast, 20 paid s: 500 flops / (20 s * 100) = 0.25; 125 B / (20 s * 50)
  // = 0.125; busy 8 / 20; 580 J busy + 12 idle s * 10 W = 700 J.
  EXPECT_DOUBLE_EQ(f.mfu, 0.25);
  EXPECT_DOUBLE_EQ(f.mbu, 0.125);
  EXPECT_DOUBLE_EQ(f.busy_fraction, 0.4);
  EXPECT_DOUBLE_EQ(f.energy_joules, 700.0);
  // slow, 10 paid s: 75 / (10 * 50) = 0.15; 150 / (10 * 100) = 0.15;
  // busy 3 / 10; 260 J busy + 7 idle s * 20 W = 400 J.
  EXPECT_DOUBLE_EQ(s.mfu, 0.15);
  EXPECT_DOUBLE_EQ(s.mbu, 0.15);
  EXPECT_DOUBLE_EQ(s.busy_fraction, 0.3);
  EXPECT_DOUBLE_EQ(s.energy_joules, 400.0);

  // The fleet: 575 flops / (10 s * 250) ; 275 B / (10 s * 200); 11 busy
  // replica-s of 30; time-weighted batch size 28 / 11 and KV 6.5 / 11;
  // energy is the pools' 700 + 400 J.
  EXPECT_DOUBLE_EQ(m.mfu, 575.0 / 2500.0);
  EXPECT_DOUBLE_EQ(m.mbu, 275.0 / 2000.0);
  EXPECT_DOUBLE_EQ(m.busy_fraction, 11.0 / 30.0);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 28.0 / 11.0);
  EXPECT_DOUBLE_EQ(m.mean_kv_utilization, 6.5 / 11.0);
  EXPECT_DOUBLE_EQ(m.total_energy_joules, 1100.0);
}

// --------------------------------------------------------------- operators

TEST(MetricsOperators, AccumulatesAcrossStages) {
  MetricsCollector collector = one_pool_collector();
  collector.record_operators(
      {{OpType::kAttnDecode, 0.002}, {OpType::kMlpDownProj, 0.001}});
  collector.record_operators({{OpType::kAttnDecode, 0.003}});
  const SimulationMetrics m = collector.finalize(1.0);
  ASSERT_EQ(m.operator_stats.size(), 2u);
  EXPECT_EQ(m.operator_stats.at(OpType::kAttnDecode).invocations, 2);
  EXPECT_NEAR(m.operator_stats.at(OpType::kAttnDecode).total_seconds, 0.005,
              1e-12);
  EXPECT_EQ(m.operator_stats.at(OpType::kMlpDownProj).invocations, 1);
}

TEST(MetricsOperators, TableSortsHeaviestFirst) {
  MetricsCollector collector = one_pool_collector();
  collector.record_operators(
      {{OpType::kRmsNorm, 0.001}, {OpType::kMlpGateUpProj, 0.010}});
  const std::string table = collector.finalize(1.0).operator_table();
  const auto heavy = table.find("mlp_gate_up_proj");
  const auto light = table.find("rms_norm");
  ASSERT_NE(heavy, std::string::npos);
  ASSERT_NE(light, std::string::npos);
  EXPECT_LT(heavy, light);
}

TEST(MetricsOperators, EmptyTableWhenNotCollected) {
  MetricsCollector collector = one_pool_collector();
  EXPECT_TRUE(collector.finalize(1.0).operator_table().empty());
}

TEST(MetricsCollector, ZeroMakespanProducesNoRates) {
  // finalize(0) must not divide by zero: all rate/utilization metrics stay
  // at their zero defaults.
  MetricsCollector collector = one_pool_collector();
  collector.record_request(one_token_request());
  const SimulationMetrics m = collector.finalize(0.0);
  EXPECT_DOUBLE_EQ(m.throughput_qps, 0.0);
  EXPECT_DOUBLE_EQ(m.mfu, 0.0);
  EXPECT_DOUBLE_EQ(m.total_energy_joules, 0.0);
  EXPECT_EQ(m.num_completed, 1u);
}

}  // namespace
}  // namespace vidur
