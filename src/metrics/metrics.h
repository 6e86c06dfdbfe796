// Metric collection (Vidur-Bench, paper §5.2): request-level, replica-level
// and cluster-level performance metrics gathered during a simulation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/replica_state.h"
#include "common/check.h"
#include "common/stats.h"
#include "common/types.h"
#include "execution/batch_spec.h"
#include "model/model_spec.h"
#include "obs/registry.h"
#include "obs/rolling.h"
#include "operators/op_type.h"

namespace vidur {

/// Latency targets for one tenant's traffic. A request meets its SLO when it
/// completes and every enabled target holds: TTFT within `ttft_target`, and
/// the worst inter-token gap within `tbt_target`. Zero disables a target.
struct SloSpec {
  Seconds ttft_target = 0.0;
  Seconds tbt_target = 0.0;

  bool enabled() const { return ttft_target > 0.0 || tbt_target > 0.0; }

  bool operator==(const SloSpec&) const = default;
};

/// Identity of one tenant for metric attribution (name, priority, SLO).
/// The scenario engine builds these; hand-rolled simulations may pass their
/// own to get per-tenant breakdowns on any tagged trace.
struct TenantInfo {
  TenantId id = 0;
  std::string name;
  int priority = 0;
  SloSpec slo;
};

/// Per-request lifecycle timestamps, filled in by the scheduler stack.
struct RequestRecord {
  RequestId id = -1;
  TenantId tenant = 0;
  Seconds arrival_time = 0.0;
  Seconds first_scheduled_time = -1.0;
  Seconds prefill_completed_time = -1.0;  ///< first output token (TTFT end)
  Seconds completed_time = -1.0;
  TokenCount prefill_tokens = 0;
  TokenCount decode_tokens = 0;
  int num_restarts = 0;  ///< vLLM-style preempt-and-restart events
  int num_retries = 0;   ///< replica-failure retries (backoff + re-route)
  int num_handoffs = 0;  ///< queued-on-a-dead-replica immediate re-routes
  bool shed = false;     ///< dropped by the graceful-degradation floor
  bool lost = false;     ///< recovery attempts exhausted (terminal)
  // Streaming output-token state (TBT). Tokens emitted before a restart
  // stay counted, so a gap may span the restart's stall. The gap buffer
  // lives only while the request is in flight: completion folds it into
  // its replica's TBT distribution, a shed or lost request drops it.
  Seconds last_token_time = -1.0;  ///< -1 before the first token
  Seconds worst_gap = -1.0;        ///< -1 below two tokens
  TokenCount tokens_emitted = 0;   ///< output tokens, restarts included
  std::vector<Seconds> pending_gaps;  ///< gaps not yet folded

  /// Record an output token at `now`; tokens never go back in time.
  void emit_token(Seconds now) {
    if (tokens_emitted > 0) {
      VIDUR_CHECK_MSG(now >= last_token_time,
                      "request " << id << " emitted a token at " << now
                                 << ", before its previous token at "
                                 << last_token_time);
      const Seconds gap = now - last_token_time;
      worst_gap = std::max(worst_gap, gap);
      // One allocation per request in the common (restart-free) case.
      if (pending_gaps.capacity() == 0)
        pending_gaps.reserve(static_cast<std::size_t>(
            std::max<TokenCount>(decode_tokens - 1, 1)));
      pending_gaps.push_back(gap);
    }
    last_token_time = now;
    ++tokens_emitted;
  }
  /// Add the buffered gaps to `tbt` and free the buffer.
  void fold_gaps(LatencyDistribution& tbt);
  /// Free the gap buffer without counting it (shed or lost requests).
  void drop_gaps() { std::vector<Seconds>().swap(pending_gaps); }

  bool completed() const { return completed_time >= 0.0; }
  /// Worst inter-token gap; -1 with fewer than two output tokens.
  Seconds worst_tbt() const { return worst_gap; }
  /// Touched by a fault: displaced, handed off, shed or lost.
  bool fault_impacted() const {
    return num_retries > 0 || num_handoffs > 0 || shed || lost;
  }
  Seconds scheduling_delay() const {
    return first_scheduled_time - arrival_time;
  }
  Seconds ttft() const { return prefill_completed_time - arrival_time; }
  Seconds e2e_latency() const { return completed_time - arrival_time; }
  /// End-to-end latency per output token (the paper's normalized latency).
  Seconds normalized_e2e_latency() const {
    return e2e_latency() / static_cast<double>(decode_tokens);
  }
  /// Execution-only latency per output token (static-workload metric,
  /// paper §7.2: excludes scheduling delay).
  Seconds normalized_execution_latency() const {
    return (completed_time - first_scheduled_time) /
           static_cast<double>(decode_tokens);
  }
};

/// True when `r` completed within every enabled target of `slo`.
bool meets_slo(const RequestRecord& r, const SloSpec& slo);

/// One executed iteration (replica-level accounting).
struct BatchRecord {
  ReplicaId replica = 0;
  Seconds start_time = 0.0;
  Seconds end_time = 0.0;
  int batch_size = 0;
  FlopCount flops = 0.0;
  ByteCount hbm_bytes_per_gpu = 0;  ///< HBM traffic per GPU (MBU accounting)
  double kv_utilization = 0.0;  ///< blocks in use / total, at submission
};

/// Resource rates of one pool: the collector accounts every batch against
/// its own pool's SKU. Power draw follows a linear utilization model: a GPU
/// running a batch at intensity u (its FLOP or bandwidth utilization,
/// whichever is higher) draws idle + (peak - idle) * u watts; an idle GPU
/// draws idle watts.
struct PoolResources {
  std::string name;
  int gpus_per_replica = 1;
  double peak_flops_per_gpu = 0.0;
  double hbm_bytes_per_sec_per_gpu = 0.0;
  double idle_watts_per_gpu = 0.0;
  double peak_watts_per_gpu = 0.0;  ///< 0 disables energy accounting
};

/// Exact prefix-cache accounting aggregated across a run's replicas
/// (src/kvcache/). Conservation invariants: hits + misses == lookups, and
/// tokens_saved is exactly the prefill compute the schedulers skipped.
struct PrefixCacheMetrics {
  bool enabled = false;
  std::int64_t lookups = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserted_blocks = 0;
  std::int64_t evicted_blocks = 0;
  TokenCount tokens_saved = 0;       ///< prefill tokens served from cache
  double bytes_saved = 0.0;          ///< KV bytes not recomputed (replica-wide)
  std::int64_t resident_sessions = 0;  ///< sessions with resident KV at end

  double hit_rate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }

  /// Per-tenant / per-pool slice of the cache traffic.
  struct Slice {
    std::string name;
    std::int64_t lookups = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    TokenCount tokens_saved = 0;

    double hit_rate() const {
      return lookups == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(lookups);
    }
  };
  std::vector<Slice> by_tenant;  ///< sorted by tenant id
  std::vector<Slice> by_pool;    ///< pool order (pool deployments only)
};

/// Resilience accounting of a faulted run (src/fault/): what the injected
/// failures cost and how recovery answered. Conservation invariant over the
/// workload: arrived == completed + shed + lost (every arrival terminal in
/// exactly one bucket).
struct ResilienceMetrics {
  bool enabled = false;
  // Fault events injected.
  std::int64_t num_crashes = 0;
  std::int64_t num_spot_reclaims = 0;   ///< replicas reclaimed by spot windows
  std::int64_t num_degrade_events = 0;  ///< straggler episodes started
  // Recovery traffic.
  std::int64_t num_retries = 0;     ///< backoff-and-re-route events
  std::int64_t num_handoffs = 0;    ///< queued casualties re-routed at once
  std::int64_t num_shed = 0;        ///< requests dropped by the shed floor
  std::int64_t num_lost = 0;        ///< requests out of recovery attempts
  TokenCount tokens_reprefilled = 0;   ///< prefill work redone after failures
  TokenCount decode_tokens_discarded = 0;  ///< decode progress thrown away
  // Repair: capacity-hole close-out by the autoscaler.
  std::int64_t num_repairs = 0;  ///< replacement activations after kills
  Seconds mttr_s = 0.0;          ///< mean kill -> replacement-active time
  // SLO attainment, fault-blame split: `clean` counts only requests no
  // fault touched; `impacted` counts only touched ones (shed/lost = miss).
  // Requests cut off with no verdict (neither completed, shed nor lost)
  // count on neither side. -1 when the slice is empty or no tenant carries
  // an SLO. The collector fills both for every run; `enabled` decides
  // whether they are reported.
  double slo_attainment_clean = -1.0;
  double slo_attainment_impacted = -1.0;
};

/// Aggregated output of one simulation.
struct SimulationMetrics {
  // Request-level.
  Summary scheduling_delay;
  Summary ttft;
  Summary tbt;
  Summary normalized_e2e_latency;
  Summary normalized_execution_latency;
  std::size_t num_requests = 0;
  std::size_t num_completed = 0;
  std::int64_t num_restarts = 0;
  /// Discrete events executed by the simulation (engine-throughput metric:
  /// events / wall-second is what the core-perf benchmarks track).
  std::uint64_t num_sim_events = 0;

  // Replica/cluster-level.
  Seconds makespan = 0.0;
  double throughput_qps = 0.0;     ///< completed requests / makespan
  double output_tokens_per_sec = 0.0;
  double mfu = 0.0;                ///< model FLOPs utilization
  double mbu = 0.0;                ///< model bandwidth utilization
  double mean_batch_size = 0.0;
  double mean_kv_utilization = 0.0;
  double busy_fraction = 0.0;      ///< replica busy time / makespan

  // Energy (zero when the cluster spec carries no power model).
  double total_energy_joules = 0.0;        ///< cluster GPU energy, whole run
  double energy_per_output_token = 0.0;    ///< joules per generated token
  double mean_cluster_power_watts = 0.0;   ///< total energy / makespan

  // Operator-level (paper §5.2; only filled when the simulation opts in via
  // SimulationConfig::collect_operator_metrics).
  struct OperatorStats {
    std::int64_t invocations = 0;  ///< stage executions including this op
    Seconds total_seconds = 0.0;   ///< summed per-stage time attribution
  };
  std::map<OpType, OperatorStats> operator_stats;

  // Per-tenant breakdown (only filled when the trace carries tenant tags or
  // tenant infos were registered; single-tenant runs leave it empty unless
  // infos were provided for tenant 0).
  struct TenantMetrics {
    TenantInfo info;
    std::size_t num_requests = 0;
    std::size_t num_completed = 0;
    Summary scheduling_delay;
    Summary ttft;
    Summary tbt;
    double throughput_qps = 0.0;
    double output_tokens_per_sec = 0.0;
    /// Fraction of this tenant's requests meeting their SLO (incomplete
    /// requests count as misses). -1 when the tenant carries no SLO.
    double slo_attainment = -1.0;
  };
  std::vector<TenantMetrics> tenant_metrics;  ///< sorted by tenant id

  /// Replica-count and GPU-hour/cost accounting of the run's fleet. Filled
  /// by the simulator: a flat fixed-fleet report normally, the full scaling
  /// timeline when an autoscaler managed the replicas (src/cluster/).
  ClusterScalingReport scaling;

  /// Final observability-registry state (src/obs/registry.h): every
  /// counter and gauge the simulator, schedulers and cluster manager
  /// maintained during the run, plus the exact `request.*` latency
  /// summaries the collector folds. Always filled by the simulator.
  RegistrySnapshot registry;

  /// Rolling windowed metric tracks ("cluster", "tenant:<name>",
  /// "pool:<name>"); empty unless the simulation enabled a rolling window
  /// (SimObs::rolling_window_s > 0).
  std::vector<RollingTrack> rolling;

  /// Estimator prediction-cache traffic attributable to this run (filled by
  /// VidurSession::simulate; zero for reference replays, which bypass the
  /// estimator). Deltas of the estimators' relaxed atomic counters — exact
  /// for serial runs, approximate when sweeps share estimators across
  /// threads.
  std::int64_t estimator_cache_hits = 0;
  std::int64_t estimator_cache_misses = 0;

  /// Prefix-cache traffic (KV reuse); enabled=false when the deployment
  /// ran without a prefix cache.
  PrefixCacheMetrics prefix_cache;

  /// Fault-injection and recovery accounting; enabled=false when the
  /// deployment ran without a faults block.
  ResilienceMetrics resilience;

  /// Cluster-wide SLO attainment: the fraction of all requests (across
  /// every SLO-carrying tenant, weighted by traffic) that met their
  /// tenant's SLO. -1 when no tenant carries an SLO.
  double aggregate_slo_attainment() const;

  /// Rendered operator time table, heaviest first (empty when no operator
  /// metrics were collected).
  std::string operator_table() const;

  /// Rendered per-tenant breakdown table (empty when single-tenant).
  std::string tenant_table() const;

  std::string to_string() const;
};

/// Folds each request record once, as it arrives, into exact per-request
/// series, per-tenant accumulators and the fault-blame SLO split; folds each
/// batch once into its own slot's accumulator; keeps per-tenant TBT
/// distributions; and aggregates them all at the end. Records are not
/// retained.
class MetricsCollector {
 public:
  /// `pools` carries each pool's rates, in pool order (the scaling report's
  /// order); `pool_of_slot` maps every replica slot to its pool index.
  MetricsCollector(std::vector<PoolResources> pools,
                   std::vector<int> pool_of_slot);
  /// One pool of `num_replicas` identical replicas without a power model.
  MetricsCollector(int num_replicas, double peak_flops_per_gpu,
                   int gpus_per_replica,
                   double hbm_bytes_per_sec_per_gpu = 0.0);

  /// Register tenant identities for per-tenant attribution. Records tagged
  /// with an unregistered tenant id still get a breakdown row under a
  /// generated name. Must precede the first record_request(): the fold
  /// judges each request against its tenant's SLO as it arrives.
  void set_tenants(const std::vector<TenantInfo>& tenants);

  /// Fold one batch into its replica slot's accumulator, and nothing else:
  /// calls for distinct slots may run concurrently (the sharded engine's
  /// threads each fold their own replicas). One slot's calls must come in
  /// that replica's batch order, which fixes every sum's summation order.
  void record_batch(const BatchRecord& record);
  /// Fold one terminal (or cut-off) request. Fleet series keep the order
  /// of the calls, so the caller fixes the summaries' summation order.
  void record_request(const RequestRecord& record);
  /// Add one replica's inter-token gaps of `tenant`'s completed requests.
  /// The fleet TBT is every tenant's gaps together.
  void record_tbt(TenantId tenant, const LatencyDistribution& gaps);
  /// Accumulate one stage execution's per-operator time attribution.
  void record_operators(const std::map<OpType, Seconds>& per_op);

  /// Aggregate. Fills the registry snapshot's `request.ttft_s`,
  /// `request.tbt_worst_s` and `request.e2e_s` entries (exact, from the
  /// same series as the summaries); the caller adds counters and gauges.
  /// `now` is the simulation end time (makespan); `scaling` is
  /// the fleet's scaling report, attached to the result. The batch sums
  /// reduce the slot accumulators in slot order, into the fleet's and into
  /// each pool's, so the result does not depend on how batches of
  /// different slots interleaved in time. Idle energy is
  /// billed on the fleet's paid GPU-time — an autoscaled run pays idle
  /// watts only while a replica is up — with one fleet-wide clamp, and the
  /// report's pools receive their exact MFU/MBU/busy/energy breakout. A
  /// fleet of mixed pool rates needs the report's per-pool paid hours. The
  /// one-argument form assumes a fleet of identical pools, all active for
  /// the whole run.
  SimulationMetrics finalize(Seconds now) const;
  SimulationMetrics finalize(Seconds now,
                             const ClusterScalingReport& scaling) const;

 private:
  /// Batch sums of one slot (and, reduced, of a pool or the fleet). A
  /// cache line each, so shard threads folding neighbouring slots never
  /// share one.
  struct alignas(64) BatchSums {
    double flops = 0.0;
    double hbm_bytes = 0.0;
    double busy_time = 0.0;
    double kv_util_time = 0.0;     ///< KV utilization x duration
    double batch_size_time = 0.0;  ///< batch size x duration
    double busy_energy_joules = 0.0;
    void add(const BatchSums& o);
  };

  /// One tenant's share of the request fold. The series fill only once
  /// the run is tagged; until then they would copy the fleet's.
  struct TenantAcc {
    TenantInfo info;
    SampleSeries delay, ttft;
    std::size_t num_requests = 0, num_completed = 0, num_slo_met = 0;
    TokenCount output_tokens = 0;
  };
  /// Requests of SLO-carrying tenants with a verdict, and how many met it.
  struct SloSplit {
    std::int64_t total = 0, met = 0;
    double attainment() const {
      return total > 0 ? static_cast<double>(met) / static_cast<double>(total)
                       : -1.0;
    }
  };

  std::vector<PoolResources> pools_;
  std::vector<int> pool_of_slot_;
  std::vector<int> pool_slots_;  ///< slot count per pool
  /// Every pool has the same rates: the fleet is one block of identical
  /// slots and takes the homogeneous arithmetic, bit for bit.
  bool uniform_ = true;
  /// Tenants were registered or a record carried a non-zero tenant: the
  /// result gets a per-tenant breakdown.
  bool tagged_ = false;
  // The request fold. Series hold completed requests in record order.
  std::size_t num_requests_ = 0;
  std::int64_t num_restarts_ = 0;
  TokenCount output_tokens_ = 0;
  SampleSeries delay_, ttft_, e2e_, worst_tbt_, norm_e2e_, norm_exec_;
  std::map<TenantId, TenantAcc> tenant_accs_;
  SloSplit slo_clean_, slo_impacted_;
  std::map<TenantId, LatencyDistribution> tbt_by_tenant_;
  /// The batch fold, one accumulator per slot (batch records are not
  /// retained); energy is at the slot's own pool rates.
  std::vector<BatchSums> slot_sums_;
  std::map<OpType, SimulationMetrics::OperatorStats> operator_stats_;
};

}  // namespace vidur
