// The Vidur event-driven simulator core (paper Fig. 2, component 4).
//
// Wires together the three-tier scheduler stack, an execution backend (the
// runtime-estimator predictor, or the ground-truth reference executor), and
// metric collection, then plays a request trace to completion.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/pool.h"
#include "common/thread_pool.h"
#include "execution/execution_backend.h"
#include "fault/fault_config.h"
#include "fault/fault_injector.h"
#include "hardware/parallel_config.h"
#include "hardware/sku.h"
#include "kvcache/prefix_cache.h"
#include "kvcache/prefix_cache_config.h"
#include "metrics/metrics.h"
#include "model/model_spec.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scheduler/global_scheduler.h"
#include "scheduler/replica_scheduler.h"
#include "scheduler/stage_scheduler.h"
#include "sim/disagg_config.h"
#include "sim/event_queue.h"
#include "workload/request.h"

namespace vidur {

class RollingCollector;

/// Observability attachments of one run (src/obs/). All optional: with the
/// defaults the simulator still maintains its internal metrics registry
/// (snapshotted into SimulationMetrics) but records no trace and no rolling
/// windows. Pointers are borrowed — the caller keeps them alive across
/// run().
struct SimObs {
  /// Lifecycle/batch/cluster event recorder; nullptr disables tracing
  /// (the hot path then pays a single branch per would-be record).
  TraceRecorder* trace = nullptr;
  /// External registry to thread through instead of the simulator's own
  /// (lets several components share one namespace).
  MetricsRegistry* registry = nullptr;
  /// Rolling windowed metrics (per-tenant/per-pool TTFT/TBT/SLO/queue
  /// depth): window length in simulated seconds; 0 disables.
  Seconds rolling_window_s = 0.0;
};

/// A simulated deployment. Every form runs as pools: the constructor lowers
/// the homogeneous fields (`node.sku`, `parallel`, the legacy prefill/decode
/// split in `disagg` and the top-level `autoscale`) into `pools` with
/// lower_to_pools(), so they must stay at their defaults when `pools` is
/// written.
struct SimulationConfig {
  ModelSpec model;
  /// Node topology of every replica; each pool supplies its own SKU (the
  /// node's SKU only names the homogeneous form's).
  NodeSpec node;
  ParallelConfig parallel;
  SchedulerConfig scheduler;
  GlobalSchedulerKind global_scheduler = GlobalSchedulerKind::kRoundRobin;
  double memory_utilization = 0.9;
  /// Safety cutoff; events beyond this simulated time are not executed.
  Seconds max_sim_time = kInfiniteTime;
  /// Collect per-operator time attribution (paper §5.2). Costs one extra
  /// backend decomposition per stage execution; off by default.
  bool collect_operator_metrics = false;
  /// Overlap inter-stage activation sends with the sending stage's next
  /// micro-batch (paper §4.5 future work: asynchronous-communication
  /// pipeline scheduling). The send still delays the downstream stage; it
  /// just no longer occupies the upstream one. No effect when PP = 1.
  bool async_pipeline_comm = false;
  /// Prefill/decode disaggregation: the transfer_* fields parameterize the
  /// KV hand-off between prefill and decode pools; the replica split is the
  /// homogeneous form's legacy spelling of those pools. Each role runs its
  /// dedicated policy (`scheduler.kind` is ignored).
  DisaggConfig disagg;
  /// Tenant identities for per-tenant metric attribution (scenario engine).
  /// Empty for single-tenant runs.
  std::vector<TenantInfo> tenants;
  /// Elastic homogeneous fleet: `parallel.num_replicas` is the slot count
  /// (the scale-up ceiling) and a ClusterManager drives replica lifecycles.
  /// Only kActive replicas receive new requests; draining replicas finish
  /// their outstanding work before their slot is released. Not combinable
  /// with the legacy split (pool deployments autoscale roles independently).
  AutoscalerConfig autoscale;
  /// Pool deployment: replica slots are laid out pool by pool, each pool
  /// with its own SKU, parallelism, role and (optional) autoscaling policy.
  /// MFU/MBU/energy are exact per pool and for the fleet.
  std::vector<PoolSpec> pools;
  /// Per-replica prefix cache (KV reuse across sessions and shared system
  /// prompts). Each replica gets its own cache sized to capacity_fraction
  /// of its pool's KV blocks; retained blocks count in the KV-pressure
  /// signal and are reclaimed on demand by active work.
  PrefixCacheConfig prefix_cache;
  /// Fault injection (src/fault/): crash/spot/degrade profiles plus the
  /// recovery and load-shedding policies. Profiles that kill replicas
  /// require an elastic fleet (autoscaling repairs the capacity hole);
  /// degrade-only profiles work anywhere.
  FaultConfig faults;
  /// Worker threads of the sharded simulation core (spec knob
  /// `execution.threads`, default 1). Replicas advance on private event
  /// queues inside conservative time windows bounded by the next central
  /// event (a routing decision, autoscaler tick, fault edge or KV
  /// migration). Each shard folds its own batch metrics per slot, and the
  /// per-shard trace streams merge deterministically at every window
  /// boundary, so the result is bit-identical at every thread count.
  /// Must be 1 for configurations whose cross-shard events have
  /// zero lookahead or whose collection is not thread-safe (disaggregated
  /// serving, operator metrics).
  int threads = 1;
  /// Observability: trace recorder, shared registry, rolling windows.
  SimObs obs;
};

/// Creates the per-replica timing backend (a predictor shared across
/// replicas, or per-replica reference executors with forked RNG streams).
using BackendFactory =
    std::function<std::unique_ptr<ExecutionBackend>(ReplicaId)>;

class Simulator {
 public:
  /// Throws vidur::Error on invalid configuration (model does not fit,
  /// inconsistent parallelism, ...).
  Simulator(SimulationConfig config, Trace trace, BackendFactory factory);

  /// Play the trace to completion and aggregate metrics.
  SimulationMetrics run();

  const std::vector<RequestState>& request_states() const { return states_; }
  /// The elastic-fleet manager, or nullptr for fixed-fleet runs.
  const ClusterManager* cluster() const { return cluster_.get(); }
  /// Fleet slot count (all pools).
  int num_slots() const { return num_slots_; }
  /// One slot's prefix-cache pool, or nullptr when caching is off.
  const PrefixCache* prefix_cache(ReplicaId r) const {
    return replicas_[static_cast<std::size_t>(r)].cache.get();
  }

 private:
  struct InFlightBatch {
    BatchSpec spec;
    /// Aggregates frozen at submission (items do not change in flight);
    /// saves re-walking the batch for FLOP/HBM/token accounting.
    BatchAggregates agg;
    ReplicaId replica = 0;
    Seconds start_time = 0.0;
    FlopCount flops = 0.0;
    double kv_utilization = 0.0;
    std::int64_t trace_seq = -1;  ///< batch sequence number when tracing
    /// Slot-liveness guard: a stale/duplicated handle reaching the stage
    /// machinery fails fast instead of silently reading a recycled slot.
    bool live = false;
    /// The batch's replica died mid-flight: the pipeline events still
    /// drain (they were already scheduled), but the batch produces no
    /// metrics, no request progress and no follow-on scheduling.
    bool cancelled = false;
  };

  struct Replica {
    std::unique_ptr<ReplicaScheduler> scheduler;
    std::unique_ptr<ExecutionBackend> backend;
    std::vector<StageScheduler> stages;
    std::unique_ptr<PrefixCache> cache;  ///< null when prefix caching off
    int batches_in_flight = 0;
    /// Straggler mode (src/fault/): execution-time predictions are scaled
    /// by this factor while > 1.0. Reset to 1.0 when the replica dies.
    double slow_factor = 1.0;
    /// In-flight batches live in recycled slots indexed by their handle:
    /// lookup is a vector index, and a reused slot's BatchSpec keeps its
    /// item capacity, so steady-state iterations form batches without
    /// allocating. Per replica — never shared across shard threads.
    std::vector<InFlightBatch> in_flight;
    std::vector<StageScheduler::BatchHandle> free_handles;
    /// Scheduler preemption/admission tallies, kept replica-private so
    /// shard threads never race on the registry counters; summed into
    /// `scheduler.preemptions` / `scheduler.admissions` at end of run.
    Counter preemptions;
    Counter admissions;
  };

  /// Typed-event switch: the single dispatch point of the hot loop.
  void dispatch(const SimEvent& event);
  void on_arrival(RequestState* request);
  /// Route (or re-route) a request through the global scheduler.
  void route_request(RequestState* request);
  /// Drain started on `replica_id`: push its queued-but-unstarted requests
  /// back through the global scheduler so surviving replicas take them.
  void reroute_waiting(ReplicaId replica_id);
  void try_schedule(ReplicaId replica_id);
  void start_stage(ReplicaId replica_id, StageId stage,
                   StageScheduler::BatchHandle handle);
  void on_stage_end(ReplicaId replica_id, StageId stage,
                    StageScheduler::BatchHandle handle, Seconds comm_time);
  /// Micro-batch (activations included) arrives at `stage`.
  void deliver_to_stage(ReplicaId replica_id, StageId stage,
                        StageScheduler::BatchHandle handle);
  void finish_batch(ReplicaId replica_id,
                    StageScheduler::BatchHandle handle);
  void pull_deferred(ReplicaId replica_id);
  /// Outstanding request counts of the first `count` replicas. Returns a
  /// member scratch buffer: valid until the next call, never reallocates
  /// on the routing hot path.
  const std::vector<int>& outstanding_counts(int count) const;

  // ---- sharded windowed engine ----
  /// One replica's private simulation timeline: its own event queue, the
  /// trace records it staged and its completion tallies, drained at every
  /// window barrier. Everything a shard thread mutates while running events
  /// lives here, in the matching Replica or in the replica's own slot of
  /// the metrics collector — nothing shared, no locks on the hot path.
  struct SimShard {
    ReplicaId replica = -1;
    EventQueue events;
    /// Trace records staged in shard-local order (unbounded — merged and
    /// cleared every round, so it never grows past one window's output).
    TraceRecorder staging{TraceRecorder::kUnbounded};
    std::size_t merge_cursor = 0;  ///< next staged record to merge
    /// Next shard-local batch sequence number; staged records carry the
    /// provisional id -(local)-2 until the merge assigns global seqs.
    std::int64_t next_local_batch = 0;
    std::vector<std::int64_t> batch_seq;  ///< local -> global batch seq
    // Completion tallies of the current round, reduced at its barrier.
    std::int64_t batches = 0;
    std::int64_t completions = 0;
    Seconds last_batch_end = 0.0;
    std::int64_t arrivals = 0;  ///< summed into requests.arrivals at end
  };

  /// Shard-local clock/queue/trace of the calling thread, falling back to
  /// the central ones outside a window round. tls_shard_ is the only
  /// thread-local switch: every handler reads time and schedules follow-on
  /// events through these, so one code path serves both engines.
  Seconds sim_now() const;
  EventQueue& local_events();
  TraceRecorder* local_trace();
  /// Run one shard's events strictly below `window` (and within
  /// max_sim_time), with tls_shard_ pointing at it.
  void run_shard(SimShard& shard, Seconds window);
  /// One conservative round: advance every shard with pending work below
  /// `window` (in parallel when a team exists), reduce the shards'
  /// completion tallies in shard order, then merge their trace records.
  void shard_round(Seconds window);
  /// Deterministic k-way heap merge of the round's staged trace records by
  /// (time, shard, position); assigns global batch sequence numbers. Batch
  /// metrics need no merge: the collector folds them per slot.
  void merge_round();

  // ---- pools ----
  /// Pool owning a slot.
  const PoolSpec& pool_of(ReplicaId r) const {
    return config_.pools[static_cast<std::size_t>(
        pool_of_slot_[static_cast<std::size_t>(r)])];
  }
  const ParallelConfig& parallel_of(ReplicaId r) const {
    return pool_of(r).parallel;
  }
  /// May this slot receive arrivals (role-wise; elastic activity aside)?
  bool arrival_eligible(ReplicaId r) const {
    return pool_of(r).role != PoolRole::kDecode;
  }
  /// Role-aware arrival mask: arrival-eligible AND (if elastic) active.
  /// Returns a member scratch buffer, rebuilt per call.
  const std::vector<bool>& arrival_mask() const;

  // ---- disaggregated serving ----
  bool is_prefill_replica(ReplicaId r) const {
    return pool_of(r).role == PoolRole::kPrefill;
  }
  /// Hand prefilled requests of a completed batch to decode replicas.
  void migrate_prefilled(ReplicaId replica_id, const BatchSpec& batch);
  /// KV transfer finished: route to the least-loaded decode replica.
  void on_migrated(RequestState* request);
  Seconds kv_transfer_time(const RequestState& request) const;

  // ---- fault injection & recovery (src/fault/) ----
  /// Construct the FaultInjector and its hooks (constructor helper).
  void setup_faults();
  /// Abrupt replica failure (crash or expired spot notice): cancel its
  /// in-flight batches, tear down scheduler + KV + prefix-cache state,
  /// fail the slot through the cluster lifecycle (held until `hold_until`
  /// for spot reclaims), then classify and recover every casualty.
  /// Tolerates replicas that already left the active/draining states.
  void kill_replica(ReplicaId replica_id, Seconds hold_until, bool spot);
  /// Recovery classification of one casualty of `replica_id`'s failure:
  /// queued-but-unstarted work hands off immediately; started work retries
  /// with exponential backoff + jitter until max_attempts, then is lost.
  void recover_request(RequestState* request, ReplicaId replica_id);
  /// Re-entry point of a backoff retry; applies the shed gate, then routes.
  void reenter_request(RequestState* request);
  /// Graceful degradation: true when the admission controller sheds this
  /// request (capacity below the floor and priority at/below the cutoff).
  bool maybe_shed(RequestState* request);
  /// Priority of a request's tenant (untagged tenants are priority 0).
  int tenant_priority(TenantId tenant) const;
  /// Fill metrics.resilience from the injector log + recovery tallies and
  /// mirror it into the `faults.*` registry counters. The SLO split is
  /// the collector's, already in `out`.
  void aggregate_resilience(ResilienceMetrics& out) const;

  // ---- observability (src/obs/) ----
  /// Wire the registry/trace/rolling attachments; called once from the
  /// constructor after replicas and cluster manager exist.
  void setup_observability();
  /// SLO of a tenant; nullptr when it carries none or rolling is off.
  const SloSpec* tenant_slo(TenantId tenant) const;
  /// Rolling track of a tenant, or -1 when rolling is off / unmapped.
  int tenant_track(TenantId tenant) const;
  /// In-system depth change of the cluster + tenant tracks.
  void rolling_request_delta(const RequestState& request, int delta);
  /// Outstanding-work depth change of a replica's pool track.
  void rolling_pool_delta(ReplicaId replica_id, int delta);
  /// Completion accounting across cluster, tenant and pool tracks.
  void rolling_completions(ReplicaId replica_id,
                           const std::vector<RequestState*>& finished);
  /// Merge every replica's prefix-cache stats into `out` (totals,
  /// per-tenant and per-pool slices) and mirror them into the registry.
  void aggregate_prefix_cache(PrefixCacheMetrics& out) const;

  /// Lowered: `pools` describes every slot (the homogeneous fields are
  /// never read).
  SimulationConfig config_;
  Trace trace_;
  std::vector<int> pool_of_slot_;  ///< slot -> pool index
  int num_slots_ = 0;              ///< total replica slots (all pools)
  EventQueue events_;
  GlobalScheduler global_;
  std::vector<MemoryPlan> pool_plans_;  ///< per pool
  mutable std::vector<bool> arrival_mask_scratch_;
  std::vector<Replica> replicas_;
  std::vector<RequestState> states_;
  MetricsCollector metrics_;
  mutable std::vector<int> outstanding_scratch_;
  std::unique_ptr<ClusterManager> cluster_;  ///< elastic fleets only
  std::size_t remaining_requests_ = 0;       ///< not yet completed
  Seconds last_batch_end_ = 0.0;             ///< time of the last batch end
  bool ran_ = false;

  // ---- fault injection state ----
  std::unique_ptr<FaultInjector> injector_;  ///< null = faults off
  Rng retry_rng_;  ///< backoff jitter draws (seeded off faults.seed)
  /// Kill times awaiting repair, FIFO: each autoscaler activation after a
  /// kill closes the oldest hole (MTTR = mean close - open).
  std::deque<Seconds> pending_repairs_;
  Seconds mttr_sum_ = 0.0;
  std::int64_t num_repairs_ = 0;
  std::int64_t num_retries_ = 0;
  std::int64_t num_handoffs_ = 0;
  std::int64_t num_shed_ = 0;
  std::int64_t num_lost_ = 0;
  TokenCount tokens_reprefilled_ = 0;
  TokenCount decode_tokens_discarded_ = 0;
  std::vector<int> tenant_priority_by_id_;  ///< tenant id -> priority

  // ---- observability state ----
  TraceRecorder* trace_rec_ = nullptr;  ///< nullptr = tracing off
  MetricsRegistry* registry_ = nullptr;  ///< external (obs) or owned
  std::unique_ptr<MetricsRegistry> owned_registry_;
  std::unique_ptr<RollingCollector> rolling_;  ///< nullptr = rolling off
  /// Counter handles resolved once; hot-path increments are pointer adds.
  Counter* ctr_arrivals_ = nullptr;
  Counter* ctr_completions_ = nullptr;
  Counter* ctr_batches_ = nullptr;
  Counter* ctr_migrations_ = nullptr;
  Counter* ctr_reroutes_ = nullptr;
  std::int64_t next_batch_seq_ = 0;

  // ---- sharded windowed engine state ----
  /// Arrivals pre-routable? True exactly when routing is a pure function
  /// of the arrival order (round-robin over a static, fault-degrade-only,
  /// non-disaggregated fleet without rolling windows or operator
  /// metrics): targets are then known up front, arrivals seed per-replica
  /// shard queues, and the stretches between central events run sharded.
  /// Otherwise every arrival stays a central event and the run degenerates
  /// to the legacy single-queue order exactly.
  bool preroute_ = false;
  std::vector<SimShard> shards_;  ///< one per slot when preroute_, else empty
  std::vector<int> dirty_scratch_;  ///< shards with work this round
  /// merge_round's heap: (head record time, shard) per non-empty shard.
  std::vector<std::pair<Seconds, int>> merge_heap_;
  std::unique_ptr<SpinTeam> team_;  ///< threads > 1 and > 1 shard only
  /// The running thread's shard during a window round, null in central
  /// context (and always on the legacy path).
  static thread_local SimShard* tls_shard_;

  /// Rolling-track layout: 0 = cluster, then tenants, then pools.
  std::vector<int> tenant_track_by_id_;  ///< tenant id -> track (-1: none)
  std::vector<const SloSpec*> tenant_slo_by_id_;  ///< nullptr: no SLO
  int pool_track_base_ = -1;  ///< first pool track (rolling on)
};

}  // namespace vidur
