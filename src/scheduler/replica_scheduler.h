// Replica scheduler (paper §4.5, second tier): owns batching and memory
// management for one model replica. Concrete policies (FasterTransformer,
// Orca+, vLLM, Sarathi-Serve, LightLLM) override the batch-formation hook;
// admission, preemption and accounting helpers live here, which is what
// keeps each policy small (the paper notes every policy fits in ~150 lines).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "execution/batch_spec.h"
#include "scheduler/memory.h"
#include "scheduler/request_state.h"
#include "scheduler/scheduler_config.h"

namespace vidur {

class TraceRecorder;
class PrefixCache;
struct Counter;

class ReplicaScheduler {
 public:
  ReplicaScheduler(SchedulerConfig config, MemoryPlan plan);
  virtual ~ReplicaScheduler() = default;

  ReplicaScheduler(const ReplicaScheduler&) = delete;
  ReplicaScheduler& operator=(const ReplicaScheduler&) = delete;

  /// A new (or re-routed) request enters this replica's waiting queue.
  /// Throws vidur::Error if the request can never fit in the KV pool.
  void enqueue(RequestState* request);

  /// Form the next iteration's batch: performs admission/allocation, marks
  /// chosen requests in-flight and stamps first-schedule times. An empty
  /// batch means no runnable work right now.
  BatchSpec schedule(Seconds now);

  /// schedule() into caller-owned storage: clears `out` and fills it,
  /// reusing its item capacity (the simulator recycles in-flight slots so
  /// steady state forms batches without allocating).
  void schedule_into(BatchSpec& out, Seconds now);

  /// A batch finished its final pipeline stage: advance request states,
  /// release memory of finished requests. Returns the finished requests.
  std::vector<RequestState*> on_batch_end(const BatchSpec& batch,
                                          Seconds now);

  /// Remove an unfinished, admitted request from this replica, releasing its
  /// KV blocks (disaggregated serving: the simulator extracts a request once
  /// its prefill completes, then hands it to a decode replica).
  void extract(RequestState* request);

  /// Remove and return every queued-but-unstarted request (the waiting
  /// queue), leaving admitted/running work untouched. Elastic clusters
  /// re-route these through the GlobalScheduler when the replica starts
  /// draining, so the drain only has to finish work that actually began
  /// here. Requests whose stale preempted batch is still executing are
  /// kept (they must stay findable for the batch-end bookkeeping).
  std::vector<RequestState*> take_waiting();

  /// Replica failure (src/fault/): remove and return EVERY request bound to
  /// this replica — waiting and running alike, in deterministic order
  /// (running by admission, then waiting front to back). All KV blocks are
  /// released and cache pins dropped; per-request progress flags are left
  /// untouched so the simulator can classify each casualty (admitted work
  /// lost vs. queued handoff) before restarting it. The scheduler is empty
  /// afterwards.
  std::vector<RequestState*> fail_all();

  /// Tear down the replica's prefix-cache pool (decommission/failure): every
  /// resident cached block is evicted and returned to the BlockManager, so
  /// cluster-wide cached_blocks accounting cannot leak across scale-downs.
  void release_cached();

  /// Request currently enqueued or running here, or nullptr.
  RequestState* find(RequestId id) const {
    const auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }

  int num_waiting() const { return static_cast<int>(waiting_.size()); }
  int num_running() const { return static_cast<int>(running_.size()); }
  /// Requests routed here and not yet completed (for LOR routing).
  int outstanding() const { return num_waiting() + num_running(); }
  bool has_work() const { return outstanding() > 0; }

  const BlockManager& blocks() const { return block_manager_; }
  /// Inter-token gaps of the requests that completed here, per tenant.
  const std::map<TenantId, LatencyDistribution>& tbt_by_tenant() const {
    return tbt_by_tenant_;
  }
  const SchedulerConfig& config() const { return config_; }

  /// Attach observability (simulator-owned, src/obs/): `self` identifies
  /// this replica in trace records; the counters are shared across the
  /// fleet. All pointers are borrowed; a null trace disables the
  /// scheduler-level trace events, null counters disable counting.
  void set_obs(ReplicaId self, TraceRecorder* trace, Counter* preemptions,
               Counter* admissions);

  /// Redirect just the trace sink, keeping the identity and counters from
  /// set_obs. The sharded simulator points each replica's scheduler at a
  /// per-shard staging recorder for the duration of a window round and back
  /// at the run recorder afterwards.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Attach this replica's prefix cache (simulator-owned, borrowed; null
  /// disables KV reuse). Every schedule() consults it for newly queued
  /// requests, charges only the cold prefill suffix on hits, retains
  /// completed requests' shareable KV, and reclaims cached blocks on
  /// demand before failing an allocation.
  void set_prefix_cache(PrefixCache* cache) { cache_ = cache; }

 protected:
  /// Policy hook: append items to `batch` (and perform allocations).
  virtual void fill_batch(BatchSpec& batch, Seconds now) = 0;

  // ---- helpers shared by the policies ----

  /// Next waiting request, or nullptr.
  RequestState* peek_waiting() const {
    return waiting_.empty() ? nullptr : waiting_.front();
  }

  /// Admit the front waiting request with KV space for `tokens` total
  /// entries (an absolute KV target; cached prefix tokens are already
  /// resident and not re-allocated), honoring an optional watermark.
  /// Returns nullptr when blocked.
  RequestState* admit_front(TokenCount tokens, bool respect_watermark);

  /// Grow `r`'s KV allocation for its next decode token, preempting
  /// lower-priority requests if `allow_preemption`. Returns success.
  bool ensure_decode_memory(RequestState* r, bool allow_preemption);

  /// Grow `r`'s KV allocation to cover a prefill chunk ending at
  /// `target_tokens` cached entries. No preemption.
  bool ensure_prefill_memory(RequestState* r, TokenCount target_tokens);

  /// Refresh r->kv_capacity after the allocator granted `tokens` worth of
  /// blocks (the fast-path bound ensure_decode_memory checks first).
  void sync_kv_capacity(RequestState* r, TokenCount tokens);

  /// Append a prefill-chunk item for `r` (marks in-flight, stamps times).
  void add_prefill_item(BatchSpec& batch, RequestState* r, TokenCount chunk,
                        Seconds now);
  /// Append a decode item for `r`.
  void add_decode_item(BatchSpec& batch, RequestState* r, Seconds now);

  /// Stamp first-schedule time and emit the kScheduled trace record (first
  /// schedule with queue-entry payload, or a detail=1 resume record after a
  /// preemption restart).
  void mark_scheduled(RequestState* r, Seconds now);

  /// vLLM-style preempt-and-restart of the lowest-priority (latest-arrival)
  /// running request that is not in flight. Returns the victim or nullptr.
  RequestState* preempt_one();

  bool watermark_ok(long blocks_needed) const;

  /// True once `blocks` can be allocated (within the optional watermark),
  /// evicting LRU prefix-cache blocks on demand to get there.
  bool make_room(long blocks, bool respect_watermark);

  /// Consult the prefix cache for queued requests that have not been
  /// checked this admission: on a hit the matched prefix is marked as done
  /// prefill resident in the cache pool, so only the cold suffix is
  /// computed and allocated. Emits one kCacheLookup record per lookup.
  void attach_prefix_cache();

  /// Single-request form of attach_prefix_cache, used on the preemption
  /// restart path: a victim whose prefix blocks are still resident re-enters
  /// the queue with the cached prefix already attached instead of
  /// re-charging its full prefill.
  void attach_one(RequestState* r);

  SchedulerConfig config_;
  MemoryPlan plan_;
  BlockManager block_manager_;
  PrefixCache* cache_ = nullptr;  ///< borrowed; null = prefix caching off
  std::deque<RequestState*> waiting_;
  std::vector<RequestState*> running_;  ///< admitted, unfinished
  std::unordered_map<RequestId, RequestState*> by_id_;
  std::map<TenantId, LatencyDistribution> tbt_by_tenant_;

  // ---- observability (all optional; see set_obs) ----
  ReplicaId obs_self_ = -1;
  TraceRecorder* trace_ = nullptr;
  Counter* ctr_preemptions_ = nullptr;
  Counter* ctr_admissions_ = nullptr;
  /// preempt_one() has no clock argument; this mirrors the last `now` seen
  /// by schedule()/on_batch_end() so preemption records carry batch time.
  Seconds obs_now_ = 0.0;
};

/// Factory: constructs the policy named by `config.kind`.
std::unique_ptr<ReplicaScheduler> make_replica_scheduler(
    const SchedulerConfig& config, const MemoryPlan& plan);

}  // namespace vidur
