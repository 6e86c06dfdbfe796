#include "scheduler/replica_scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "kvcache/prefix_cache.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vidur {

ReplicaScheduler::ReplicaScheduler(SchedulerConfig config, MemoryPlan plan)
    : config_(config),
      plan_(plan),
      block_manager_(plan.num_kv_blocks, plan.block_size) {
  config.validate();
}

void ReplicaScheduler::enqueue(RequestState* request) {
  VIDUR_CHECK(request != nullptr);
  // A request that could never fit would deadlock the replica; surface the
  // misconfiguration instead (the capacity search treats it as infeasible).
  const long needed =
      block_manager_.blocks_for_tokens(request->request.total_tokens());
  VIDUR_CHECK_MSG(needed <= block_manager_.total_blocks(),
                  "request " << request->request.id << " ("
                             << request->request.total_tokens()
                             << " tokens) exceeds the replica KV pool of "
                             << plan_.max_kv_tokens() << " tokens");
  waiting_.push_back(request);
  by_id_[request->request.id] = request;
}

BatchSpec ReplicaScheduler::schedule(Seconds now) {
  obs_now_ = now;
  attach_prefix_cache();
  BatchSpec batch;
  fill_batch(batch, now);
  return batch;
}

void ReplicaScheduler::schedule_into(BatchSpec& out, Seconds now) {
  obs_now_ = now;
  attach_prefix_cache();
  out.items.clear();
  fill_batch(out, now);
}

void ReplicaScheduler::attach_prefix_cache() {
  if (cache_ == nullptr) return;
  for (RequestState* r : waiting_) {
    if (r->in_flight) continue;
    attach_one(r);
  }
}

void ReplicaScheduler::attach_one(RequestState* r) {
  if (cache_ == nullptr || r->prefix_checked) return;
  r->prefix_checked = true;
  // Requests arriving with prior progress (disaggregated hand-off of a
  // completed prefill) keep it; the cache only serves cold prefills.
  if (r->prefill_done > 0 || r->kv_context > 0) return;
  const TokenCount matched = cache_->attach(r->request);
  trace_emit(trace_, TraceEventKind::kCacheLookup, obs_now_, obs_self_,
             r->request.id, matched, r->request.prefill_tokens,
             matched > 0 ? 1 : 0);
  if (matched <= 0) return;
  // The matched prefix is resident in the cache pool: it is prefilled
  // KV context the request never allocates or computes itself.
  r->prefill_done = matched;
  r->kv_context = matched;
  r->kv_cached = matched;
  r->kv_capacity = matched;
}

void ReplicaScheduler::set_obs(ReplicaId self, TraceRecorder* trace,
                               Counter* preemptions, Counter* admissions) {
  obs_self_ = self;
  trace_ = trace;
  ctr_preemptions_ = preemptions;
  ctr_admissions_ = admissions;
}

std::vector<RequestState*> ReplicaScheduler::on_batch_end(
    const BatchSpec& batch, Seconds now) {
  obs_now_ = now;
  std::vector<RequestState*> finished;
  for (const BatchItem& item : batch.items) {
    RequestState* r = item.state;
    VIDUR_CHECK_MSG(r != nullptr,
                    "batch completed with no owner for request "
                        << item.request);
    r->in_flight = false;
    // A preempted-and-restarted request may see its old batch complete after
    // the restart; that stale completion carries no progress.
    if (!r->admitted) continue;

    if (item.is_prefill) {
      r->prefill_done += item.q_tokens;
      r->kv_context += item.q_tokens;
      if (item.completes_prefill) {
        VIDUR_CHECK(r->prefill_complete());
        // Every prefill completion is traced (detail=1 marks a restarted
        // request re-completing) so the analysis engine sees re-prefill
        // work; the TTFT timestamp stays first-completion-only.
        trace_emit(trace_, TraceEventKind::kPrefillDone, now, obs_self_,
                   r->request.id,
                   static_cast<std::int64_t>(batch.items.size()), 0,
                   r->record.prefill_completed_time < 0 ? 0 : 1);
        if (r->record.prefill_completed_time < 0)
          r->record.prefill_completed_time = now;
        r->decode_done = 1;  // prefill emits the first output token
        r->record.emit_token(now);
      }
    } else {
      r->decode_done += 1;
      r->kv_context += 1;
      r->record.emit_token(now);
    }

    if (r->finished()) {
      r->record.completed_time = now;
      r->record.fold_gaps(tbt_by_tenant_[r->record.tenant]);
      trace_emit(trace_, TraceEventKind::kCompleted, now, obs_self_,
                 r->request.id, r->record.num_restarts,
                 static_cast<std::int64_t>(batch.items.size()));
      if (cache_ != nullptr) {
        // Donate the shareable prefix KV before dropping pins (so the
        // matched parent chain cannot be evicted mid-donation), then free
        // whatever the cache did not take.
        cache_->retain(r->request, r->kv_context, r->kv_cached,
                       block_manager_);
        cache_->unpin(r->request.id);
      }
      block_manager_.release(r->request.id);
      r->kv_capacity = 0;
      r->kv_cached = 0;
      r->admitted = false;
      running_.erase(std::find(running_.begin(), running_.end(), r));
      by_id_.erase(r->request.id);
      finished.push_back(r);
    }
  }
  return finished;
}

void ReplicaScheduler::extract(RequestState* request) {
  VIDUR_CHECK(request != nullptr);
  VIDUR_CHECK_MSG(request->admitted && !request->in_flight,
                  "extract() requires an admitted request that is not "
                  "currently executing");
  if (cache_ != nullptr) {
    // The prefill replica keeps the conversation's prefix KV resident for
    // future turns; the extracted request re-allocates everything on its
    // decode replica (kv_cached resets — that cache is a different pool).
    cache_->retain(request->request, request->kv_context, request->kv_cached,
                   block_manager_);
    cache_->unpin(request->request.id);
  }
  block_manager_.release(request->request.id);
  request->kv_capacity = 0;
  request->kv_cached = 0;
  request->prefix_checked = false;
  request->admitted = false;
  running_.erase(std::find(running_.begin(), running_.end(), request));
  by_id_.erase(request->request.id);
}

std::vector<RequestState*> ReplicaScheduler::fail_all() {
  std::vector<RequestState*> out;
  out.reserve(running_.size() + waiting_.size());
  // Running first (admission order), then the queue front to back: the
  // deterministic casualty order every same-seed replay reproduces.
  for (RequestState* r : running_) out.push_back(r);
  for (RequestState* r : waiting_) out.push_back(r);
  for (RequestState* r : out) {
    if (cache_ != nullptr) cache_->unpin(r->request.id);
    block_manager_.release(r->request.id);
    by_id_.erase(r->request.id);
    // Progress flags (admitted, prefill_done, ...) are intentionally left
    // as they were: the simulator classifies each casualty — queued handoff
    // vs. lost work — before resetting it for recovery.
  }
  running_.clear();
  waiting_.clear();
  return out;
}

void ReplicaScheduler::release_cached() {
  if (cache_ == nullptr) return;
  // fail_all()/drain left nothing pinned, so every resident block is a
  // reclaimable leaf eventually: evict until the pool reads empty.
  while (cache_->reclaim(1, block_manager_) > 0) {
  }
}

std::vector<RequestState*> ReplicaScheduler::take_waiting() {
  std::vector<RequestState*> out;
  std::deque<RequestState*> keep;
  for (RequestState* r : waiting_) {
    if (r->in_flight) {
      keep.push_back(r);
      continue;
    }
    by_id_.erase(r->request.id);
    // Cache-served progress does not travel: the matched blocks live in
    // THIS replica's pool. Prefilled hand-offs (decode re-homing) keep
    // their context — that KV migrates with them.
    if (!r->prefill_complete()) {
      if (cache_ != nullptr) cache_->unpin(r->request.id);
      r->prefill_done = 0;
      r->kv_context = 0;
      r->kv_cached = 0;
      r->kv_capacity = 0;
      r->prefix_checked = false;
    }
    out.push_back(r);
  }
  waiting_.swap(keep);
  return out;
}

RequestState* ReplicaScheduler::admit_front(TokenCount tokens,
                                            bool respect_watermark) {
  RequestState* r = peek_waiting();
  if (r == nullptr) return nullptr;
  // `tokens` is an absolute KV target; the request only allocates the cold
  // suffix beyond its cache-resident prefix.
  const TokenCount cold = std::max<TokenCount>(0, tokens - r->kv_cached);
  const long needed = block_manager_.blocks_for_tokens(cold) -
                      block_manager_.allocated_to(r->request.id);
  if (!make_room(needed, respect_watermark)) return nullptr;
  VIDUR_CHECK(block_manager_.grow_to(r->request.id, cold));
  sync_kv_capacity(r, tokens);
  waiting_.pop_front();
  running_.push_back(r);
  r->admitted = true;
  if (ctr_admissions_ != nullptr) ctr_admissions_->inc();
  return r;
}

void ReplicaScheduler::sync_kv_capacity(RequestState* r, TokenCount tokens) {
  const TokenCount cold = std::max<TokenCount>(0, tokens - r->kv_cached);
  const TokenCount capacity =
      r->kv_cached + block_manager_.blocks_for_tokens(cold) * plan_.block_size;
  if (capacity > r->kv_capacity) r->kv_capacity = capacity;
}

bool ReplicaScheduler::watermark_ok(long blocks_needed) const {
  const auto watermark = static_cast<long>(
      config_.watermark_fraction *
      static_cast<double>(block_manager_.total_blocks()));
  return block_manager_.free_blocks() - blocks_needed >= watermark;
}

bool ReplicaScheduler::make_room(long blocks, bool respect_watermark) {
  while (true) {
    if (block_manager_.can_allocate(blocks) &&
        (!respect_watermark || watermark_ok(blocks)))
      return true;
    // Active work beats retained prefixes: evict LRU cached blocks until
    // the allocation fits or the cache runs dry.
    if (cache_ == nullptr || cache_->reclaim(1, block_manager_) == 0)
      return false;
  }
}

bool ReplicaScheduler::ensure_decode_memory(RequestState* r,
                                            bool allow_preemption) {
  const TokenCount target = r->kv_context + 1;
  // Fast path: still inside the allocated blocks — no allocator touch.
  // Steady-state decodes only cross a block boundary every block_size
  // iterations.
  if (target <= r->kv_capacity) return true;
  const TokenCount cold = target - r->kv_cached;
  const long needed = block_manager_.blocks_for_tokens(cold) -
                      block_manager_.allocated_to(r->request.id);
  if (make_room(needed, false) &&
      block_manager_.grow_to(r->request.id, cold)) {
    sync_kv_capacity(r, target);
    return true;
  }
  if (!allow_preemption) return false;
  while (RequestState* victim = preempt_one()) {
    // The victim released its blocks; it may have been `r` itself, in which
    // case `r` no longer runs this iteration.
    if (victim == r) return false;
    if (block_manager_.grow_to(r->request.id, target - r->kv_cached)) {
      sync_kv_capacity(r, target);
      return true;
    }
  }
  return false;
}

bool ReplicaScheduler::ensure_prefill_memory(RequestState* r,
                                             TokenCount target_tokens) {
  if (target_tokens <= r->kv_capacity) return true;
  const TokenCount cold =
      std::max<TokenCount>(0, target_tokens - r->kv_cached);
  const long needed = block_manager_.blocks_for_tokens(cold) -
                      block_manager_.allocated_to(r->request.id);
  if (!make_room(needed, false)) return false;
  if (!block_manager_.grow_to(r->request.id, cold)) return false;
  sync_kv_capacity(r, target_tokens);
  return true;
}

void ReplicaScheduler::add_prefill_item(BatchSpec& batch, RequestState* r,
                                        TokenCount chunk, Seconds now) {
  VIDUR_CHECK(chunk > 0 && chunk <= r->remaining_prefill());
  BatchItem item;
  item.request = r->request.id;
  item.q_tokens = chunk;
  item.kv_context = r->kv_context;
  item.is_prefill = true;
  item.completes_prefill = chunk == r->remaining_prefill();
  item.state = r;
  batch.items.push_back(item);
  r->in_flight = true;
  mark_scheduled(r, now);
}

void ReplicaScheduler::add_decode_item(BatchSpec& batch, RequestState* r,
                                       Seconds now) {
  VIDUR_CHECK(r->prefill_complete() && !r->finished());
  BatchItem item;
  item.request = r->request.id;
  item.q_tokens = 1;
  item.kv_context = r->kv_context;
  item.is_prefill = false;
  item.state = r;
  batch.items.push_back(item);
  r->in_flight = true;
  mark_scheduled(r, now);
}

void ReplicaScheduler::mark_scheduled(RequestState* r, Seconds now) {
  if (r->record.first_scheduled_time < 0) {
    r->record.first_scheduled_time = now;
    // The first schedule carries the queue-entry timestamp (integer
    // nanoseconds) so queue wait is measured, not inferred from arrival.
    const std::int64_t queued_ns =
        r->queue_entry_time >= 0
            ? std::llround(r->queue_entry_time * 1e9)
            : -1;
    trace_emit(trace_, TraceEventKind::kScheduled, now, obs_self_,
               r->request.id, queued_ns);
  } else if (r->resched_pending) {
    // Resume after a preemption restart: closes the stall interval for the
    // analysis engine (detail=1 distinguishes it from the TTFT edge).
    trace_emit(trace_, TraceEventKind::kScheduled, now, obs_self_,
               r->request.id, -1, 0, 1);
  }
  r->resched_pending = false;
}

RequestState* ReplicaScheduler::preempt_one() {
  // Lowest priority = latest arrival (highest id) among running requests
  // that are not currently executing.
  RequestState* victim = nullptr;
  for (RequestState* r : running_) {
    if (r->in_flight) continue;
    if (victim == nullptr || r->request.id > victim->request.id) victim = r;
  }
  if (victim == nullptr) return nullptr;
  trace_emit(trace_, TraceEventKind::kPreempted, obs_now_, obs_self_,
             victim->request.id);
  if (ctr_preemptions_ != nullptr) ctr_preemptions_->inc();
  block_manager_.release(victim->request.id);
  if (cache_ != nullptr) cache_->unpin(victim->request.id);
  victim->restart();
  running_.erase(std::find(running_.begin(), running_.end(), victim));
  // Recomputed from scratch, at the head of the queue (vLLM semantics).
  waiting_.push_front(victim);
  // If the victim's prefix blocks are still resident (its own donation or a
  // session sibling's), re-attach them now — the admission pass that
  // triggered this preemption already ran attach_prefix_cache, and without
  // this the restart would re-charge the full prefill.
  attach_one(victim);
  return victim;
}

}  // namespace vidur
