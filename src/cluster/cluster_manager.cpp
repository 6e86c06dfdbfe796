#include "cluster/cluster_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "hardware/sku.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vidur {

ClusterManager::ClusterManager(std::vector<PoolSpec> pools,
                               EventQueue* events, Hooks hooks)
    : events_(events), hooks_(std::move(hooks)) {
  VIDUR_CHECK(events_ != nullptr);
  VIDUR_CHECK(hooks_.replica_load && hooks_.parked_requests &&
              hooks_.work_remaining && hooks_.on_activated &&
              hooks_.on_draining);
  validate_pools(pools);
  VIDUR_CHECK_MSG(any_pool_autoscaled(pools),
                  "ClusterManager requires an autoscaling policy on at "
                  "least one pool");
  bool any_kv_signal = false;
  int begin = 0;
  for (PoolSpec& spec : pools) {
    any_kv_signal |= spec.autoscale.enabled() &&
                     spec.autoscale.signal == ScaleSignal::kKvPressure;
    Pool pool;
    pool.spec = std::move(spec);
    pool.begin = begin;
    pool.end = begin + pool.spec.slots();
    begin = pool.end;
    pools_.push_back(std::move(pool));
  }
  fleet_size_ = begin;
  if (any_kv_signal)
    VIDUR_CHECK_MSG(hooks_.replica_kv_utilization != nullptr,
                    "a pool scales on kv_pressure but the "
                    "replica_kv_utilization hook is not set");

  states_.assign(static_cast<std::size_t>(fleet_size_),
                 ReplicaState::kDecommissioned);
  routable_.assign(static_cast<std::size_t>(fleet_size_), false);
  up_since_.assign(static_cast<std::size_t>(fleet_size_), -1.0);
  hold_until_.assign(static_cast<std::size_t>(fleet_size_), -kInfiniteTime);
  pool_of_.resize(static_cast<std::size_t>(fleet_size_));
  for (std::size_t i = 0; i < pools_.size(); ++i)
    for (ReplicaId r = pools_[i].begin; r < pools_[i].end; ++r)
      pool_of_[static_cast<std::size_t>(r)] = static_cast<int>(i);

  // One scaling group per role that has at least one elastic pool. Static
  // pools of the role still contribute capacity to the group's sample.
  for (const PoolRole role :
       {PoolRole::kUnified, PoolRole::kPrefill, PoolRole::kDecode}) {
    Group group;
    group.role = role;
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      if (pools_[i].spec.role != role) continue;
      group.pools.push_back(static_cast<int>(i));
      if (pools_[i].spec.autoscale.enabled())
        group.elastic.push_back(static_cast<int>(i));
    }
    if (group.elastic.empty()) continue;
    // validate_pools() made the elastic pools agree on the decision view.
    group.config = pools_[static_cast<std::size_t>(group.elastic[0])]
                       .spec.autoscale;
    bool all_capacities = true;
    for (const int pi : group.elastic)
      all_capacities &=
          pools_[static_cast<std::size_t>(pi)].spec.capacity_qps > 0;
    for (const int pi : group.elastic) {
      Pool& pool = pools_[static_cast<std::size_t>(pi)];
      pool.rank_capacity =
          all_capacities ? pool.spec.capacity_qps
                         : sku_by_name(pool.spec.sku_name).peak_fp16_tflops;
    }
    // A predictive lookahead of 0 means "my cold-start horizon". The
    // group's horizon is the slowest elastic pool's cold start — capacity
    // ordered anywhere in the group must be warm when the forecast load
    // lands.
    if (group.config.kind == AutoscalerKind::kPredictive &&
        group.config.lookahead == 0.0) {
      for (const int pi : group.elastic) {
        const AutoscalerConfig& c =
            pools_[static_cast<std::size_t>(pi)].spec.autoscale;
        group.config.lookahead = std::max(
            group.config.lookahead, c.provision_delay + c.warmup_delay);
      }
    }
    group.policy = make_autoscaler_policy(group.config);
    groups_.push_back(std::move(group));
  }

  // Decision ticks ride the typed event path: one registered handler
  // instead of a fresh std::function per tick.
  events_->set_tick_handler([this] { evaluate(); });
}

ClusterManager::~ClusterManager() { events_->set_tick_handler(nullptr); }

void ClusterManager::start() {
  // Initial replicas are warm at t=0: the deployment existed before the
  // simulated window opened, so no cold start applies. Static pools run at
  // their full slot count for the whole simulation.
  for (Pool& pool : pools_) {
    const int initial = pool.spec.initial_active();
    for (ReplicaId r = pool.begin; r < pool.begin + initial; ++r) {
      up_since_[static_cast<std::size_t>(r)] = 0.0;
      transition(r, ReplicaState::kActive, 0.0);
    }
  }
  Seconds next = kInfiniteTime;
  for (Group& group : groups_) {
    group.next_due = group.config.decision_interval;
    next = std::min(next, group.next_due);
  }
  events_->schedule_tick(next);
}

int ClusterManager::count(ReplicaState s) const {
  return static_cast<int>(std::count(states_.begin(), states_.end(), s));
}

int ClusterManager::count_in(const Pool& pool, ReplicaState s) const {
  int n = 0;
  for (ReplicaId r = pool.begin; r < pool.end; ++r)
    if (state(r) == s) ++n;
  return n;
}

int ClusterManager::available_slots(const Pool& pool, Seconds now) const {
  int n = 0;
  for (ReplicaId r = pool.begin; r < pool.end; ++r)
    if (state(r) == ReplicaState::kDecommissioned &&
        hold_until_[static_cast<std::size_t>(r)] <= now)
      ++n;
  return n;
}

double ClusterManager::cost_per_slo_point(const Pool& pool) const {
  return pool.spec.replica_cost_per_hour() / pool.rank_capacity;
}

void ClusterManager::set_obs(TraceRecorder* trace,
                             MetricsRegistry* registry) {
  trace_ = trace;
  if (registry != nullptr) {
    ctr_ticks_ = registry->counter("cluster.ticks");
    ctr_scale_ups_ = registry->counter("cluster.scale_ups");
    ctr_scale_downs_ = registry->counter("cluster.scale_downs");
  }
}

void ClusterManager::evaluate() {
  const Seconds now = events_->now();
  if (ctr_ticks_ != nullptr) ctr_ticks_->inc();
  for (Group& group : groups_) {
    if (group.next_due > now) continue;
    evaluate_group(group, now);
    group.next_due = now + group.config.decision_interval;
  }
  if (hooks_.work_remaining()) {
    Seconds next = kInfiniteTime;
    for (const Group& group : groups_) next = std::min(next, group.next_due);
    events_->schedule_tick(next);
  }
}

void ClusterManager::evaluate_group(Group& group, Seconds now) {
  ClusterSample sample;
  sample.now = now;
  sample.min_replicas = 0;
  sample.max_replicas = 0;
  for (const int pi : group.pools) {
    const Pool& pool = pools_[static_cast<std::size_t>(pi)];
    sample.active += count_in(pool, ReplicaState::kActive);
    sample.pending += count_in(pool, ReplicaState::kProvisioning) +
                      count_in(pool, ReplicaState::kWarming);
    sample.draining += count_in(pool, ReplicaState::kDraining);
    sample.min_replicas += pool.spec.floor_replicas();
    sample.max_replicas += pool.spec.slots();
    for (ReplicaId r = pool.begin; r < pool.end; ++r) {
      const ReplicaState s = state(r);
      if (s == ReplicaState::kActive || s == ReplicaState::kDraining)
        sample.outstanding += hooks_.replica_load(r);
      if (s == ReplicaState::kActive &&
          group.config.signal == ScaleSignal::kKvPressure)
        sample.kv_pressure += hooks_.replica_kv_utilization(r);
    }
  }
  // The central queue holds pre-prefill arrivals: they are load on the
  // arrival-serving group (unified or prefill), never on decode pools.
  if (group.role != PoolRole::kDecode)
    sample.outstanding += hooks_.parked_requests();

  const int desired = std::clamp(group.policy->desired_replicas(sample),
                                 sample.min_replicas, sample.max_replicas);
  trace_emit(trace_, TraceEventKind::kScaleDecision, now, -1, -1, desired,
             sample.active, static_cast<std::uint8_t>(group.role));
  const int effective = sample.active + sample.pending;
  if (desired > effective) {
    if (now - group.last_scale_up >= group.config.scale_up_cooldown)
      scale_up_group(group, desired - effective, now);
  } else if (desired < sample.active && sample.pending == 0) {
    // Scale-downs wait for in-flight cold starts to land (draining active
    // replicas while ordered capacity is still warming would overshoot
    // below desired and then pay for the surplus), and wait out recent
    // scale-ups: capacity just added gets a chance to absorb the backlog
    // before the fleet shrinks again.
    if (now - std::max(group.last_scale_up, group.last_scale_down) >=
        group.config.scale_down_cooldown)
      scale_down_group(group, sample.active - desired, now);
  }
}

void ClusterManager::scale_up_group(Group& group, int n, Seconds now) {
  if (group.config.max_scale_step > 0)
    n = std::min(n, group.config.max_scale_step);
  while (n > 0) {
    // Cost-aware placement: grow the pool whose capacity is cheapest per
    // SLO-point. Strict < keeps ties on the earliest pool — deterministic.
    int best = -1;
    double best_cost = 0.0;
    for (const int pi : group.elastic) {
      const Pool& pool = pools_[static_cast<std::size_t>(pi)];
      // A spot-reclaimed slot is decommissioned but held for the window's
      // remainder; only unheld slots count as headroom.
      if (available_slots(pool, now) == 0) continue;
      const double cost = cost_per_slo_point(pool);
      if (best < 0 || cost < best_cost) {
        best = pi;
        best_cost = cost;
      }
    }
    if (best < 0) return;  // every elastic pool is at its ceiling
    Pool& pool = pools_[static_cast<std::size_t>(best)];
    for (ReplicaId r = pool.begin; r < pool.end; ++r) {
      if (state(r) != ReplicaState::kDecommissioned ||
          hold_until_[static_cast<std::size_t>(r)] > now)
        continue;
      --n;
      ++pool.num_ups;
      if (ctr_scale_ups_ != nullptr) ctr_scale_ups_->inc();
      group.last_scale_up = now;
      up_since_[static_cast<std::size_t>(r)] = now;
      transition(r, ReplicaState::kProvisioning, now);
      // The provisioning -> warming -> active chain is never interrupted:
      // only active replicas are ever drained, so these callbacks cannot
      // observe a stale slot. Cold-start delays are the pool's own.
      const Seconds warmup = pool.spec.autoscale.warmup_delay;
      events_->schedule(
          now + pool.spec.autoscale.provision_delay, [this, r, warmup] {
            transition(r, ReplicaState::kWarming, events_->now());
            events_->schedule(events_->now() + warmup, [this, r] {
              transition(r, ReplicaState::kActive, events_->now());
              hooks_.on_activated(r);
            });
          });
      break;
    }
  }
}

void ClusterManager::scale_down_group(Group& group, int n, Seconds now) {
  if (group.config.max_scale_step > 0)
    n = std::min(n, group.config.max_scale_step);
  while (n > 0) {
    // The most expensive capacity per SLO-point drains first; >= keeps
    // ties on the latest pool, so within one pool the highest-id active
    // slot drains — the surviving fleet stays packed at the low ids,
    // matching the deterministic lowest-id-wins tie-breaking of
    // least-outstanding routing.
    int best = -1;
    double best_cost = -1.0;
    for (const int pi : group.elastic) {
      const Pool& pool = pools_[static_cast<std::size_t>(pi)];
      if (count_in(pool, ReplicaState::kActive) <= pool.spec.floor_replicas())
        continue;
      const double cost = cost_per_slo_point(pool);
      if (cost >= best_cost) {
        best = pi;
        best_cost = cost;
      }
    }
    if (best < 0) return;  // every elastic pool sits at its floor
    Pool& pool = pools_[static_cast<std::size_t>(best)];
    for (ReplicaId r = pool.end - 1; r >= pool.begin; --r) {
      if (state(r) != ReplicaState::kActive) continue;
      --n;
      ++pool.num_downs;
      if (ctr_scale_downs_ != nullptr) ctr_scale_downs_->inc();
      group.last_scale_down = now;
      transition(r, ReplicaState::kDraining, now);
      // Queued-but-unstarted requests leave through the global scheduler
      // instead of waiting out the drain on a shrinking replica.
      hooks_.on_draining(r);
      // A replica with nothing left in flight decommissions immediately;
      // the simulator reports the idle transition for busy ones.
      if (hooks_.replica_load(r) == 0) notify_idle(r);
      break;
    }
  }
}

void ClusterManager::notify_idle(ReplicaId replica) {
  notify_idle(replica, events_->now());
}

void ClusterManager::notify_idle(ReplicaId replica, Seconds now) {
  if (state(replica) != ReplicaState::kDraining) return;
  auto& since = up_since_[static_cast<std::size_t>(replica)];
  pools_[static_cast<std::size_t>(pool_of(replica))].paid.emplace_back(since,
                                                                       now);
  since = -1.0;
  transition(replica, ReplicaState::kDecommissioned, now);
  if (hooks_.on_decommissioned) hooks_.on_decommissioned(replica);
}

void ClusterManager::fail_replica(ReplicaId replica, Seconds hold_until) {
  const ReplicaState s = state(replica);
  VIDUR_CHECK_MSG(
      s == ReplicaState::kActive || s == ReplicaState::kDraining,
      "fail_replica(" << replica << "): replica is " << replica_state_name(s)
                      << ", not active or draining");
  const Seconds now = events_->now();
  auto& since = up_since_[static_cast<std::size_t>(replica)];
  // A failed replica was still paid for until the failure instant.
  pools_[static_cast<std::size_t>(pool_of(replica))].paid.emplace_back(since,
                                                                       now);
  since = -1.0;
  hold_until_[static_cast<std::size_t>(replica)] = hold_until;
  transition(replica, ReplicaState::kDecommissioned, now);
  if (hooks_.on_decommissioned) hooks_.on_decommissioned(replica);
}

void ClusterManager::drain_replica(ReplicaId replica) {
  if (state(replica) != ReplicaState::kActive) return;
  transition(replica, ReplicaState::kDraining, events_->now());
  hooks_.on_draining(replica);
  if (hooks_.replica_load(replica) == 0) notify_idle(replica);
}

void ClusterManager::transition(ReplicaId replica, ReplicaState to,
                                Seconds now) {
  auto& slot = states_[static_cast<std::size_t>(replica)];
  log_.push_back(ScalingEvent{now, replica, slot, to});
  slot = to;
  routable_[static_cast<std::size_t>(replica)] = to == ReplicaState::kActive;
  const int active = num_active();
  trace_emit(trace_, TraceEventKind::kReplicaTransition, now, replica, -1,
             active, 0, static_cast<std::uint8_t>(to));
  peak_active_ = std::max(peak_active_, active);
  if (!timeline_.empty() && timeline_.back().time == now)
    timeline_.back().active = active;
  else
    timeline_.push_back(ReplicaCountSample{now, active});

  Pool& pool = pools_[static_cast<std::size_t>(pool_of(replica))];
  const int pool_active = count_in(pool, ReplicaState::kActive);
  pool.peak_active = std::max(pool.peak_active, pool_active);
  if (!pool.timeline.empty() && pool.timeline.back().time == now)
    pool.timeline.back().active = pool_active;
  else
    pool.timeline.push_back(ReplicaCountSample{now, pool_active});
}

namespace {

/// Time-weighted mean of an active-count step function over [0, end].
double timeline_mean(const std::vector<ReplicaCountSample>& timeline,
                     Seconds end_time) {
  double integral = 0.0;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const Seconds begin = timeline[i].time;
    const Seconds end =
        i + 1 < timeline.size() ? timeline[i + 1].time : end_time;
    integral +=
        timeline[i].active * std::max(0.0, std::min(end, end_time) - begin);
  }
  return end_time > 0 ? integral / end_time : 0.0;
}

}  // namespace

ClusterScalingReport ClusterManager::report(Seconds end_time) const {
  ClusterScalingReport report;
  report.enabled = true;
  report.fleet_size = fleet_size_;
  report.peak_active = peak_active_;
  report.events = log_;
  report.active_timeline = timeline_;
  report.mean_active_replicas = timeline_mean(timeline_, end_time);

  for (const Pool& pool : pools_) {
    PoolScalingReport p;
    p.name = pool.spec.name;
    p.sku = pool.spec.sku_name;
    p.role = pool_role_name(pool.spec.role);
    p.first_slot = pool.begin;
    p.slots = pool.spec.slots();
    p.autoscaled = pool.spec.autoscale.enabled();
    p.min_replicas = pool.spec.floor_replicas();
    p.initial_replicas = pool.spec.initial_active();
    p.gpus_per_replica = pool.spec.gpus_per_replica();
    p.cost_per_gpu_hour = pool.spec.effective_cost_per_gpu_hour();
    p.peak_active = pool.peak_active;
    p.num_scale_up_events = pool.num_ups;
    p.num_scale_down_events = pool.num_downs;
    p.active_timeline = pool.timeline;
    p.mean_active_replicas = timeline_mean(pool.timeline, end_time);

    // Everything past end_time is clamped off: the trailing decision tick
    // (and any drain it triggers) must not bill the elastic fleet beyond
    // the accounting horizon the simulator settled on.
    double paid = 0.0;
    for (const auto& [begin, end] : pool.paid)
      paid += std::max(0.0, std::min(end, end_time) - begin);
    for (ReplicaId r = pool.begin; r < pool.end; ++r) {
      const Seconds since = up_since_[static_cast<std::size_t>(r)];
      if (since >= 0.0) paid += std::max(0.0, end_time - since);
    }
    p.replica_hours = paid / 3600.0;
    p.gpu_hours = p.replica_hours * p.gpus_per_replica;
    p.cost_usd = p.gpu_hours * p.cost_per_gpu_hour;

    report.min_replicas += p.min_replicas;
    report.initial_replicas += p.initial_replicas;
    report.num_scale_up_events += p.num_scale_up_events;
    report.num_scale_down_events += p.num_scale_down_events;
    report.replica_hours += p.replica_hours;
    report.gpu_hours += p.gpu_hours;
    report.cost_usd += p.cost_usd;
    report.pools.push_back(std::move(p));
  }
  return report;
}

}  // namespace vidur
