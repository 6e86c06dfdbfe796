// ClusterManager: owns the dynamic replica fleet of an elastic simulation.
//
// Sits between the scenario engine (whose time-varying traffic motivates
// elasticity) and the simulator core (which owns the replica schedulers):
// the manager tracks each replica slot's lifecycle state, periodically asks
// the autoscaling policies for desired fleet sizes, and turns the
// difference into provisioning / draining transitions scheduled on the
// simulation's event queue. Cold starts are explicit (provisioning +
// warming delays); scale-downs drain — the replica finishes every request
// already routed to it before the slot is released.
//
// The fleet is a list of named pools (cluster/pool.h), each a contiguous
// range of replica slots with its own SKU, cost rate and policy. Pools
// sharing a role form a scaling group: the group makes one sizing decision
// per tick on its own signal (queue depth for arrival-serving roles, KV
// pressure for decode pools), and cost-aware placement then picks *which*
// pool grows or shrinks — scale-out lands on the pool with the lowest
// $/SLO-point (replica rental rate over per-replica capacity), scale-down
// drains the most expensive capacity first. The classic homogeneous fleet
// is the single-pool special case.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/pool.h"
#include "cluster/replica_state.h"
#include "sim/event_queue.h"

namespace vidur {

class TraceRecorder;
class MetricsRegistry;
struct Counter;

class ClusterManager {
 public:
  /// Callbacks into the simulator. All but replica_kv_utilization must be
  /// set; that one is required only when a pool scales on kKvPressure.
  struct Hooks {
    /// Outstanding work bound to a replica (waiting + running requests).
    std::function<int(ReplicaId)> replica_load;
    /// Requests parked in the global scheduler's central queue.
    std::function<int()> parked_requests;
    /// Any request not yet completed? Decision ticks stop rescheduling
    /// once this turns false, so the event queue can drain.
    std::function<bool()> work_remaining;
    /// A replica finished warming and became routable (pull parked work).
    std::function<void(ReplicaId)> on_activated;
    /// A replica entered draining. The simulator re-routes the replica's
    /// queued-but-unstarted requests through the GlobalScheduler here, so
    /// the drain only has to finish work that actually started.
    std::function<void(ReplicaId)> on_draining;
    /// KV-cache block utilization (0..1) of a replica — the decode-pool
    /// scaling signal.
    std::function<double(ReplicaId)> replica_kv_utilization;
    /// Optional: a replica's slot was released (drain completed or the
    /// replica was failed). The simulator tears down per-replica state the
    /// lifecycle does not own — the prefix-cache pool in particular.
    std::function<void(ReplicaId)> on_decommissioned;
  };

  /// Slots are laid out pool by pool, in order (pool_slot_layout). At least
  /// one pool must autoscale. Throws vidur::Error on invalid pools
  /// (validate_pools) or a KV-pressure pool without the KV hook.
  ClusterManager(std::vector<PoolSpec> pools, EventQueue* events, Hooks hooks);
  /// Unregisters the tick handler; a tick still pending in the queue then
  /// fails fast instead of invoking a destroyed manager.
  ~ClusterManager();

  /// Activate the initial replicas (warm at t=0, no cold-start delay) and
  /// schedule the first decision tick. Call once, before the run starts.
  void start();

  ReplicaState state(ReplicaId replica) const {
    return states_[static_cast<std::size_t>(replica)];
  }
  bool is_routable(ReplicaId replica) const {
    return state(replica) == ReplicaState::kActive;
  }
  /// Per-slot routability, in the shape GlobalScheduler::route expects.
  /// Maintained incrementally — cheap to read on every arrival.
  const std::vector<bool>& routable_mask() const { return routable_; }

  int fleet_size() const { return fleet_size_; }
  int num_active() const { return count(ReplicaState::kActive); }
  /// Capacity in flight: provisioning + warming replicas.
  int num_pending() const {
    return count(ReplicaState::kProvisioning) + count(ReplicaState::kWarming);
  }
  int num_draining() const { return count(ReplicaState::kDraining); }

  int num_pools() const { return static_cast<int>(pools_.size()); }
  /// Pool index owning `replica` (slots are laid out pool by pool).
  int pool_of(ReplicaId replica) const {
    return pool_of_[static_cast<std::size_t>(replica)];
  }
  PoolRole role_of(ReplicaId replica) const {
    return pools_[static_cast<std::size_t>(pool_of(replica))].spec.role;
  }

  /// Simulator notification: `replica` has no outstanding work and no batch
  /// in flight. Completes a pending drain; a no-op in any other state.
  void notify_idle(ReplicaId replica);
  /// Same, at an explicit timestamp. The sharded simulator defers idle
  /// notifications discovered inside a window round and replays them at the
  /// merge barrier, when the central clock has not yet advanced to the
  /// shard-local time the drain actually completed.
  void notify_idle(ReplicaId replica, Seconds now);

  /// Fault-injection entry points (src/fault/). Both act on the lifecycle
  /// only — the simulator tears down scheduler/KV state around them.
  ///
  /// Abruptly remove an active or draining replica: the slot goes straight
  /// to kDecommissioned (no drain), its paid interval closes at the current
  /// event time, and — when `hold_until` >= 0 — the slot cannot be
  /// re-provisioned before that time (spot reclaims hold capacity for the
  /// window's remainder; crashes pass -1 and free the slot immediately).
  void fail_replica(ReplicaId replica, Seconds hold_until = -1.0);
  /// Begin draining an active replica outside any scaling decision (spot
  /// reclaim notice). No-op unless the replica is kActive.
  void drain_replica(ReplicaId replica);

  /// Attach observability (src/obs/): the trace records every replica
  /// lifecycle transition and autoscaler decision; the registry carries
  /// tick/scale counters. Borrowed pointers; call before start() so the
  /// initial activations are captured too.
  void set_obs(TraceRecorder* trace, MetricsRegistry* registry);

  /// Capacity/cost accounting up to `end_time` (replicas still up accrue
  /// until then), per pool and in total.
  ClusterScalingReport report(Seconds end_time) const;

 private:
  struct Pool {
    PoolSpec spec;
    /// Per-replica capacity the $/SLO-point ranking divides by: the spec's
    /// capacity_qps when every elastic pool of the group sets one, else the
    /// SKU's peak TFLOPs (a ranking never mixes the two sources).
    double rank_capacity = 0.0;
    int begin = 0;  ///< slot range [begin, end)
    int end = 0;
    int num_ups = 0;
    int num_downs = 0;
    int peak_active = 0;
    /// Pool-local active-count step function.
    std::vector<ReplicaCountSample> timeline;
    /// Closed paid up-intervals of this pool's slots.
    std::vector<std::pair<Seconds, Seconds>> paid;
  };

  /// Pools of one role scale together: one sizing decision per tick, then
  /// cost-aware placement across the group's elastic pools.
  struct Group {
    PoolRole role = PoolRole::kUnified;
    std::vector<int> pools;    ///< every pool of the role (static included)
    std::vector<int> elastic;  ///< autoscale-enabled pools (the candidates)
    AutoscalerConfig config;   ///< group policy (validated consistent)
    std::unique_ptr<AutoscalerPolicy> policy;
    Seconds next_due = 0.0;
    Seconds last_scale_up = -kInfiniteTime;
    Seconds last_scale_down = -kInfiniteTime;
  };

  void evaluate();  ///< one decision tick: run every due group
  void evaluate_group(Group& group, Seconds now);
  void scale_up_group(Group& group, int count, Seconds now);
  void scale_down_group(Group& group, int count, Seconds now);
  /// $/SLO-point of one pool: replica rental rate over per-replica
  /// capacity. Lower is the better place to grow.
  double cost_per_slo_point(const Pool& pool) const;
  void transition(ReplicaId replica, ReplicaState to, Seconds now);
  int count(ReplicaState s) const;
  int count_in(const Pool& pool, ReplicaState s) const;
  /// Decommissioned slots of `pool` whose re-provision hold has expired —
  /// the slots scale_up_group may actually take at `now`.
  int available_slots(const Pool& pool, Seconds now) const;

  int fleet_size_ = 0;
  EventQueue* events_;
  Hooks hooks_;
  std::vector<Pool> pools_;
  std::vector<Group> groups_;

  std::vector<ReplicaState> states_;
  std::vector<bool> routable_;   ///< states_[r] == kActive, kept in sync
  std::vector<int> pool_of_;     ///< slot -> owning pool index
  /// Provisioning start of the current paid up-interval; -1 when down.
  std::vector<Seconds> up_since_;
  /// Earliest time a decommissioned slot may be re-provisioned (spot
  /// reclaim holds); -infinity when unheld.
  std::vector<Seconds> hold_until_;

  std::vector<ScalingEvent> log_;
  std::vector<ReplicaCountSample> timeline_;  ///< fleet-wide active counts
  int peak_active_ = 0;

  // ---- observability (all optional; see set_obs) ----
  TraceRecorder* trace_ = nullptr;
  Counter* ctr_ticks_ = nullptr;
  Counter* ctr_scale_ups_ = nullptr;
  Counter* ctr_scale_downs_ = nullptr;
};

}  // namespace vidur
