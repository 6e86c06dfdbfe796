// Heterogeneous replica pools: the unit of elastic capacity planning.
//
// A deployment is a list of named pools, each with its own GPU SKU,
// parallelism, serving role and autoscaling policy. The ClusterManager
// drives one lifecycle timeline per pool; pools sharing a role form a
// scaling group whose cost-aware scale-out picks the pool with the lowest
// $/SLO-point (replica rental rate divided by per-replica capacity), and
// disaggregated deployments scale their prefill and decode pools on
// independent signals (pending prefill queue depth vs decode KV pressure).
#pragma once

#include <string>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/replica_state.h"
#include "hardware/parallel_config.h"
#include "sim/disagg_config.h"

namespace vidur {

/// What traffic a pool's replicas serve.
///
///   kUnified — every replica runs prefill and decode (classic serving).
///   kPrefill — replicas run prompt processing only; completed prompts ship
///              their KV cache to a decode pool (Splitwise/DistServe).
///   kDecode  — replicas receive prefilled requests via KV hand-off.
///
/// A deployment is either all-unified or prefill+decode; mixing unified
/// pools with disaggregated roles is rejected by validate_pools().
enum class PoolRole {
  kUnified,
  kPrefill,
  kDecode,
};

const std::string& pool_role_name(PoolRole role);
PoolRole pool_role_from_name(const std::string& name);
/// Every role name, in declaration order (for listings / did-you-mean).
const std::vector<std::string>& pool_role_names();

/// One named pool of identical replica slots.
struct PoolSpec {
  std::string name;
  std::string sku_name = "a100";
  PoolRole role = PoolRole::kUnified;
  /// TP/PP of every replica in the pool; num_replicas is the pool's slot
  /// count (its scale-out ceiling).
  ParallelConfig parallel;
  /// Rental rate override, USD per GPU-hour; 0 uses the SKU's list price.
  double cost_per_gpu_hour = 0.0;
  /// Per-pool elastic policy; kNone pins the pool at its slot count
  /// (a static pool — it still serves and bills, but never scales).
  AutoscalerConfig autoscale;
  /// Sustainable per-replica throughput (requests/s) used to rank pools by
  /// $/SLO-point during cost-aware scale-out. 0 = derive automatically:
  /// VidurSession prices a canonical batch through the RuntimeEstimator's
  /// per-SKU predictions. Set all pools or none — mixed sources skew the
  /// ranking.
  double capacity_qps = 0.0;

  int slots() const { return parallel.num_replicas; }
  int gpus_per_replica() const { return parallel.gpus_per_replica(); }
  /// Rental rate actually billed: the override, or the SKU list price.
  double effective_cost_per_gpu_hour() const;
  /// USD per replica-hour (all of one replica's GPUs).
  double replica_cost_per_hour() const;

  /// Active-replica floor of this pool: the autoscaler's min_replicas for
  /// elastic pools, the full slot count for static ones.
  int floor_replicas() const;
  /// Replicas active at t=0.
  int initial_active() const;

  /// Per-pool consistency (name, SKU, parallelism, cost, policy bounds).
  /// Throws vidur::Error with the pool's name in the message.
  void validate() const;

  bool operator==(const PoolSpec&) const = default;
};

/// The slice of an AutoscalerConfig a scaling group decides with: the
/// config with the genuinely per-pool fields (min_replicas,
/// initial_replicas, and the cold-start delays, which scale_up applies per
/// pool) normalized away. Pools of one role that autoscale must agree on
/// this view — the group makes ONE sizing decision per tick, so a
/// threshold or cooldown that differed between same-role pools would be
/// silently ignored.
AutoscalerConfig group_policy_view(AutoscalerConfig config);

/// Cross-pool validation of a full deployment: unique non-empty names,
/// known SKUs, a coherent role mix (decode requires prefill and vice versa,
/// unified never mixes with either), at least one arrival-serving pool, and
/// scaling-group consistency — pools of the same role that autoscale must
/// agree on the whole group_policy_view (kind, signal, cadence, thresholds,
/// cooldowns, step caps, predictive inputs), because the group makes one
/// sizing decision per tick and only the *placement* is per-pool. Throws
/// vidur::Error with an actionable message.
void validate_pools(const std::vector<PoolSpec>& pools);

/// True when the pools describe a disaggregated (prefill/decode) fleet.
bool pools_disaggregated(const std::vector<PoolSpec>& pools);
/// Sum of every pool's slot count.
int total_pool_slots(const std::vector<PoolSpec>& pools);
/// The canonical slot layout — slots laid out pool by pool, in order —
/// as a slot -> pool-index map. Every consumer of a pool deployment's
/// replica-slot space (simulator, session backend factories, manager)
/// derives the mapping from here so the layout cannot silently diverge.
std::vector<int> pool_slot_layout(const std::vector<PoolSpec>& pools);
/// True when at least one pool carries an enabled autoscaling policy.
bool any_pool_autoscaled(const std::vector<PoolSpec>& pools);

/// Scaling report of an all-static pool deployment: every pool pinned at
/// its slot count for the whole run, broken out per pool. When every pool
/// bills alike (same GPUs per replica and rate) the fleet totals are those
/// of one homogeneous block of slots, bit for bit.
ClusterScalingReport static_pools_report(const std::vector<PoolSpec>& pools,
                                         Seconds makespan);

/// Lower any deployment form to pools — the only form the engine runs.
///
///   - Written `pools` come back unchanged; the legacy split and the
///     top-level `autoscale` must then stay at their defaults.
///   - The homogeneous form (`pools` empty) becomes one unified pool named
///     "fleet" of `parallel.num_replicas` slots carrying `autoscale`.
///   - The legacy split (`disagg.num_prefill_replicas` > 0) becomes a
///     "prefill" pool of that many slots followed by a "decode" pool of the
///     rest; the transfer_* fields keep parameterizing the KV hand-off.
///     Prefill slots come first, so round-robin over the role-masked slot
///     space visits replicas in the order a prefill-only domain would.
///
/// Owns the checks on the forms themselves: written pools with a top-level
/// autoscale or a legacy split, and a legacy split that is negative, leaves
/// no decode replica or autoscales. Throws vidur::Error; structural checks
/// of the result are validate_pools()'s.
std::vector<PoolSpec> lower_to_pools(std::vector<PoolSpec> pools,
                                     const std::string& sku_name,
                                     const ParallelConfig& parallel,
                                     const DisaggConfig& disagg,
                                     const AutoscalerConfig& autoscale);

}  // namespace vidur
