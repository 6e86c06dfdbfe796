#include "core/deployment.h"

#include <sstream>

#include "common/check.h"

namespace vidur {

std::vector<PoolSpec> DeploymentConfig::lowered_pools() const {
  std::vector<PoolSpec> lowered =
      lower_to_pools(pools, sku_name, parallel, disagg, autoscale);
  VIDUR_CHECK_MSG(
      pools.empty() || (sku_name == DeploymentConfig{}.sku_name &&
                        parallel == ParallelConfig{}),
      "deployment.pools supersedes the homogeneous sku/tensor_parallel/"
      "pipeline_parallel/num_replicas fields; leave them at their "
      "defaults (each pool carries its own)");
  return lowered;
}

int DeploymentConfig::total_gpus() const {
  int total = 0;
  for (const PoolSpec& pool : lowered_pools())
    total += pool.slots() * pool.gpus_per_replica();
  return total;
}

double DeploymentConfig::cost_per_hour() const {
  double total = 0.0;
  for (const PoolSpec& pool : lowered_pools())
    total += pool.effective_cost_per_gpu_hour() *
             (pool.slots() * pool.gpus_per_replica());
  return total;
}

// Prints the form the user wrote: capacity-search output lists configs by
// this string.
std::string DeploymentConfig::to_string() const {
  std::ostringstream os;
  if (!pools.empty()) {
    os << "pools[";
    for (std::size_t i = 0; i < pools.size(); ++i) {
      const PoolSpec& p = pools[i];
      if (i > 0) os << ", ";
      os << p.name << ":" << p.sku_name << " tp"
         << p.parallel.tensor_parallel << " pp"
         << p.parallel.pipeline_parallel << " x" << p.slots() << " "
         << pool_role_name(p.role);
      if (p.autoscale.enabled())
        os << " autoscale(" << autoscaler_name(p.autoscale.kind) << "/"
           << scale_signal_name(p.autoscale.signal) << ", "
           << p.autoscale.min_replicas << ".." << p.slots() << ")";
    }
    os << "] " << scheduler.to_string();
    return os.str();
  }
  os << sku_name << " tp" << parallel.tensor_parallel << " pp"
     << parallel.pipeline_parallel << " x" << parallel.num_replicas << " "
     << scheduler.to_string();
  if (async_pipeline_comm) os << " async-pp";
  if (disagg.enabled())
    os << " disagg(" << disagg.num_prefill_replicas << "P+"
       << parallel.num_replicas - disagg.num_prefill_replicas << "D)";
  if (autoscale.enabled())
    os << " autoscale(" << autoscaler_name(autoscale.kind) << ", "
       << autoscale.min_replicas << ".." << parallel.num_replicas << ")";
  return os.str();
}

}  // namespace vidur
