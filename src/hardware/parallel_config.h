// Model parallelism configuration: tensor-parallel degree, pipeline-parallel
// degree and replica count, plus the derived sharding arithmetic that the
// profiler, memory planner and execution predictor all share.
#pragma once

#include <string>

#include "common/check.h"
#include "common/types.h"
#include "model/model_spec.h"

namespace vidur {

struct ParallelConfig {
  int tensor_parallel = 1;    ///< TP degree (shards every layer)
  int pipeline_parallel = 1;  ///< PP degree (splits layers into stages)
  int num_replicas = 1;       ///< independent model replicas

  int gpus_per_replica() const { return tensor_parallel * pipeline_parallel; }
  int total_gpus() const { return gpus_per_replica() * num_replicas; }

  /// Every degree and the replica count must be >= 1. `where` prefixes the
  /// message (e.g. "pool 'fleet': ").
  void validate(const std::string& where = {}) const {
    VIDUR_CHECK_MSG(tensor_parallel >= 1,
                    where << "tensor_parallel must be >= 1 (got "
                          << tensor_parallel << ")");
    VIDUR_CHECK_MSG(pipeline_parallel >= 1,
                    where << "pipeline_parallel must be >= 1 (got "
                          << pipeline_parallel << ")");
    VIDUR_CHECK_MSG(num_replicas >= 1,
                    where << "num_replicas must be >= 1 (got " << num_replicas
                          << ")");
  }

  /// Layers resident on one pipeline stage (model layers split evenly; the
  /// last stage absorbs the remainder).
  int layers_per_stage(const ModelSpec& model, StageId stage) const {
    VIDUR_CHECK(stage >= 0 && stage < pipeline_parallel);
    const int base = model.num_layers / pipeline_parallel;
    const int rem = model.num_layers % pipeline_parallel;
    return base + (stage == pipeline_parallel - 1 ? rem : 0);
  }

  bool operator==(const ParallelConfig&) const = default;
};

}  // namespace vidur
