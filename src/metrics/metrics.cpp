#include "metrics/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace vidur {

void RequestRecord::fold_gaps(LatencyDistribution& tbt) {
  for (const Seconds gap : pending_gaps) tbt.add(gap);
  drop_gaps();
}

bool meets_slo(const RequestRecord& r, const SloSpec& slo) {
  // worst_tbt() is -1 below two tokens, which no positive target rejects.
  if (!r.completed()) return false;
  if (slo.ttft_target > 0 && r.ttft() > slo.ttft_target) return false;
  if (slo.tbt_target > 0 && r.worst_tbt() > slo.tbt_target) return false;
  return true;
}

MetricsCollector::MetricsCollector(std::vector<PoolResources> pools,
                                   std::vector<int> pool_of_slot)
    : pools_(std::move(pools)), pool_of_slot_(std::move(pool_of_slot)) {
  VIDUR_CHECK(!pools_.empty() && !pool_of_slot_.empty());
  const PoolResources& first = pools_.front();
  for (const PoolResources& p : pools_) {
    VIDUR_CHECK(p.gpus_per_replica >= 1);
    VIDUR_CHECK(p.peak_flops_per_gpu > 0);
    VIDUR_CHECK(p.hbm_bytes_per_sec_per_gpu >= 0);
    VIDUR_CHECK(p.idle_watts_per_gpu >= 0);
    VIDUR_CHECK(p.peak_watts_per_gpu >= p.idle_watts_per_gpu);
    uniform_ &= p.gpus_per_replica == first.gpus_per_replica &&
                p.peak_flops_per_gpu == first.peak_flops_per_gpu &&
                p.hbm_bytes_per_sec_per_gpu ==
                    first.hbm_bytes_per_sec_per_gpu &&
                p.idle_watts_per_gpu == first.idle_watts_per_gpu &&
                p.peak_watts_per_gpu == first.peak_watts_per_gpu;
  }
  pool_slots_.assign(pools_.size(), 0);
  for (const int p : pool_of_slot_) {
    VIDUR_CHECK_MSG(p >= 0 && p < static_cast<int>(pools_.size()),
                    "pool_of_slot entry " << p << " out of range");
    ++pool_slots_[static_cast<std::size_t>(p)];
  }
  slot_sums_.assign(pool_of_slot_.size(), BatchSums{});
}

void MetricsCollector::BatchSums::add(const BatchSums& o) {
  flops += o.flops;
  hbm_bytes += o.hbm_bytes;
  busy_time += o.busy_time;
  kv_util_time += o.kv_util_time;
  batch_size_time += o.batch_size_time;
  busy_energy_joules += o.busy_energy_joules;
}

MetricsCollector::MetricsCollector(int num_replicas,
                                   double peak_flops_per_gpu,
                                   int gpus_per_replica,
                                   double hbm_bytes_per_sec_per_gpu)
    : MetricsCollector(
          {PoolResources{.name = "fleet",
                         .gpus_per_replica = gpus_per_replica,
                         .peak_flops_per_gpu = peak_flops_per_gpu,
                         .hbm_bytes_per_sec_per_gpu =
                             hbm_bytes_per_sec_per_gpu}},
          std::vector<int>(static_cast<std::size_t>(std::max(num_replicas, 0)),
                           0)) {}

namespace {

/// A `request.*` registry entry: exact order statistics of `s`, with the
/// in-order sum (zeros when empty).
RegistrySnapshot::HistogramEntry request_entry(std::string name,
                                               const SampleSeries& s) {
  const Summary sum = Summary::of(s);
  return {std::move(name), sum.count, s.sum(), sum.mean, sum.p50, sum.p90,
          sum.p99, sum.max};
}

/// Linear power model: intensity is the batch's per-GPU FLOP or bandwidth
/// utilization, whichever dominates (roofline-style).
double batch_energy_joules(const BatchRecord& record, double duration,
                           int gpus_per_replica, double peak_flops_per_gpu,
                           double hbm_bytes_per_sec_per_gpu,
                           double idle_watts_per_gpu,
                           double peak_watts_per_gpu) {
  if (peak_watts_per_gpu <= 0 || duration <= 0) return 0.0;
  const double flop_util =
      record.flops / (duration * peak_flops_per_gpu * gpus_per_replica);
  const double bw_util =
      hbm_bytes_per_sec_per_gpu > 0
          ? static_cast<double>(record.hbm_bytes_per_gpu) /
                (duration * hbm_bytes_per_sec_per_gpu)
          : 0.0;
  const double intensity = std::clamp(std::max(flop_util, bw_util), 0.0, 1.0);
  const double watts_per_gpu =
      idle_watts_per_gpu + (peak_watts_per_gpu - idle_watts_per_gpu) *
                               intensity;
  return duration * gpus_per_replica * watts_per_gpu;
}

}  // namespace

void MetricsCollector::record_batch(const BatchRecord& record) {
  const double duration = record.end_time - record.start_time;
  VIDUR_CHECK(duration >= 0);
  const auto slot = static_cast<std::size_t>(record.replica);
  VIDUR_CHECK_MSG(slot < pool_of_slot_.size(),
                  "batch replica " << record.replica
                                   << " outside the pool slot layout");
  const PoolResources& res =
      pools_[static_cast<std::size_t>(pool_of_slot_[slot])];
  BatchSums& sums = slot_sums_[slot];
  sums.flops += record.flops;
  sums.hbm_bytes += static_cast<double>(record.hbm_bytes_per_gpu);
  sums.busy_time += duration;
  sums.kv_util_time += record.kv_utilization * duration;
  sums.batch_size_time += static_cast<double>(record.batch_size) * duration;
  sums.busy_energy_joules += batch_energy_joules(
      record, duration, res.gpus_per_replica, res.peak_flops_per_gpu,
      res.hbm_bytes_per_sec_per_gpu, res.idle_watts_per_gpu,
      res.peak_watts_per_gpu);
}

void MetricsCollector::set_tenants(const std::vector<TenantInfo>& tenants) {
  VIDUR_CHECK_MSG(num_requests_ == 0,
                  "set_tenants must precede the first record_request ("
                      << num_requests_ << " requests already folded)");
  tenant_accs_.clear();
  // SLO-carrying tenants get a row even with no traffic; a repeated id
  // keeps its last identity.
  for (const TenantInfo& t : tenants) {
    VIDUR_CHECK(t.id >= 0);
    tenant_accs_[t.id].info = t;
  }
  tagged_ = !tenants.empty();
}

void MetricsCollector::record_request(const RequestRecord& record) {
  ++num_requests_;
  if (!tagged_ && record.tenant != 0) {
    // Untagged so far, every request was tenant 0's: its series are the
    // fleet's, which it takes over instead of keeping a second copy.
    tagged_ = true;
    const auto zero = tenant_accs_.find(0);
    if (zero != tenant_accs_.end()) {
      zero->second.delay = delay_;
      zero->second.ttft = ttft_;
    }
  }
  const auto [it, added] = tenant_accs_.try_emplace(record.tenant);
  TenantAcc& acc = it->second;
  if (added) {
    acc.info.id = record.tenant;
    acc.info.name = "tenant" + std::to_string(record.tenant);
  }
  ++acc.num_requests;
  if (acc.info.slo.enabled()) {
    const bool met = meets_slo(record, acc.info.slo);
    acc.num_slo_met += met ? 1 : 0;
    // Shed and lost requests never completed: they are misses on the
    // impacted side. A request cut off by max_sim_time gets no verdict.
    if (record.completed() || record.shed || record.lost) {
      SloSplit& split = record.fault_impacted() ? slo_impacted_ : slo_clean_;
      ++split.total;
      split.met += met ? 1 : 0;
    }
  }
  if (!record.completed()) return;
  num_restarts_ += record.num_restarts;
  output_tokens_ += record.decode_tokens;
  delay_.add(record.scheduling_delay());
  ttft_.add(record.ttft());
  e2e_.add(record.e2e_latency());
  if (record.worst_tbt() >= 0) worst_tbt_.add(record.worst_tbt());
  norm_e2e_.add(record.normalized_e2e_latency());
  norm_exec_.add(record.normalized_execution_latency());
  ++acc.num_completed;
  acc.output_tokens += record.decode_tokens;
  if (tagged_) {
    acc.delay.add(record.scheduling_delay());
    acc.ttft.add(record.ttft());
  }
}

void MetricsCollector::record_tbt(TenantId tenant,
                                  const LatencyDistribution& gaps) {
  tbt_by_tenant_[tenant].merge(gaps);
}

void MetricsCollector::record_operators(
    const std::map<OpType, Seconds>& per_op) {
  for (const auto& [op, seconds] : per_op) {
    auto& stats = operator_stats_[op];
    ++stats.invocations;
    stats.total_seconds += seconds;
  }
}

SimulationMetrics MetricsCollector::finalize(Seconds now) const {
  VIDUR_CHECK_MSG(uniform_,
                  "finalize(now) needs identical pools; pass the fleet's "
                  "scaling report for a fleet of mixed pool rates");
  return finalize(now, static_fleet_report(
                           static_cast<int>(pool_of_slot_.size()), now,
                           pools_.front().gpus_per_replica,
                           /*cost_per_gpu_hour=*/0.0));
}

SimulationMetrics MetricsCollector::finalize(
    Seconds now, const ClusterScalingReport& scaling) const {
  SimulationMetrics m;
  m.scaling = scaling;
  m.num_requests = num_requests_;
  m.num_completed = delay_.count();
  m.num_restarts = num_restarts_;
  m.makespan = now;

  LatencyDistribution tbt;
  for (const auto& [tenant, gaps] : tbt_by_tenant_) tbt.merge(gaps);
  m.scheduling_delay = Summary::of(delay_);
  m.ttft = Summary::of(ttft_);
  m.tbt = Summary::of(tbt);
  m.normalized_e2e_latency = Summary::of(norm_e2e_);
  m.normalized_execution_latency = Summary::of(norm_exec_);
  // Sorted by name, as a registry snapshot is.
  m.registry.histograms = {request_entry("request.e2e_s", e2e_),
                           request_entry("request.tbt_worst_s", worst_tbt_),
                           request_entry("request.ttft_s", ttft_)};
  m.resilience.slo_attainment_clean = slo_clean_.attainment();
  m.resilience.slo_attainment_impacted = slo_impacted_.attainment();

  BatchSums fleet;
  std::vector<BatchSums> pool_sums(pools_.size());
  for (std::size_t slot = 0; slot < slot_sums_.size(); ++slot) {
    fleet.add(slot_sums_[slot]);
    pool_sums[static_cast<std::size_t>(pool_of_slot_[slot])].add(
        slot_sums_[slot]);
  }

  if (now > 0) {
    m.throughput_qps = static_cast<double>(m.num_completed) / now;
    m.output_tokens_per_sec = static_cast<double>(output_tokens_) / now;
    const int slots = static_cast<int>(pool_of_slot_.size());
    m.busy_fraction = fleet.busy_time / (now * slots);
    // Fleet MFU over the summed peak FLOPs; MBU over the summed per-GPU
    // bandwidth of every replica (hbm bytes are recorded per GPU, and a
    // replica's GPUs move them in parallel). Idle draw is billed against
    // the fleet's paid GPU-time — a slot that was never provisioned draws
    // nothing — under one fleet-wide clamp: at PP > 1 overlapping batches
    // can count more busy GPU-time than was paid for.
    double peak_flops = 0.0, bandwidth = 0.0, idle_joules = 0.0;
    bool energy = false;
    if (uniform_) {
      const PoolResources& r = pools_.front();
      peak_flops = r.peak_flops_per_gpu * r.gpus_per_replica * slots;
      bandwidth = now * slots * r.hbm_bytes_per_sec_per_gpu;
      idle_joules =
          (scaling.gpu_hours * 3600.0 - fleet.busy_time * r.gpus_per_replica) *
          r.idle_watts_per_gpu;
      energy = r.peak_watts_per_gpu > 0;
    } else {
      VIDUR_CHECK_MSG(scaling.pools.size() == pools_.size(),
                      "a fleet of mixed pool rates needs the scaling "
                      "report's per-pool breakout");
      for (std::size_t i = 0; i < pools_.size(); ++i) {
        const PoolResources& r = pools_[i];
        const int n = pool_slots_[i];
        peak_flops += r.peak_flops_per_gpu * r.gpus_per_replica * n;
        bandwidth += now * n * r.hbm_bytes_per_sec_per_gpu;
        idle_joules += (scaling.pools[i].gpu_hours * 3600.0 -
                        pool_sums[i].busy_time * r.gpus_per_replica) *
                       r.idle_watts_per_gpu;
        energy |= r.peak_watts_per_gpu > 0;
      }
    }
    m.mfu = fleet.flops / (now * peak_flops);
    if (bandwidth > 0) m.mbu = fleet.hbm_bytes / bandwidth;
    if (energy) {
      m.total_energy_joules =
          fleet.busy_energy_joules + std::max(0.0, idle_joules);
      if (output_tokens_ > 0)
        m.energy_per_output_token =
            m.total_energy_joules / static_cast<double>(output_tokens_);
      m.mean_cluster_power_watts = m.total_energy_joules / now;
    }
  }
  if (fleet.busy_time > 0) {
    m.mean_kv_utilization = fleet.kv_util_time / fleet.busy_time;
    m.mean_batch_size = fleet.batch_size_time / fleet.busy_time;
  }
  m.operator_stats = operator_stats_;

  // Exact per-pool MFU/MBU/energy: each pool's own batch sums over the
  // pool's own SKU rates and *paid* GPU-time (its scaling-report hours).
  if (m.scaling.pools.size() == pools_.size()) {
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      const PoolResources& res = pools_[i];
      const BatchSums& acc = pool_sums[i];
      PoolScalingReport& p = m.scaling.pools[i];
      const double paid_replica_seconds = p.replica_hours * 3600.0;
      const double paid_gpu_seconds = p.gpu_hours * 3600.0;
      if (paid_gpu_seconds > 0)
        p.mfu = acc.flops / (paid_gpu_seconds * res.peak_flops_per_gpu);
      // hbm bytes are per GPU and a replica's GPUs move them in parallel,
      // so normalize by paid replica-time (mirrors the fleet MBU).
      if (paid_replica_seconds > 0) {
        if (res.hbm_bytes_per_sec_per_gpu > 0)
          p.mbu = acc.hbm_bytes /
                  (paid_replica_seconds * res.hbm_bytes_per_sec_per_gpu);
        p.busy_fraction = acc.busy_time / paid_replica_seconds;
      }
      if (res.peak_watts_per_gpu > 0) {
        const double idle_gpu_seconds = std::max(
            0.0, paid_gpu_seconds - acc.busy_time * res.gpus_per_replica);
        p.energy_joules = acc.busy_energy_joules +
                          idle_gpu_seconds * res.idle_watts_per_gpu;
      }
    }
  }

  // ---- per-tenant breakdown ----
  if (tagged_) {
    for (const auto& [id, acc] : tenant_accs_) {
      SimulationMetrics::TenantMetrics tm;
      tm.info = acc.info;
      tm.num_requests = acc.num_requests;
      tm.num_completed = acc.num_completed;
      tm.scheduling_delay = Summary::of(acc.delay);
      tm.ttft = Summary::of(acc.ttft);
      const auto gaps = tbt_by_tenant_.find(id);
      if (gaps != tbt_by_tenant_.end()) tm.tbt = Summary::of(gaps->second);
      if (now > 0) {
        tm.throughput_qps = static_cast<double>(acc.num_completed) / now;
        tm.output_tokens_per_sec =
            static_cast<double>(acc.output_tokens) / now;
      }
      if (tm.info.slo.enabled() && acc.num_requests > 0)
        tm.slo_attainment = static_cast<double>(acc.num_slo_met) /
                            static_cast<double>(acc.num_requests);
      m.tenant_metrics.push_back(std::move(tm));
    }
  }
  return m;
}

double SimulationMetrics::aggregate_slo_attainment() const {
  double met = 0.0;
  std::size_t requests = 0;
  for (const auto& t : tenant_metrics) {
    if (t.slo_attainment < 0) continue;
    met += t.slo_attainment * static_cast<double>(t.num_requests);
    requests += t.num_requests;
  }
  return requests > 0 ? met / static_cast<double>(requests) : -1.0;
}

std::string SimulationMetrics::tenant_table() const {
  if (tenant_metrics.empty()) return {};
  ConsoleTable table({"tenant", "prio", "requests", "completed", "TTFT p90",
                      "TBT p99", "tok/s", "SLO attainment"});
  for (const auto& t : tenant_metrics) {
    table.add_row({t.info.name, std::to_string(t.info.priority),
                   std::to_string(t.num_requests),
                   std::to_string(t.num_completed),
                   fmt_double(t.ttft.p90, 4) + "s",
                   fmt_double(t.tbt.p99, 5) + "s",
                   fmt_double(t.output_tokens_per_sec, 1),
                   t.slo_attainment < 0 ? std::string("-")
                                        : fmt_percent(t.slo_attainment)});
  }
  return table.str();
}

std::string SimulationMetrics::operator_table() const {
  if (operator_stats.empty()) return {};
  Seconds grand_total = 0.0;
  for (const auto& [op, stats] : operator_stats)
    grand_total += stats.total_seconds;

  std::vector<std::pair<OpType, OperatorStats>> rows(operator_stats.begin(),
                                                     operator_stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_seconds > b.second.total_seconds;
  });

  ConsoleTable table(
      {"operator", "class", "stage execs", "total time (s)", "share"});
  for (const auto& [op, stats] : rows) {
    const char* cls = op_class(op) == OpClass::kTokenLevel      ? "token"
                      : op_class(op) == OpClass::kSequenceLevel ? "sequence"
                                                                : "comm";
    table.add_row({op_name(op), cls, std::to_string(stats.invocations),
                   fmt_double(stats.total_seconds, 4),
                   fmt_percent(grand_total > 0
                                   ? stats.total_seconds / grand_total
                                   : 0.0)});
  }
  return table.str();
}

std::string SimulationMetrics::to_string() const {
  std::ostringstream os;
  os << "requests: " << num_completed << "/" << num_requests
     << " completed, makespan " << fmt_double(makespan, 2) << "s\n";
  os << "  throughput:      " << fmt_double(throughput_qps, 3) << " qps, "
     << fmt_double(output_tokens_per_sec, 1) << " output tok/s\n";
  os << "  sched delay:     p50 " << fmt_double(scheduling_delay.p50, 4)
     << "s  p99 " << fmt_double(scheduling_delay.p99, 4) << "s\n";
  os << "  TTFT:            p50 " << fmt_double(ttft.p50, 4) << "s  p90 "
     << fmt_double(ttft.p90, 4) << "s\n";
  os << "  TBT:             p50 " << fmt_double(tbt.p50, 5) << "s  p99 "
     << fmt_double(tbt.p99, 5) << "s\n";
  os << "  norm e2e:        p50 " << fmt_double(normalized_e2e_latency.p50, 5)
     << "  p95 " << fmt_double(normalized_e2e_latency.p95, 5)
     << " s/token\n";
  os << "  norm exec:       p50 "
     << fmt_double(normalized_execution_latency.p50, 5) << "  p95 "
     << fmt_double(normalized_execution_latency.p95, 5) << " s/token\n";
  os << "  MFU: " << fmt_percent(mfu) << "  MBU: " << fmt_percent(mbu)
     << "  mean batch "
     << fmt_double(mean_batch_size, 1) << "  KV util "
     << fmt_percent(mean_kv_utilization) << "  busy "
     << fmt_percent(busy_fraction) << "  restarts " << num_restarts << "\n";
  if (total_energy_joules > 0) {
    os << "  energy:          " << fmt_double(total_energy_joules / 1e3, 1)
       << " kJ total, " << fmt_double(energy_per_output_token, 2)
       << " J/token, mean draw "
       << fmt_double(mean_cluster_power_watts, 0) << " W\n";
  }
  if (estimator_cache_hits + estimator_cache_misses > 0) {
    const double total =
        static_cast<double>(estimator_cache_hits + estimator_cache_misses);
    os << "  estimator cache: " << estimator_cache_hits << " hits / "
       << estimator_cache_misses << " misses ("
       << fmt_percent(static_cast<double>(estimator_cache_hits) / total)
       << " hit rate)\n";
  }
  if (scaling.enabled) os << "  fleet:           " << scaling.to_string()
                          << "\n";
  if (!tenant_metrics.empty()) os << tenant_table();
  return os.str();
}

}  // namespace vidur
