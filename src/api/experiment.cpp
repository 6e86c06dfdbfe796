#include "api/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "hardware/sku.h"
#include "model/model_spec.h"
#include "scenario/registry.h"

namespace vidur {

namespace {

const std::vector<std::pair<ExperimentMode, std::string>>& mode_names() {
  static const std::vector<std::pair<ExperimentMode, std::string>> table = {
      {ExperimentMode::kSimulate, "simulate"},
      {ExperimentMode::kReference, "reference"},
      {ExperimentMode::kCapacitySearch, "capacity_search"},
      {ExperimentMode::kElasticPlan, "elastic_plan"},
  };
  return table;
}

// ------------------------------------------------- did-you-mean helpers

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

/// "unknown <what> '<got>' (did you mean '<closest>'?); known <what>s: ...".
[[noreturn]] void fail_unknown_name(const std::string& what,
                                    const std::string& got,
                                    const std::vector<std::string>& known) {
  std::ostringstream os;
  os << "unknown " << what << " '" << got << "'";
  std::size_t best = std::string::npos;
  const std::string* suggestion = nullptr;
  for (const std::string& candidate : known) {
    const std::size_t d = edit_distance(got, candidate);
    if (d < best) {
      best = d;
      suggestion = &candidate;
    }
  }
  if (suggestion != nullptr &&
      best <= std::max<std::size_t>(2, got.size() / 3))
    os << " (did you mean '" << *suggestion << "'?)";
  os << "; known: " << join(known);
  throw Error(os.str());
}

void check_name(const std::string& what, const std::string& got,
                const std::vector<std::string>& known) {
  if (std::find(known.begin(), known.end(), got) == known.end())
    fail_unknown_name(what, got, known);
}

}  // namespace

const std::string& experiment_mode_name(ExperimentMode mode) {
  for (const auto& [m, n] : mode_names())
    if (m == mode) return n;
  throw Error("unhandled ExperimentMode");
}

ExperimentMode experiment_mode_from_name(const std::string& name) {
  for (const auto& [m, n] : mode_names())
    if (n == name) return m;
  fail_unknown_name("experiment mode", name, experiment_mode_names());
}

const std::vector<std::string>& experiment_mode_names() {
  static const std::vector<std::string> all = [] {
    std::vector<std::string> out;
    for (const auto& [m, n] : mode_names()) out.push_back(n);
    return out;
  }();
  return all;
}

// ---------------------------------------------------------------- sweep

bool SweepAxes::empty() const {
  // Axis-wise, not num_points() == 1: a single-element axis still pins
  // that coordinate and must be applied by expand_sweep().
  return sku.empty() && tensor_parallel.empty() &&
         pipeline_parallel.empty() && num_replicas.empty() &&
         scheduler.empty() && max_batch_size.empty() && chunk_size.empty() &&
         qps.empty();
}

std::size_t SweepAxes::num_points() const {
  const auto dim = [](std::size_t n) { return std::max<std::size_t>(1, n); };
  return dim(sku.size()) * dim(tensor_parallel.size()) *
         dim(pipeline_parallel.size()) * dim(num_replicas.size()) *
         dim(scheduler.size()) * dim(max_batch_size.size()) *
         dim(chunk_size.size()) * dim(qps.size());
}

// -------------------------------------------------------------- builders

ExperimentSpec& ExperimentSpec::with_name(std::string n) {
  name = std::move(n);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_mode(ExperimentMode m) {
  mode = m;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_model(std::string model_name) {
  model = std::move(model_name);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_sku(std::string sku_name) {
  deployment.sku_name = std::move(sku_name);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_parallelism(int tp, int pp,
                                                 int replicas) {
  deployment.parallel = ParallelConfig{tp, pp, replicas};
  return *this;
}

ExperimentSpec& ExperimentSpec::with_scheduler(SchedulerKind kind,
                                               int max_batch_size,
                                               TokenCount chunk_size) {
  deployment.scheduler.kind = kind;
  deployment.scheduler.max_batch_size = max_batch_size;
  deployment.scheduler.chunk_size = chunk_size;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_routing(GlobalSchedulerKind kind) {
  deployment.global_scheduler = kind;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_trace(std::string trace_name, double qps,
                                           int num_requests) {
  workload.scenario.clear();
  workload.trace = std::move(trace_name);
  workload.arrival = ArrivalSpec{ArrivalKind::kPoisson, qps, /*cv=*/2.0};
  workload.num_requests = num_requests;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_scenario(std::string scenario_name,
                                              int num_requests) {
  workload.scenario = std::move(scenario_name);
  workload.num_requests = num_requests;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_slo(SloSpec s) {
  slo = s;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_seed(std::uint64_t s) {
  seed = s;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_autoscale(AutoscalerConfig autoscale) {
  deployment.autoscale = std::move(autoscale);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_pool(PoolSpec pool) {
  deployment.pools.push_back(std::move(pool));
  return *this;
}

ExperimentSpec& ExperimentSpec::with_prefix_cache(double capacity_fraction) {
  deployment.prefix_cache.enabled = true;
  deployment.prefix_cache.capacity_fraction = capacity_fraction;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_faults(FaultConfig faults) {
  deployment.faults = std::move(faults);
  return *this;
}

// -------------------------------------------------------------- validate

std::vector<PoolSpec> ExperimentSpec::checked_pools() const {
  DeploymentConfig largest = deployment;
  int& slots = largest.parallel.num_replicas;
  for (const int n : sweep.num_replicas) slots = std::max(slots, n);
  if (mode == ExperimentMode::kElasticPlan)
    slots = std::max({slots, largest.autoscale.min_replicas,
                      largest.autoscale.initial_replicas});
  return largest.lowered_pools();
}

void ExperimentSpec::validate() const {
  VIDUR_CHECK_MSG(!name.empty(), "experiment spec needs a non-empty name");
  check_name("model", model, builtin_model_names());

  // Read before lowering: checked_pools() resizes the homogeneous fleet
  // along the num_replicas axis.
  VIDUR_CHECK_MSG(deployment.pools.empty() ||
                      (sweep.sku.empty() && sweep.tensor_parallel.empty() &&
                       sweep.pipeline_parallel.empty() &&
                       sweep.num_replicas.empty()),
                  "sweep axes sku/tensor_parallel/pipeline_parallel/"
                  "num_replicas rewrite the homogeneous deployment, which "
                  "deployment.pools supersedes; drop those axes or the "
                  "pools");

  // ---- deployment, as the pools it lowers to ----
  const std::vector<PoolSpec> pools = checked_pools();
  // validate_pools() owns the structural checks (names, costs, roles,
  // group consistency); the SKU did-you-mean runs first.
  for (const PoolSpec& pool : pools)
    check_name("SKU", pool.sku_name, builtin_sku_names());
  validate_pools(pools);
  bool any_capacity = false, all_capacity = true;
  for (const PoolSpec& pool : pools) {
    const int tp = pool.parallel.tensor_parallel;
    VIDUR_CHECK_MSG(
        std::count(tp_degrees.begin(), tp_degrees.end(), tp) > 0,
        "pool '" << pool.name << "' tensor_parallel " << tp
                 << " is not covered by the session tp_degrees [" << [this] {
                      std::ostringstream os;
                      for (std::size_t i = 0; i < tp_degrees.size(); ++i)
                        os << (i > 0 ? ", " : "") << tp_degrees[i];
                      return os.str();
                    }() << "]; add it to tp_degrees so onboarding profiles it");
    any_capacity |= pool.capacity_qps > 0;
    all_capacity &= pool.capacity_qps > 0;
  }
  VIDUR_CHECK_MSG(!any_capacity || all_capacity,
                  "deployment.pools sets capacity_qps on some pools but "
                  "not others; set it on every pool or on none (unset "
                  "capacities are derived from the estimator)");
  deployment.scheduler.validate();
  // The KV hand-off between roles, for the legacy split and written pools
  // alike.
  if (pools_disaggregated(pools)) {
    const DisaggConfig& d = deployment.disagg;
    VIDUR_CHECK_MSG(d.transfer_bandwidth_gbps > 0,
                    "deployment.disagg.transfer_bandwidth_gbps must be > 0 "
                    "for prefill/decode pools (got "
                        << d.transfer_bandwidth_gbps << ")");
    VIDUR_CHECK_MSG(d.transfer_latency >= 0,
                    "deployment.disagg.transfer_latency_s must be >= 0 (got "
                        << d.transfer_latency << ")");
  }

  // ---- prefix cache ----
  deployment.prefix_cache.validate();
  VIDUR_CHECK_MSG(
      deployment.global_scheduler != GlobalSchedulerKind::kCacheAware ||
          deployment.prefix_cache.enabled,
      "global_scheduler 'cache_aware' routes on prefix-cache residency; "
      "set deployment.prefix_cache.enabled = true (or pick another "
      "routing policy)");

  // ---- fault injection ----
  deployment.faults.validate();
  if (deployment.faults.enabled()) {
    // "" and "fleet" target every replica; any other name must be a pool.
    std::vector<std::string> pool_names;
    for (const PoolSpec& pool : pools) pool_names.push_back(pool.name);
    for (const FaultProfile& p : deployment.faults.profiles)
      if (!p.pool.empty() && p.pool != "fleet")
        check_name("faults profile pool", p.pool, pool_names);
    // Kill-type faults remove capacity; without an autoscaler there is
    // nothing to provision replacements, so the what-if is degenerate.
    VIDUR_CHECK_MSG(
        !deployment.faults.any_kills() || any_pool_autoscaled(pools),
        "faults include crashes or spot preemption, which permanently "
        "remove replicas; enable autoscaling (deployment.autoscale or a "
        "pool autoscale section) so the fleet can provision replacements "
        "(degrade-only profiles work on static fleets)");
    switch (mode) {
      case ExperimentMode::kSimulate:
      case ExperimentMode::kReference:
        break;
      case ExperimentMode::kCapacitySearch:
      case ExperimentMode::kElasticPlan:
        throw Error(
            "deployment.faults applies to simulate/reference runs; "
            "capacity_search and elastic_plan evaluate fault-free "
            "deployments (remove the faults section)");
    }
  }

  // ---- execution ----
  VIDUR_CHECK_MSG(deployment.threads >= 1,
                  "deployment.execution.threads must be >= 1 (got "
                      << deployment.threads << ")");
  VIDUR_CHECK_MSG(
      deployment.threads == 1 || !pools_disaggregated(pools),
      "deployment.execution.threads > 1 cannot shard disaggregated "
      "serving (prefill->decode KV hand-offs have zero lookahead); set "
      "threads = 1 or drop the disaggregation");

  // ---- workload ----
  if (workload.synthetic()) {
    check_name("trace", workload.trace, builtin_trace_names());
    workload.arrival.validate();
    VIDUR_CHECK_MSG(workload.num_requests > 0,
                    "a synthetic workload needs workload.num_requests > 0");
  } else {
    check_name("scenario", workload.scenario,
               ScenarioRegistry::instance().names());
    VIDUR_CHECK_MSG(workload.num_requests >= 0,
                    "workload.num_requests must be >= 0 (0 keeps the "
                    "scenario's own default)");
    // Catch the silent-override trap: a scenario defines its own tenant
    // traces and arrival process, so a spec that also customizes the
    // synthetic fields almost certainly expected them to apply.
    const WorkloadSpec defaults;
    VIDUR_CHECK_MSG(
        workload.trace == defaults.trace &&
            workload.arrival == defaults.arrival,
        "workload.scenario '"
            << workload.scenario
            << "' carries its own traces and arrival process; remove "
               "workload.trace / workload.arrival from the spec");
  }
  VIDUR_CHECK_MSG(std::isfinite(slo.ttft_target) && slo.ttft_target >= 0 &&
                      std::isfinite(slo.tbt_target) && slo.tbt_target >= 0,
                  "SLO targets must be finite and >= 0");
  VIDUR_CHECK_MSG(num_threads >= 0, "num_threads must be >= 0");

  // ---- observability ----
  VIDUR_CHECK_MSG(obs.trace_capacity > 0,
                  "obs.trace_capacity must be > 0 (records; the ring buffer "
                  "keeps the most recent ones)");
  VIDUR_CHECK_MSG(
      std::isfinite(obs.rolling_window_s) && obs.rolling_window_s >= 0,
      "obs.rolling_window_s must be finite and >= 0 (0 disables)");

  // ---- mode constraints ----
  switch (mode) {
    case ExperimentMode::kSimulate:
    case ExperimentMode::kReference:
      break;
    case ExperimentMode::kCapacitySearch:
      VIDUR_CHECK_MSG(deployment.pools.empty(),
                      "capacity_search sweeps homogeneous deployments and "
                      "does not search over pool layouts; remove "
                      "deployment.pools (or use mode elastic_plan for a "
                      "static-vs-autoscaled pool comparison)");
      VIDUR_CHECK_MSG(workload.synthetic(),
                      "capacity_search mode sweeps arrival rates itself and "
                      "needs a synthetic workload: set workload.trace, not "
                      "workload.scenario '"
                          << workload.scenario << "'");
      // The search probes its own arrival rates (that is the quantity it
      // binary-searches); a customized arrival would be silently ignored.
      VIDUR_CHECK_MSG(workload.arrival == WorkloadSpec{}.arrival,
                      "capacity_search probes its own arrival rates; remove "
                      "workload.arrival from the spec");
      for (const std::string& sku : search.skus)
        check_name("SKU", sku, builtin_sku_names());
      for (const int tp : search.tp_degrees)
        VIDUR_CHECK_MSG(
            std::count(tp_degrees.begin(), tp_degrees.end(), tp) > 0,
            "search.tp_degrees includes "
                << tp << ", which the session tp_degrees do not cover; add "
                         "it to tp_degrees so onboarding profiles it");
      break;
    case ExperimentMode::kElasticPlan:
      VIDUR_CHECK_MSG(!workload.synthetic(),
                      "elastic_plan mode compares static and autoscaled "
                      "fleets on a named scenario; set workload.scenario");
      VIDUR_CHECK_MSG(any_pool_autoscaled(pools),
                      "elastic_plan mode needs an autoscaling policy to "
                      "evaluate: set deployment.autoscale (homogeneous) or "
                      "an autoscale section on at least one pool");
      VIDUR_CHECK_MSG(elastic.slo_target > 0 && elastic.slo_target <= 1,
                      "elastic.slo_target must be in (0, 1]");
      VIDUR_CHECK_MSG(elastic.max_replicas >= 1 && elastic.burst_slots >= 0,
                      "elastic.max_replicas must be >= 1 and "
                      "elastic.burst_slots >= 0");
      break;
  }

  // ---- sweep axes ----
  for (const std::string& sku : sweep.sku)
    check_name("SKU", sku, builtin_sku_names());
  for (const std::string& sched : sweep.scheduler)
    check_name("scheduler", sched, scheduler_names());
  for (const int tp : sweep.tensor_parallel)
    VIDUR_CHECK_MSG(std::count(tp_degrees.begin(), tp_degrees.end(), tp) > 0,
                    "sweep.tensor_parallel includes "
                        << tp << ", which the session tp_degrees do not "
                                 "cover; add it to tp_degrees");
  VIDUR_CHECK_MSG(sweep.qps.empty() || workload.synthetic(),
                  "sweep.qps applies to synthetic workloads; scenario '"
                      << workload.scenario
                      << "' carries its own arrival rate");
}

// ---------------------------------------------------------- expand_sweep

std::vector<ExperimentSpec> ExperimentSpec::expand_sweep() const {
  ExperimentSpec base = *this;
  base.sweep = SweepAxes{};
  if (sweep.empty()) return {std::move(base)};

  // Every non-empty axis contributes its values; empty axes contribute the
  // base spec's single value (encoded as one-element vectors below).
  const auto or_base = [](auto axis, auto base_value) {
    if (axis.empty()) axis.push_back(base_value);
    return axis;
  };
  const auto skus = or_base(sweep.sku, deployment.sku_name);
  const auto tps = or_base(sweep.tensor_parallel,
                           deployment.parallel.tensor_parallel);
  const auto pps = or_base(sweep.pipeline_parallel,
                           deployment.parallel.pipeline_parallel);
  const auto replicas = or_base(sweep.num_replicas,
                                deployment.parallel.num_replicas);
  const auto scheds = or_base(
      sweep.scheduler, scheduler_name(deployment.scheduler.kind));
  const auto batches = or_base(sweep.max_batch_size,
                               deployment.scheduler.max_batch_size);
  const auto chunks = or_base(sweep.chunk_size,
                              deployment.scheduler.chunk_size);
  const auto rates = or_base(sweep.qps, workload.arrival.qps);

  std::vector<ExperimentSpec> out;
  out.reserve(sweep.num_points());
  for (const std::string& sku : skus)
    for (const int tp : tps)
      for (const int pp : pps)
        for (const int n : replicas)
          for (const std::string& sched : scheds)
            for (const int bs : batches)
              for (const TokenCount chunk : chunks)
                for (const double qps : rates) {
                  ExperimentSpec point = base;
                  point.deployment.sku_name = sku;
                  point.deployment.parallel.tensor_parallel = tp;
                  point.deployment.parallel.pipeline_parallel = pp;
                  point.deployment.parallel.num_replicas = n;
                  point.deployment.scheduler.kind =
                      scheduler_from_name(sched);
                  point.deployment.scheduler.max_batch_size = bs;
                  point.deployment.scheduler.chunk_size = chunk;
                  point.workload.arrival.qps = qps;
                  // Suffix the name with the swept coordinates only.
                  std::ostringstream suffix;
                  const auto tag = [&suffix](bool swept, const char* key,
                                             const auto& value) {
                    if (!swept) return;
                    if (suffix.tellp() > 0) suffix << ",";
                    suffix << key << "=" << value;
                  };
                  tag(!sweep.sku.empty(), "sku", sku);
                  tag(!sweep.tensor_parallel.empty(), "tp", tp);
                  tag(!sweep.pipeline_parallel.empty(), "pp", pp);
                  tag(!sweep.num_replicas.empty(), "replicas", n);
                  tag(!sweep.scheduler.empty(), "sched", sched);
                  tag(!sweep.max_batch_size.empty(), "bs", bs);
                  tag(!sweep.chunk_size.empty(), "chunk", chunk);
                  tag(!sweep.qps.empty(), "qps", qps);
                  point.name = name + "[" + suffix.str() + "]";
                  out.push_back(std::move(point));
                }
  return out;
}

// ------------------------------------------------------------ JSON codec
//
// Every config struct has one field table (a fields() overload) listing its
// JSON keys in schema order, the member each key maps to and when the key
// is written. The same table drives to_json (write_fields) and from_json
// (read_fields), and both go through one typed codec per value type
// (encode / decode). The irregular sections are coded explicitly on top:
// RateProfile's kind-dependent parameters, the pool vs homogeneous
// deployment forms, the `execution.threads` nesting, the named-scenario
// workload, and pool / fault-profile errors that cite the element by name.

namespace {

/// When a field is written. kNonDefault omits it while it equals the
/// default-constructed struct's value: spec files stay minimal and diffable
/// while the round trip stays lossless (parsing starts from the same
/// defaults).
enum Emit { kAlways, kNonDefault };

// The field tables: fields(std::type_identity<S>, f) calls
// f(key, emit, member...) once per field of S, in schema order;
// `member...` is the member-pointer path to the value.

void fields(std::type_identity<SloSpec>, auto&& f) {
  f("ttft_target_s", kAlways, &SloSpec::ttft_target);
  f("tbt_target_s", kAlways, &SloSpec::tbt_target);
}

void fields(std::type_identity<ArrivalSpec>, auto&& f) {
  f("kind", kAlways, &ArrivalSpec::kind);
  f("qps", kAlways, &ArrivalSpec::qps);
  f("cv", kAlways, &ArrivalSpec::cv);
}

void fields(std::type_identity<SchedulerConfig>, auto&& f) {
  using S = SchedulerConfig;
  f("kind", kAlways, &S::kind);
  f("max_batch_size", kNonDefault, &S::max_batch_size);
  f("max_tokens_per_iteration", kNonDefault, &S::max_tokens_per_iteration);
  f("chunk_size", kNonDefault, &S::chunk_size);
  f("watermark_fraction", kNonDefault, &S::watermark_fraction);
}

void fields(std::type_identity<DisaggConfig>, auto&& f) {
  using S = DisaggConfig;
  f("num_prefill_replicas", kAlways, &S::num_prefill_replicas);
  f("transfer_bandwidth_gbps", kNonDefault, &S::transfer_bandwidth_gbps);
  f("transfer_latency_s", kNonDefault, &S::transfer_latency);
}

void fields(std::type_identity<AutoscalerConfig>, auto&& f) {
  using S = AutoscalerConfig;
  f("kind", kAlways, &S::kind);
  f("signal", kNonDefault, &S::signal);
  f("target_kv_utilization", kNonDefault, &S::target_kv_utilization);
  f("scale_up_kv_utilization", kNonDefault, &S::scale_up_kv_utilization);
  f("scale_down_kv_utilization", kNonDefault,
    &S::scale_down_kv_utilization);
  f("min_replicas", kNonDefault, &S::min_replicas);
  f("initial_replicas", kNonDefault, &S::initial_replicas);
  f("provision_delay_s", kNonDefault, &S::provision_delay);
  f("warmup_delay_s", kNonDefault, &S::warmup_delay);
  f("decision_interval_s", kNonDefault, &S::decision_interval);
  f("scale_up_cooldown_s", kNonDefault, &S::scale_up_cooldown);
  f("scale_down_cooldown_s", kNonDefault, &S::scale_down_cooldown);
  f("max_scale_step", kNonDefault, &S::max_scale_step);
  f("target_load_per_replica", kNonDefault, &S::target_load_per_replica);
  f("scale_up_load", kNonDefault, &S::scale_up_load);
  f("scale_down_load", kNonDefault, &S::scale_down_load);
  f("profile", kNonDefault, &S::profile);
  f("baseline_qps", kNonDefault, &S::baseline_qps);
  f("replica_capacity_qps", kNonDefault, &S::replica_capacity_qps);
  f("headroom", kNonDefault, &S::headroom);
  f("lookahead_s", kNonDefault, &S::lookahead);
}

void fields(std::type_identity<PrefixCacheConfig>, auto&& f) {
  f("enabled", kAlways, &PrefixCacheConfig::enabled);
  f("capacity_fraction", kNonDefault, &PrefixCacheConfig::capacity_fraction);
}

void fields(std::type_identity<SpotWindow>, auto&& f) {
  f("start_s", kAlways, &SpotWindow::start);
  f("duration_s", kAlways, &SpotWindow::duration);
  f("replicas", kNonDefault, &SpotWindow::replicas);
  f("notice_s", kNonDefault, &SpotWindow::notice);
}

void fields(std::type_identity<FaultProfile>, auto&& f) {
  using S = FaultProfile;
  f("pool", kNonDefault, &S::pool);
  f("crash_mtbf_s", kNonDefault, &S::crash_mtbf_s);
  f("spot_windows", kNonDefault, &S::spot_windows);
  f("degrade_mtbf_s", kNonDefault, &S::degrade_mtbf_s);
  f("degrade_factor", kNonDefault, &S::degrade_factor);
  f("degrade_duration_s", kNonDefault, &S::degrade_duration_s);
}

void fields(std::type_identity<RecoveryPolicy>, auto&& f) {
  using S = RecoveryPolicy;
  f("max_attempts", kNonDefault, &S::max_attempts);
  f("backoff_base_s", kNonDefault, &S::backoff_base_s);
  f("backoff_multiplier", kNonDefault, &S::backoff_multiplier);
  f("jitter", kNonDefault, &S::jitter);
}

void fields(std::type_identity<ShedPolicy>, auto&& f) {
  f("min_active_replicas", kAlways, &ShedPolicy::min_active_replicas);
  f("max_shed_priority", kNonDefault, &ShedPolicy::max_shed_priority);
}

void fields(std::type_identity<FaultConfig>, auto&& f) {
  f("seed", kNonDefault, &FaultConfig::seed);
  f("profiles", kAlways, &FaultConfig::profiles);
  f("recovery", kNonDefault, &FaultConfig::recovery);
  f("shed", kNonDefault, &FaultConfig::shed);
}

void fields(std::type_identity<PoolSpec>, auto&& f) {
  using S = PoolSpec;
  using P = ParallelConfig;
  f("name", kAlways, &S::name);
  f("sku", kAlways, &S::sku_name);
  f("role", kNonDefault, &S::role);
  f("tensor_parallel", kNonDefault, &S::parallel, &P::tensor_parallel);
  f("pipeline_parallel", kNonDefault, &S::parallel, &P::pipeline_parallel);
  f("num_replicas", kAlways, &S::parallel, &P::num_replicas);
  f("cost_per_gpu_hour", kNonDefault, &S::cost_per_gpu_hour);
  f("capacity_qps", kNonDefault, &S::capacity_qps);
  f("autoscale", kNonDefault, &S::autoscale);
}

/// The homogeneous form; encode(DeploymentConfig) derives the pool form
/// and adds `execution`.
void fields(std::type_identity<DeploymentConfig>, auto&& f) {
  using S = DeploymentConfig;
  using P = ParallelConfig;
  f("sku", kAlways, &S::sku_name);
  f("tensor_parallel", kAlways, &S::parallel, &P::tensor_parallel);
  f("pipeline_parallel", kAlways, &S::parallel, &P::pipeline_parallel);
  f("num_replicas", kAlways, &S::parallel, &P::num_replicas);
  f("scheduler", kNonDefault, &S::scheduler);
  f("global_scheduler", kNonDefault, &S::global_scheduler);
  f("async_pipeline_comm", kNonDefault, &S::async_pipeline_comm);
  f("disagg", kNonDefault, &S::disagg);
  f("autoscale", kNonDefault, &S::autoscale);
  f("pools", kNonDefault, &S::pools);
  f("prefix_cache", kNonDefault, &S::prefix_cache);
  f("faults", kNonDefault, &S::faults);
}

/// The synthetic form; encode/decode(WorkloadSpec) handle named scenarios.
void fields(std::type_identity<WorkloadSpec>, auto&& f) {
  f("scenario", kNonDefault, &WorkloadSpec::scenario);
  f("trace", kAlways, &WorkloadSpec::trace);
  f("arrival", kAlways, &WorkloadSpec::arrival);
  f("num_requests", kAlways, &WorkloadSpec::num_requests);
}

void fields(std::type_identity<SearchSpace>, auto&& f) {
  using S = SearchSpace;
  f("skus", kNonDefault, &S::skus);
  f("tp_degrees", kNonDefault, &S::tp_degrees);
  f("pp_degrees", kNonDefault, &S::pp_degrees);
  f("max_total_gpus", kNonDefault, &S::max_total_gpus);
  f("schedulers", kNonDefault, &S::schedulers);
  f("batch_sizes", kNonDefault, &S::batch_sizes);
  f("sarathi_chunk_sizes", kNonDefault, &S::sarathi_chunk_sizes);
  f("max_tokens_per_iteration", kNonDefault, &S::max_tokens_per_iteration);
  f("global_scheduler", kNonDefault, &S::global_scheduler);
}

void fields(std::type_identity<ElasticPlanSpec>, auto&& f) {
  f("slo_target", kAlways, &ElasticPlanSpec::slo_target);
  f("max_replicas", kAlways, &ElasticPlanSpec::max_replicas);
  f("burst_slots", kAlways, &ElasticPlanSpec::burst_slots);
}

void fields(std::type_identity<ObsSpec>, auto&& f) {
  f("trace", kNonDefault, &ObsSpec::trace);
  f("trace_capacity", kNonDefault, &ObsSpec::trace_capacity);
  f("rolling_window_s", kNonDefault, &ObsSpec::rolling_window_s);
  f("analyze", kNonDefault, &ObsSpec::analyze);
}

void fields(std::type_identity<SweepAxes>, auto&& f) {
  using S = SweepAxes;
  f("sku", kNonDefault, &S::sku);
  f("tensor_parallel", kNonDefault, &S::tensor_parallel);
  f("pipeline_parallel", kNonDefault, &S::pipeline_parallel);
  f("num_replicas", kNonDefault, &S::num_replicas);
  f("scheduler", kNonDefault, &S::scheduler);
  f("max_batch_size", kNonDefault, &S::max_batch_size);
  f("chunk_size", kNonDefault, &S::chunk_size);
  f("qps", kNonDefault, &S::qps);
}

void fields(std::type_identity<ExperimentSpec>, auto&& f) {
  using S = ExperimentSpec;
  f("name", kAlways, &S::name);
  f("mode", kAlways, &S::mode);
  f("model", kAlways, &S::model);
  f("deployment", kAlways, &S::deployment);
  f("workload", kAlways, &S::workload);
  f("slo", kNonDefault, &S::slo);
  f("seed", kNonDefault, &S::seed);
  f("tp_degrees", kNonDefault, &S::tp_degrees);
  f("num_threads", kNonDefault, &S::num_threads);
  f("search", kNonDefault, &S::search);
  f("elastic", kNonDefault, &S::elastic);
  f("obs", kNonDefault, &S::obs);
  f("sweep", kNonDefault, &S::sweep);
}

// ---------------------------------------------------------- scalar reads

/// Strict object reader: every member must match a known field; unknown
/// keys fail with a did-you-mean so a typo in a spec file is caught at
/// parse time instead of silently keeping the default.
class FieldReader {
 public:
  FieldReader(const JsonValue& obj, std::string context)
      : obj_(obj), context_(std::move(context)) {
    VIDUR_CHECK_MSG(obj.is_object(),
                    "spec section '" << context_ << "' must be a JSON object");
  }

  /// Register a handler for `key`; runs it when the member is present.
  template <typename Fn>
  FieldReader& field(const char* key, Fn&& fn) {
    known_.push_back(key);
    if (const JsonValue* v = obj_.find(key)) fn(*v);
    return *this;
  }

  /// Call after the last field(): rejects unconsumed keys.
  void finish() const {
    for (const auto& [key, value] : obj_.members()) {
      if (std::find(known_.begin(), known_.end(), key) == known_.end())
        fail_unknown_name("'" + context_ + "' field", key, known_);
    }
  }

 private:
  const JsonValue& obj_;
  std::string context_;
  std::vector<std::string> known_;
};

std::int64_t to_int64(const JsonValue& v, const char* what) {
  VIDUR_CHECK_MSG(v.is_int(), "spec field '" << what
                                             << "' must be an integer");
  return v.as_int();
}

int to_int(const JsonValue& v, const char* what) {
  const std::int64_t raw = to_int64(v, what);
  VIDUR_CHECK_MSG(raw >= std::numeric_limits<int>::min() &&
                      raw <= std::numeric_limits<int>::max(),
                  "spec field '" << what << "' value " << raw
                                 << " is out of the 32-bit integer range");
  return static_cast<int>(raw);
}

double to_double(const JsonValue& v, const char* what) {
  VIDUR_CHECK_MSG(v.is_number(), "spec field '" << what
                                                << "' must be a number");
  return v.as_double();
}

bool to_bool(const JsonValue& v, const char* what) {
  VIDUR_CHECK_MSG(v.is_bool(), "spec field '" << what
                                              << "' must be a boolean");
  return v.as_bool();
}

std::string to_str(const JsonValue& v, const char* what) {
  VIDUR_CHECK_MSG(v.is_string(), "spec field '" << what
                                                << "' must be a string");
  return v.as_string();
}

// ---------------------------------------------------------- typed codecs

// Enums travel by their stable names: {name-of, from-name}.
auto names_of(ExperimentMode) {
  return std::pair{&experiment_mode_name, &experiment_mode_from_name};
}
auto names_of(SchedulerKind) {
  return std::pair{&scheduler_name, &scheduler_from_name};
}
auto names_of(GlobalSchedulerKind) {
  return std::pair{&global_scheduler_name, &global_scheduler_from_name};
}
auto names_of(AutoscalerKind) {
  return std::pair{&autoscaler_name, &autoscaler_from_name};
}
auto names_of(ScaleSignal) {
  return std::pair{&scale_signal_name, &scale_signal_from_name};
}
auto names_of(ArrivalKind) {
  return std::pair{&arrival_kind_name, &arrival_kind_from_name};
}
auto names_of(PoolRole) {
  return std::pair{&pool_role_name, &pool_role_from_name};
}

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

/// The sections coded by hand. `path` is the value's dotted spec path, the
/// context its own parse errors cite.
JsonValue encode(const RateProfile& p);
JsonValue encode(const DeploymentConfig& c);
JsonValue encode(const WorkloadSpec& w);
void decode(const JsonValue& v, const char* key, const std::string& path,
            RateProfile& out);
void decode(const JsonValue& v, const char* key, const std::string& path,
            PoolRole& out);
void decode(const JsonValue& v, const char* key, const std::string& path,
            std::vector<PoolSpec>& out);
void decode(const JsonValue& v, const char* key, const std::string& path,
            std::vector<FaultProfile>& out);
void decode(const JsonValue& v, const char* key, const std::string& path,
            DeploymentConfig& out);
void decode(const JsonValue& v, const char* key, const std::string& path,
            WorkloadSpec& out);

template <typename S>
JsonValue write_fields(const S& obj);
template <typename S>
S read_section(const JsonValue& j, const std::string& context);

template <typename T>
JsonValue encode(const T& value) {
  if constexpr (std::is_enum_v<T>) {
    return names_of(value).first(value);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    // Seeds >= 2^63 are written as negative int64 and read back bit for bit.
    return static_cast<std::int64_t>(value);
  } else if constexpr (kIsVector<T>) {
    JsonValue arr = JsonValue::array();
    for (const auto& item : value) arr.push(encode(item));
    return arr;
  } else if constexpr (std::is_class_v<T> &&
                       !std::is_same_v<T, std::string>) {
    return write_fields(value);
  } else {
    return JsonValue(value);
  }
}

template <typename T>
void decode(const JsonValue& v, const char* key, const std::string& path,
            T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = to_bool(v, key);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    out = static_cast<std::uint64_t>(to_int64(v, key));
  } else if constexpr (std::is_integral_v<T>) {
    out = to_int(v, key);
  } else if constexpr (std::is_floating_point_v<T>) {
    out = to_double(v, key);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = to_str(v, key);
  } else if constexpr (std::is_enum_v<T>) {
    out = names_of(out).second(to_str(v, key));
  } else if constexpr (kIsVector<T>) {
    VIDUR_CHECK_MSG(v.is_array(), "spec field '" << key
                                                 << "' must be an array");
    out.clear();
    for (const JsonValue& item : v.items())
      decode(item, key, path + "[]", out.emplace_back());
  } else {
    out = read_section<T>(v, path);
  }
}

/// The dotted spec path of `key` inside `parent` ("" is the spec root).
std::string child_path(const std::string& parent, const char* key) {
  return parent.empty() ? key : parent + "." + key;
}

template <typename S>
JsonValue write_fields(const S& obj) {
  const S dflt{};
  JsonValue j = JsonValue::object();
  fields(std::type_identity<S>{},
         [&](const char* key, Emit emit, auto... member) {
           const auto& value = (obj .* ... .* member);
           if (emit == kAlways || !(value == (dflt .* ... .* member)))
             j.set(key, encode(value));
         });
  return j;
}

/// Registers every field of `obj` on `r`; `path` is obj's spec path.
template <typename S>
void read_fields(FieldReader& r, S& obj, const std::string& path) {
  fields(std::type_identity<S>{},
         [&](const char* key, Emit, auto... member) {
           r.field(key, [&](const JsonValue& v) {
             decode(v, key, child_path(path, key), (obj .* ... .* member));
           });
         });
}

/// Parses a section into a default-constructed S (absent keys keep the
/// struct defaults); `context` is the section's spec path.
template <typename S>
S read_section(const JsonValue& j, const std::string& context) {
  S obj{};
  FieldReader r(j, context);
  read_fields(r, obj, context);
  r.finish();
  return obj;
}

// ------------------------------------------------------ irregular sections

/// A RateProfile's parameter names depend on its kind; listed in the
/// order of the kind's factory arguments.
std::vector<const char*> profile_params(RateProfileKind kind) {
  switch (kind) {
    case RateProfileKind::kConstant:
    case RateProfileKind::kPiecewise:
      return {};
    case RateProfileKind::kDiurnal:
      return {"period_s", "low", "high"};
    case RateProfileKind::kRamp:
      return {"start", "end", "duration_s"};
    case RateProfileKind::kSpike:
      return {"baseline", "spike", "start_s", "duration_s"};
  }
  throw Error("unhandled RateProfileKind");
}

JsonValue encode(const RateProfile& p) {
  JsonValue j = JsonValue::object();
  j.set("kind", rate_profile_kind_name(p.kind()));
  std::vector<double> args;  // factory-argument order
  switch (p.kind()) {
    case RateProfileKind::kConstant:
      break;
    case RateProfileKind::kDiurnal:
      args = {p.raw_t0(), p.raw_a(), p.raw_b()};
      break;
    case RateProfileKind::kRamp:
      args = {p.raw_a(), p.raw_b(), p.raw_t0()};
      break;
    case RateProfileKind::kSpike:
      args = {p.raw_a(), p.raw_b(), p.raw_t0(), p.raw_t1()};
      break;
    case RateProfileKind::kPiecewise: {
      JsonValue steps = JsonValue::array();
      for (const RateStep& s : p.steps()) {
        JsonValue step = JsonValue::array();
        step.push(s.start_time);
        step.push(s.factor);
        steps.push(std::move(step));
      }
      j.set("steps", std::move(steps));
      break;
    }
  }
  const std::vector<const char*> names = profile_params(p.kind());
  for (std::size_t i = 0; i < args.size(); ++i) j.set(names[i], args[i]);
  return j;
}

void decode(const JsonValue& v, const char*, const std::string&,
            RateProfile& out) {
  VIDUR_CHECK_MSG(v.is_object(),
                  "spec section 'profile' must be a JSON object");
  // Two passes: the kind decides which parameter names are legal.
  std::string kind_name = "constant";
  if (const JsonValue* k = v.find("kind")) kind_name = to_str(*k, "kind");
  const RateProfileKind kind = rate_profile_kind_from_name(kind_name);
  const std::vector<const char*> names = profile_params(kind);
  std::vector<double> a(names.size(), 0.0);
  std::vector<RateStep> steps;
  FieldReader r(v, "profile");
  r.field("kind", [](const JsonValue&) {});
  for (std::size_t i = 0; i < names.size(); ++i)
    r.field(names[i],
            [&, i](const JsonValue& x) { a[i] = to_double(x, names[i]); });
  if (kind == RateProfileKind::kPiecewise) {
    r.field("steps", [&](const JsonValue& x) {
      for (const JsonValue& item : x.items()) {
        VIDUR_CHECK_MSG(item.is_array() && item.size() == 2,
                        "profile step must be a [start_s, factor] pair");
        steps.push_back(RateStep{to_double(item.items()[0], "step start"),
                                 to_double(item.items()[1], "step factor")});
      }
    });
  }
  r.finish();
  switch (kind) {
    case RateProfileKind::kConstant:
      out = RateProfile::constant();
      return;
    case RateProfileKind::kDiurnal:
      out = RateProfile::diurnal(a[0], a[1], a[2]);
      return;
    case RateProfileKind::kRamp:
      out = RateProfile::ramp(a[0], a[1], a[2]);
      return;
    case RateProfileKind::kSpike:
      out = RateProfile::spike(a[0], a[1], a[2], a[3]);
      return;
    case RateProfileKind::kPiecewise:
      out = RateProfile::piecewise(std::move(steps));
      return;
  }
  throw Error("unhandled RateProfileKind");
}

void decode(const JsonValue& v, const char* key, const std::string&,
            PoolRole& out) {
  const std::string role = to_str(v, key);
  // check_name carries the did-you-mean for typo'd roles.
  check_name("pool role", role, pool_role_names());
  out = pool_role_from_name(role);
}

/// Pools and fault profiles cite the element by its `name_key` in errors,
/// e.g. "deployment.pools['a']".
template <typename T>
std::vector<T> read_named_list(const JsonValue& v, const std::string& path,
                               const char* noun, const char* name_key) {
  VIDUR_CHECK_MSG(v.is_array(), "spec field '" << path << "' must be an "
                                               << "array of " << noun
                                               << " objects");
  std::vector<T> out;
  for (const JsonValue& item : v.items()) {
    std::string context = path + "[]";
    if (const JsonValue* n = item.find(name_key);
        n != nullptr && n->is_string())
      context = path + "['" + n->as_string() + "']";
    out.push_back(read_section<T>(item, context));
  }
  return out;
}

void decode(const JsonValue& v, const char*, const std::string& path,
            std::vector<PoolSpec>& out) {
  out = read_named_list<PoolSpec>(v, path, "pool", "name");
}

void decode(const JsonValue& v, const char*, const std::string& path,
            std::vector<FaultProfile>& out) {
  out = read_named_list<FaultProfile>(v, path, "profile", "pool");
}

JsonValue encode(const DeploymentConfig& c) {
  JsonValue j = write_fields(c);
  if (!c.pools.empty()) {
    // The pool list supersedes the homogeneous SKU/parallelism/autoscale
    // fields; emitting both would invite divergence in hand-edited specs.
    JsonValue pooled = JsonValue::object();
    pooled.set("pools", j.at("pools"));
    for (const auto& [key, value] : j.members()) {
      if (key != "sku" && key != "tensor_parallel" &&
          key != "pipeline_parallel" && key != "num_replicas" &&
          key != "autoscale" && key != "pools")
        pooled.set(key, value);
    }
    j = std::move(pooled);
  }
  // The shard thread count nests under `execution`, default-omitted like
  // every other knob so committed specs stay exact serializer fixed points.
  if (c.threads != DeploymentConfig{}.threads) {
    JsonValue e = JsonValue::object();
    e.set("threads", c.threads);
    j.set("execution", std::move(e));
  }
  return j;
}

void decode(const JsonValue& v, const char*, const std::string& path,
            DeploymentConfig& out) {
  DeploymentConfig c;
  FieldReader r(v, path);
  read_fields(r, c, path);
  r.field("execution", [&](const JsonValue& e) {
    FieldReader er(e, path + ".execution");
    er.field("threads", [&](const JsonValue& t) {
      c.threads = to_int(t, "threads");
    });
    er.finish();
  });
  r.finish();
  out = std::move(c);
}

JsonValue encode(const WorkloadSpec& w) {
  if (w.synthetic()) return write_fields(w);
  JsonValue j = JsonValue::object();
  j.set("scenario", w.scenario);
  if (w.num_requests != 0) j.set("num_requests", w.num_requests);
  return j;
}

void decode(const JsonValue& v, const char*, const std::string& path,
            WorkloadSpec& out) {
  out = read_section<WorkloadSpec>(v, path);
  // A named scenario leaves num_requests at "keep the scenario default"
  // unless the spec overrides it explicitly.
  if (v.find("scenario") != nullptr && v.find("num_requests") == nullptr)
    out.num_requests = 0;
}

}  // namespace

JsonValue ExperimentSpec::to_json() const { return write_fields(*this); }

std::string ExperimentSpec::to_json_string() const { return to_json().dump(); }

ExperimentSpec ExperimentSpec::from_json(const JsonValue& json) {
  ExperimentSpec spec;
  FieldReader r(json, "experiment");
  read_fields(r, spec, "");
  r.finish();
  return spec;
}

ExperimentSpec ExperimentSpec::from_json_string(const std::string& text) {
  return from_json(JsonValue::parse(text));
}

}  // namespace vidur
