// Byte-pinned coverage of the ExperimentSpec JSON codec: serialization
// fixtures under tests/data/spec_codec/ (the default spec, a homogeneous
// spec and a pool spec with every field of every section set to a
// non-default value, and one spec per RateProfile kind) must be produced
// byte for byte by to_json_string() and parse back to the identical spec;
// and every spec section rejects a misspelled key with the same did-you-mean
// message and an ill-typed value with the same "spec field" message.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "api/experiment.h"
#include "common/check.h"

namespace vidur {
namespace {

std::string read_fixture(const std::string& file) {
  const std::string path =
      std::string(VIDUR_TEST_DATA_DIR) + "/spec_codec/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ------------------------------------------------------------- fixtures

AutoscalerConfig predictive_autoscale(RateProfile profile) {
  AutoscalerConfig c;
  c.kind = AutoscalerKind::kPredictive;
  c.signal = ScaleSignal::kKvPressure;
  c.target_kv_utilization = 0.55;
  c.scale_up_kv_utilization = 0.85;
  c.scale_down_kv_utilization = 0.25;
  c.min_replicas = 2;
  c.initial_replicas = 3;
  c.provision_delay = 12.5;
  c.warmup_delay = 7.5;
  c.decision_interval = 2.5;
  c.scale_up_cooldown = 1.5;
  c.scale_down_cooldown = 45.0;
  c.max_scale_step = 2;
  c.target_load_per_replica = 10.0;
  c.scale_up_load = 18.0;
  c.scale_down_load = 3.0;
  c.profile = std::move(profile);
  c.baseline_qps = 4.5;
  c.replica_capacity_qps = 1.25;
  c.headroom = 0.2;
  c.lookahead = 30.0;
  return c;
}

/// The fleet-wide deployment knobs both the homogeneous and the pool form
/// carry, plus every top-level section except the deployment shape.
ExperimentSpec shared_non_default(const std::string& name) {
  ExperimentSpec spec;
  spec.with_name(name)
      .with_mode(ExperimentMode::kCapacitySearch)
      .with_model("llama2-70b")
      .with_scheduler(SchedulerKind::kSarathi, 96, 1024)
      .with_routing(GlobalSchedulerKind::kLeastOutstanding)
      .with_slo(SloSpec{1.0, 0.1})
      .with_seed(0xdeadbeefcafeULL);
  DeploymentConfig& d = spec.deployment;
  d.scheduler.max_tokens_per_iteration = 8192;
  d.scheduler.watermark_fraction = 0.05;
  d.async_pipeline_comm = true;
  d.disagg.transfer_bandwidth_gbps = 50.0;
  d.disagg.transfer_latency = 1e-3;
  d.prefix_cache.enabled = true;
  d.prefix_cache.capacity_fraction = 0.3;
  d.threads = 4;
  spec.tp_degrees = {1, 2, 4, 8};
  spec.num_threads = 3;

  SearchSpace& s = spec.search;
  s.skus = {"h100"};
  s.tp_degrees = {1, 2};
  s.pp_degrees = {1};
  s.max_total_gpus = 8;
  s.schedulers = {SchedulerKind::kVllm, SchedulerKind::kSarathi};
  s.batch_sizes = {64, 128};
  s.sarathi_chunk_sizes = {256};
  s.max_tokens_per_iteration = 2048;
  s.global_scheduler = GlobalSchedulerKind::kLeastOutstanding;

  spec.elastic = ElasticPlanSpec{0.9, 6, 3};
  spec.obs = ObsSpec{true, 4096, 10.0, true};

  SweepAxes& w = spec.sweep;
  w.sku = {"a100", "h100"};
  w.tensor_parallel = {1, 2};
  w.pipeline_parallel = {1, 2};
  w.num_replicas = {2, 4};
  w.scheduler = {"vllm", "sarathi"};
  w.max_batch_size = {64, 128};
  w.chunk_size = {512, 1024};
  w.qps = {1.0, 2.5};
  return spec;
}

ExperimentSpec homogeneous_spec() {
  ExperimentSpec spec = shared_non_default("codec-homogeneous");
  spec.with_sku("h100").with_parallelism(4, 2, 6).with_autoscale(
      predictive_autoscale(RateProfile::diurnal(600.0, 0.5, 1.5)));
  spec.deployment.disagg.num_prefill_replicas = 2;
  spec.workload.trace = "arxiv4k";
  spec.workload.arrival = ArrivalSpec{ArrivalKind::kGamma, 3.25, 4.0};
  spec.workload.num_requests = 333;
  return spec;
}

ExperimentSpec pool_spec() {
  ExperimentSpec spec = shared_non_default("codec-pools");
  spec.with_routing(GlobalSchedulerKind::kCacheAware)
      .with_scenario("flash-crowd-mixed", 120);
  spec.deployment.threads = 2;

  PoolSpec prefill;
  prefill.name = "prefill";
  prefill.sku_name = "h100";
  prefill.role = PoolRole::kPrefill;
  prefill.parallel = ParallelConfig{2, 2, 3};
  prefill.cost_per_gpu_hour = 4.5;
  prefill.capacity_qps = 2.5;
  prefill.autoscale =
      predictive_autoscale(RateProfile::spike(1.0, 3.0, 40.0, 20.0));
  PoolSpec decode;
  decode.name = "decode";
  decode.role = PoolRole::kDecode;
  decode.parallel = ParallelConfig{1, 1, 4};
  decode.capacity_qps = 1.5;
  decode.autoscale.kind = AutoscalerKind::kReactive;
  decode.autoscale.scale_up_load = 25.0;
  PoolSpec spare;
  spare.name = "spare";
  spare.parallel = ParallelConfig{1, 1, 1};
  spec.with_pool(prefill).with_pool(decode).with_pool(spare);

  FaultConfig faults;
  faults.seed = (std::uint64_t{1} << 63) + 5;  // serialized as negative
  FaultProfile crashy;
  crashy.pool = "decode";
  crashy.crash_mtbf_s = 300.0;
  crashy.spot_windows = {SpotWindow{10.0, 60.0, 2, 5.0},
                         SpotWindow{100.0, 30.0, 1, 0.0}};
  crashy.degrade_mtbf_s = 50.0;
  crashy.degrade_factor = 2.5;
  crashy.degrade_duration_s = 20.0;
  FaultProfile slow;
  slow.degrade_mtbf_s = 80.0;
  slow.degrade_factor = 1.5;
  slow.degrade_duration_s = 10.0;
  faults.profiles = {crashy, slow};
  faults.recovery = RecoveryPolicy{5, 0.25, 3.0, 0.2};
  faults.shed = ShedPolicy{2, 1};
  spec.with_faults(faults);
  return spec;
}

ExperimentSpec profile_spec(const std::string& kind, RateProfile profile) {
  ExperimentSpec spec;
  spec.with_name("codec-profile-" + kind);
  spec.deployment.autoscale.kind = AutoscalerKind::kPredictive;
  spec.deployment.autoscale.profile = std::move(profile);
  return spec;
}

struct CodecFixture {
  const char* file;
  ExperimentSpec (*build)();
};

const CodecFixture kFixtures[] = {
    {"default.json", [] { return ExperimentSpec{}; }},
    {"homogeneous.json", homogeneous_spec},
    {"pools.json", pool_spec},
    {"profile-constant.json",
     [] { return profile_spec("constant", RateProfile::constant()); }},
    {"profile-diurnal.json",
     [] {
       return profile_spec("diurnal", RateProfile::diurnal(120.0, 0.25, 2.0));
     }},
    {"profile-ramp.json",
     [] { return profile_spec("ramp", RateProfile::ramp(0.5, 3.0, 90.0)); }},
    {"profile-spike.json",
     [] {
       return profile_spec("spike", RateProfile::spike(1.0, 4.0, 30.0, 15.0));
     }},
    {"profile-piecewise.json",
     [] {
       return profile_spec("piecewise",
                           RateProfile::piecewise({RateStep{0.0, 1.0},
                                                   RateStep{60.0, 2.5},
                                                   RateStep{120.0, 0.5}}));
     }},
};

// gtest prints a parameter without a printer as its raw bytes — here
// pointers, which differ on every run and so rename the ctest entries.
void PrintTo(const CodecFixture& fixture, std::ostream* os) {
  *os << fixture.file;
}

class SpecCodecFixture : public ::testing::TestWithParam<CodecFixture> {};

TEST_P(SpecCodecFixture, SerializesToThePinnedBytes) {
  EXPECT_EQ(GetParam().build().to_json_string(),
            read_fixture(GetParam().file));
}

TEST_P(SpecCodecFixture, ParsesBackToTheSameSpec) {
  EXPECT_EQ(ExperimentSpec::from_json_string(read_fixture(GetParam().file)),
            GetParam().build());
}

std::string fixture_name(const ::testing::TestParamInfo<CodecFixture>& info) {
  std::string name = info.param.file;
  name = name.substr(0, name.find('.'));
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(Fixtures, SpecCodecFixture,
                         ::testing::ValuesIn(kFixtures), fixture_name);

TEST(SpecCodec, ExplicitConstantProfileParsesToTheDefault) {
  const ExperimentSpec spec = ExperimentSpec::from_json_string(
      R"({"name": "codec-profile-constant", "deployment": {"autoscale":
          {"kind": "predictive", "profile": {"kind": "constant"}}}})");
  EXPECT_EQ(spec, kFixtures[3].build());
}

// -------------------------------------------------------- error wording

/// One spec section: a misspelled key and an ill-typed value inside it,
/// with the exact messages they produce.
struct SectionErrors {
  const char* label;
  const char* misspelled;
  const char* unknown_message;  ///< the full message
  const char* ill_typed;
  const char* type_message;  ///< the text after the check's " — "
};

std::string parse_error(const std::string& json) {
  try {
    ExperimentSpec::from_json_string(json);
  } catch (const Error& e) {
    return e.what();
  }
  return "<no error>";
}

/// The detail of a VIDUR_CHECK_MSG failure, without the expression and
/// source location that precede it.
std::string check_detail(const std::string& message) {
  const std::string sep = " \xE2\x80\x94 ";  // " — "
  const std::size_t at = message.find(sep);
  return at == std::string::npos ? message : message.substr(at + sep.size());
}

const SectionErrors kSections[] = {
    {"experiment", R"({"modle": "simulate"})",
     "unknown 'experiment' field 'modle' (did you mean 'mode'?); known: "
     "name, mode, model, deployment, workload, slo, seed, tp_degrees, "
     "num_threads, search, elastic, obs, sweep",
     R"({"num_threads": "x"})", "spec field 'num_threads' must be an integer"},
    {"deployment", R"({"deployment": {"tensor_paralel": 2}})",
     "unknown 'deployment' field 'tensor_paralel' (did you mean "
     "'tensor_parallel'?); known: sku, tensor_parallel, pipeline_parallel, "
     "num_replicas, scheduler, global_scheduler, async_pipeline_comm, "
     "disagg, autoscale, pools, prefix_cache, faults, execution",
     R"({"deployment": {"async_pipeline_comm": 1}})",
     "spec field 'async_pipeline_comm' must be a boolean"},
    {"deployment_scheduler",
     R"({"deployment": {"scheduler": {"chunk_sise": 512}}})",
     "unknown 'deployment.scheduler' field 'chunk_sise' (did you mean "
     "'chunk_size'?); known: kind, max_batch_size, max_tokens_per_iteration, "
     "chunk_size, watermark_fraction",
     R"({"deployment": {"scheduler": {"watermark_fraction": "x"}}})",
     "spec field 'watermark_fraction' must be a number"},
    {"deployment_disagg",
     R"({"deployment": {"disagg": {"num_prefil_replicas": 1}}})",
     "unknown 'deployment.disagg' field 'num_prefil_replicas' (did you mean "
     "'num_prefill_replicas'?); known: num_prefill_replicas, "
     "transfer_bandwidth_gbps, transfer_latency_s",
     R"({"deployment": {"disagg": {"transfer_latency_s": true}}})",
     "spec field 'transfer_latency_s' must be a number"},
    {"deployment_autoscale",
     R"({"deployment": {"autoscale": {"lookahed_s": 1}}})",
     "unknown 'deployment.autoscale' field 'lookahed_s' (did you mean "
     "'lookahead_s'?); known: kind, signal, target_kv_utilization, "
     "scale_up_kv_utilization, scale_down_kv_utilization, min_replicas, "
     "initial_replicas, provision_delay_s, warmup_delay_s, "
     "decision_interval_s, scale_up_cooldown_s, scale_down_cooldown_s, "
     "max_scale_step, target_load_per_replica, scale_up_load, "
     "scale_down_load, profile, baseline_qps, replica_capacity_qps, "
     "headroom, lookahead_s",
     R"({"deployment": {"autoscale": {"max_scale_step": 1.5}}})",
     "spec field 'max_scale_step' must be an integer"},
    {"deployment_pool",
     R"({"deployment": {"pools": [{"name": "a", "num_replica": 1}]}})",
     "unknown 'deployment.pools['a']' field 'num_replica' (did you mean "
     "'num_replicas'?); known: name, sku, role, tensor_parallel, "
     "pipeline_parallel, num_replicas, cost_per_gpu_hour, capacity_qps, "
     "autoscale",
     R"({"deployment": {"pools": [{"name": "a", "cost_per_gpu_hour": "x"}]}})",
     "spec field 'cost_per_gpu_hour' must be a number"},
    {"deployment_pool_autoscale",
     R"({"deployment": {"pools": [{"name": "a", "autoscale":
         {"headrom": 0.1}}]}})",
     "unknown 'deployment.pools['a'].autoscale' field 'headrom' (did you "
     "mean 'headroom'?); known: kind, signal, target_kv_utilization, "
     "scale_up_kv_utilization, scale_down_kv_utilization, min_replicas, "
     "initial_replicas, provision_delay_s, warmup_delay_s, "
     "decision_interval_s, scale_up_cooldown_s, scale_down_cooldown_s, "
     "max_scale_step, target_load_per_replica, scale_up_load, "
     "scale_down_load, profile, baseline_qps, replica_capacity_qps, "
     "headroom, lookahead_s",
     R"({"deployment": {"pools": [{"name": "a", "autoscale": {"kind": 3}}]}})",
     "spec field 'kind' must be a string"},
    {"deployment_prefix_cache",
     R"({"deployment": {"prefix_cache": {"enabeld": true}}})",
     "unknown 'deployment.prefix_cache' field 'enabeld' (did you mean "
     "'enabled'?); known: enabled, capacity_fraction",
     R"({"deployment": {"prefix_cache": {"enabled": "yes"}}})",
     "spec field 'enabled' must be a boolean"},
    {"deployment_faults", R"({"deployment": {"faults": {"profile": []}}})",
     "unknown 'deployment.faults' field 'profile' (did you mean "
     "'profiles'?); known: seed, profiles, recovery, shed",
     R"({"deployment": {"faults": {"profiles": {}}}})",
     "spec field 'deployment.faults.profiles' must be an array of profile "
     "objects"},
    {"deployment_faults_named_profile",
     R"({"deployment": {"faults": {"profiles": [{"pool": "p",
         "crash_mtbf": 1}]}}})",
     "unknown 'deployment.faults.profiles['p']' field 'crash_mtbf' (did you "
     "mean 'crash_mtbf_s'?); known: pool, crash_mtbf_s, spot_windows, "
     "degrade_mtbf_s, degrade_factor, degrade_duration_s",
     R"({"deployment": {"faults": {"profiles": [{"pool": "p",
         "degrade_factor": "x"}]}}})",
     "spec field 'degrade_factor' must be a number"},
    {"deployment_faults_unnamed_profile",
     R"({"deployment": {"faults": {"profiles": [{"crash_mtbf": 1}]}}})",
     "unknown 'deployment.faults.profiles[]' field 'crash_mtbf' (did you "
     "mean 'crash_mtbf_s'?); known: pool, crash_mtbf_s, spot_windows, "
     "degrade_mtbf_s, degrade_factor, degrade_duration_s",
     R"({"deployment": {"faults": {"profiles": [{"pool": 3}]}}})",
     "spec field 'pool' must be a string"},
    {"deployment_faults_spot_window",
     R"({"deployment": {"faults": {"profiles": [{"pool": "p",
         "spot_windows": [{"notice": 1}]}]}}})",
     "unknown 'deployment.faults.profiles['p'].spot_windows[]' field "
     "'notice' (did you mean 'notice_s'?); known: start_s, duration_s, "
     "replicas, notice_s",
     R"({"deployment": {"faults": {"profiles": [{"pool": "p",
         "spot_windows": [{"replicas": 1.5}]}]}}})",
     "spec field 'replicas' must be an integer"},
    {"deployment_faults_recovery",
     R"({"deployment": {"faults": {"recovery": {"max_atempts": 2}}}})",
     "unknown 'deployment.faults.recovery' field 'max_atempts' (did you "
     "mean 'max_attempts'?); known: max_attempts, backoff_base_s, "
     "backoff_multiplier, jitter",
     R"({"deployment": {"faults": {"recovery": {"jitter": "x"}}}})",
     "spec field 'jitter' must be a number"},
    {"deployment_faults_shed",
     R"({"deployment": {"faults": {"shed": {"min_active_replica": 2}}}})",
     "unknown 'deployment.faults.shed' field 'min_active_replica' (did you "
     "mean 'min_active_replicas'?); known: min_active_replicas, "
     "max_shed_priority",
     R"({"deployment": {"faults": {"shed": {"max_shed_priority": 0.5}}}})",
     "spec field 'max_shed_priority' must be an integer"},
    {"deployment_execution",
     R"({"deployment": {"execution": {"thread": 2}}})",
     "unknown 'deployment.execution' field 'thread' (did you mean "
     "'threads'?); known: threads",
     R"({"deployment": {"execution": {"threads": "2"}}})",
     "spec field 'threads' must be an integer"},
    {"workload", R"({"workload": {"num_request": 10}})",
     "unknown 'workload' field 'num_request' (did you mean "
     "'num_requests'?); known: scenario, trace, arrival, num_requests",
     R"({"workload": {"scenario": 1}})", "spec field 'scenario' must be a string"},
    {"workload_arrival", R"({"workload": {"arrival": {"qsp": 1}}})",
     "unknown 'workload.arrival' field 'qsp' (did you mean 'qps'?); known: "
     "kind, qps, cv",
     R"({"workload": {"arrival": {"cv": "x"}}})",
     "spec field 'cv' must be a number"},
    {"slo", R"({"slo": {"ttft_target": 1}})",
     "unknown 'slo' field 'ttft_target' (did you mean 'ttft_target_s'?); "
     "known: ttft_target_s, tbt_target_s",
     R"({"slo": {"tbt_target_s": "x"}})",
     "spec field 'tbt_target_s' must be a number"},
    {"search", R"({"search": {"skuss": ["a100"]}})",
     "unknown 'search' field 'skuss' (did you mean 'skus'?); known: skus, "
     "tp_degrees, pp_degrees, max_total_gpus, schedulers, batch_sizes, "
     "sarathi_chunk_sizes, max_tokens_per_iteration, global_scheduler",
     R"({"search": {"tp_degrees": [1, "2"]}})",
     "spec field 'tp_degrees' must be an integer"},
    {"elastic", R"({"elastic": {"max_replica": 4}})",
     "unknown 'elastic' field 'max_replica' (did you mean "
     "'max_replicas'?); known: slo_target, max_replicas, burst_slots",
     R"({"elastic": {"slo_target": "x"}})",
     "spec field 'slo_target' must be a number"},
    {"obs", R"({"obs": {"trace_capacty": 4}})",
     "unknown 'obs' field 'trace_capacty' (did you mean 'trace_capacity'?); "
     "known: trace, trace_capacity, rolling_window_s, analyze",
     R"({"obs": {"analyze": 1}})", "spec field 'analyze' must be a boolean"},
    {"sweep", R"({"sweep": {"qpss": [1.0]}})",
     "unknown 'sweep' field 'qpss' (did you mean 'qps'?); known: sku, "
     "tensor_parallel, pipeline_parallel, num_replicas, scheduler, "
     "max_batch_size, chunk_size, qps",
     R"({"sweep": {"qps": ["x"]}})", "spec field 'qps' must be a number"},
    {"profile",
     R"({"deployment": {"autoscale": {"profile": {"kind": "diurnal",
         "perod_s": 1}}}})",
     "unknown 'profile' field 'perod_s' (did you mean 'period_s'?); known: "
     "kind, period_s, low, high",
     R"({"deployment": {"autoscale": {"profile": {"kind": "ramp",
         "start": "x"}}}})",
     "spec field 'start' must be a number"},
};

void PrintTo(const SectionErrors& section, std::ostream* os) {
  *os << section.label;
}

class SpecSectionErrors : public ::testing::TestWithParam<SectionErrors> {};

TEST_P(SpecSectionErrors, MisspelledKeyGetsDidYouMean) {
  EXPECT_EQ(parse_error(GetParam().misspelled), GetParam().unknown_message);
}

TEST_P(SpecSectionErrors, IllTypedValueNamesTheField) {
  EXPECT_EQ(check_detail(parse_error(GetParam().ill_typed)),
            GetParam().type_message);
}

INSTANTIATE_TEST_SUITE_P(
    Sections, SpecSectionErrors, ::testing::ValuesIn(kSections),
    [](const ::testing::TestParamInfo<SectionErrors>& info) {
      return std::string(info.param.label);
    });

// ----------------------------------------------------------------- seeds

TEST(SpecCodec, IllTypedSeedsNameTheField) {
  EXPECT_EQ(check_detail(parse_error(R"({"seed": 1.5})")),
            "spec field 'seed' must be an integer");
  EXPECT_EQ(check_detail(
                parse_error(R"({"deployment": {"faults": {"seed": "x"}}})")),
            "spec field 'seed' must be an integer");
}

TEST(SpecCodec, SeedsAtOrAbove2To63RoundTripAsNegativeIntegers) {
  const std::uint64_t seed = (std::uint64_t{1} << 63) + 5;
  ExperimentSpec spec;
  spec.with_seed(seed);
  spec.deployment.faults.seed = seed;
  const JsonValue json = spec.to_json();
  EXPECT_EQ(json.at("seed").as_int(), -9223372036854775803);
  EXPECT_EQ(json.at("deployment").at("faults").at("seed").as_int(),
            -9223372036854775803);
  const ExperimentSpec parsed =
      ExperimentSpec::from_json_string(spec.to_json_string());
  EXPECT_EQ(parsed.seed, seed);
  EXPECT_EQ(parsed.deployment.faults.seed, seed);
  EXPECT_EQ(parsed, spec);
}

}  // namespace
}  // namespace vidur
