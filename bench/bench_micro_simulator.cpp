// Microbenchmarks of the simulator machinery itself: end-to-end simulation
// throughput (events and requests per second of wall time), estimator
// prediction latency with and without the lookup cache, stage-timing memo
// effectiveness, and capacity-search cost. These are what make the paper's
// "42K GPU-hours in one CPU-hour" economics work.
//
// Writes BENCH_sim_core.json via bench_util so CI tracks the core's perf
// trajectory next to the fidelity benches. Self-timed (std::chrono) rather
// than Google-Benchmark-based so the harness builds and runs everywhere CI
// does.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_util.h"
#include "common/check.h"
#include "obs/analysis.h"
#include "obs/trace.h"
#include "search/capacity.h"
#include "workload/trace_generator.h"

namespace {

using namespace vidur;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

VidurSession& shared_session(const std::string& model) {
  static std::map<std::string, std::unique_ptr<VidurSession>> sessions;
  auto it = sessions.find(model);
  if (it == sessions.end()) {
    it = sessions
             .emplace(model,
                      std::make_unique<VidurSession>(model_by_name(model)))
             .first;
    it->second->onboard("a100");
  }
  return *it->second;
}

DeploymentConfig config_for(const std::string& model, SchedulerKind kind) {
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{model == "llama2-7b" ? 1 : 4, 1, 1};
  config.scheduler.kind = kind;
  config.scheduler.max_batch_size = 128;
  return config;
}

/// One BM_SimulateChat case: repeated end-to-end simulations of `n`
/// chat requests, reporting requests/s and events/s of wall time.
bench::Json simulate_chat_case(const std::string& model, SchedulerKind kind,
                               int n) {
  VidurSession& session = shared_session(model);
  const DeploymentConfig config = config_for(model, kind);
  const Trace trace =
      generate_trace(trace_by_name("chat1m"),
                     ArrivalSpec{ArrivalKind::kPoisson, 1.0, 0}, n, 1);

  // Warm the estimator cache and the allocator once, untimed.
  SimulationMetrics metrics = session.simulate(config, trace);

  const int reps = bench::scaled(40, 3);
  std::uint64_t events = 0;
  const double start = now_seconds();
  for (int i = 0; i < reps; ++i) {
    metrics = session.simulate(config, trace);
    events += metrics.num_sim_events;
  }
  const double elapsed = now_seconds() - start;

  bench::Json j = bench::Json::object();
  j.set("num_requests", static_cast<std::int64_t>(n));
  j.set("reps", static_cast<std::int64_t>(reps));
  j.set("sim_wall_ms", elapsed / reps * 1e3);
  j.set("requests_per_sec", static_cast<double>(n) * reps / elapsed);
  j.set("events_per_sec", static_cast<double>(events) / elapsed);
  j.set("events_per_sim", static_cast<double>(events) / reps);
  std::cout << "BM_SimulateChat/" << model << "/" << scheduler_name(kind)
            << ": "
            << static_cast<long>(static_cast<double>(n) * reps / elapsed)
            << " requests/s, "
            << static_cast<long>(static_cast<double>(events) / elapsed)
            << " events/s\n";
  return j;
}

/// Observability overhead: the same chat workload with a TraceRecorder
/// attached, so the BENCH trajectory shows what `--trace` costs (tracing
/// off is covered by simulate_chat_case — its hot path must stay within
/// noise of the committed baseline).
bench::Json traced_chat_case(const std::string& model, SchedulerKind kind,
                             int n) {
  VidurSession& session = shared_session(model);
  const DeploymentConfig config = config_for(model, kind);
  const Trace trace =
      generate_trace(trace_by_name("chat1m"),
                     ArrivalSpec{ArrivalKind::kPoisson, 1.0, 0}, n, 1);

  TraceRecorder recorder;
  SimObs obs;
  obs.trace = &recorder;
  session.simulate(config, trace, {}, obs);  // warm, untimed

  const int reps = bench::scaled(40, 3);
  std::size_t trace_records = 0;
  const double start = now_seconds();
  for (int i = 0; i < reps; ++i) {
    recorder.clear();
    session.simulate(config, trace, {}, obs);
    trace_records += recorder.records().size();
  }
  const double elapsed = now_seconds() - start;

  bench::Json j = bench::Json::object();
  j.set("num_requests", static_cast<std::int64_t>(n));
  j.set("reps", static_cast<std::int64_t>(reps));
  j.set("sim_wall_ms", elapsed / reps * 1e3);
  j.set("requests_per_sec", static_cast<double>(n) * reps / elapsed);
  j.set("trace_records_per_sim",
        static_cast<double>(trace_records) / reps);
  std::cout << "BM_SimulateChatTraced/" << model << "/"
            << scheduler_name(kind) << ": "
            << static_cast<long>(static_cast<double>(n) * reps / elapsed)
            << " requests/s, " << trace_records / reps
            << " trace records/sim\n";
  return j;
}

/// Post-run analytics cost (`vidur analyze` / obs.analyze): the engine's
/// wall time per record stream and per record. This is off the simulation
/// hot path by construction — the case exists to keep the post-processing
/// overhead honest as the analyzer grows.
bench::Json analyze_trace_case(const std::string& model, int n) {
  VidurSession& session = shared_session(model);
  const DeploymentConfig config =
      config_for(model, SchedulerKind::kSarathi);
  const Trace trace =
      generate_trace(trace_by_name("chat1m"),
                     ArrivalSpec{ArrivalKind::kPoisson, 1.0, 0}, n, 1);

  TraceRecorder recorder;
  SimObs obs;
  obs.trace = &recorder;
  session.simulate(config, trace, {}, obs);
  const std::vector<TraceRecord> records = recorder.records();

  AnalysisOptions options;
  options.ttft_target = 2.0;
  options.tbt_target = 0.2;
  AnalysisReport report = analyze_trace(records, options);  // warm, untimed

  const int reps = bench::scaled(40, 3);
  const double start = now_seconds();
  for (int i = 0; i < reps; ++i) report = analyze_trace(records, options);
  const double elapsed = now_seconds() - start;
  const double render_start = now_seconds();
  const std::string rendered = analysis_json(report).dump();
  const double render_ms = (now_seconds() - render_start) * 1e3;

  bench::Json j = bench::Json::object();
  j.set("num_records", static_cast<std::int64_t>(records.size()));
  j.set("reps", static_cast<std::int64_t>(reps));
  j.set("analyze_wall_ms", elapsed / reps * 1e3);
  j.set("records_per_sec",
        static_cast<double>(records.size()) * reps / elapsed);
  j.set("json_render_ms", render_ms);
  j.set("json_bytes", static_cast<std::int64_t>(rendered.size()));
  std::cout << "BM_AnalyzeTrace/" << model << ": "
            << elapsed / reps * 1e3 << " ms/report over " << records.size()
            << " records ("
            << static_cast<long>(static_cast<double>(records.size()) * reps /
                                 elapsed)
            << " records/s)\n";
  return j;
}

bench::Json estimator_case() {
  VidurSession& session = shared_session("llama2-7b");
  const RuntimeEstimator& est = session.estimator("a100");
  OpInput in;
  in.tokens = 512;

  // Snapshot before the latency loops: these counters reflect the
  // simulate-chat workload above, not the all-hit measurement loop below.
  const std::size_t workload_hits = est.cache_hits();
  const std::size_t workload_misses = est.cache_misses();

  const int cached_iters = bench::scaled(2000000, 100000);
  double sink = 0.0;
  double start = now_seconds();
  for (int i = 0; i < cached_iters; ++i)
    sink += est.predict(OpType::kMlpGateUpProj, 1, in);
  const double cached_ns = (now_seconds() - start) / cached_iters * 1e9;

  const int uncached_iters = bench::scaled(20000, 2000);
  start = now_seconds();
  for (int i = 0; i < uncached_iters; ++i)
    sink += est.predict_uncached(OpType::kMlpGateUpProj, 1, in);
  const double uncached_ns = (now_seconds() - start) / uncached_iters * 1e9;

  const double hit_rate =
      workload_hits + workload_misses > 0
          ? static_cast<double>(workload_hits) /
                static_cast<double>(workload_hits + workload_misses)
          : 0.0;

  bench::Json j = bench::Json::object();
  j.set("cached_ns_per_pred", cached_ns);
  j.set("uncached_ns_per_pred", uncached_ns);
  j.set("cache_hit_rate", hit_rate);
  j.set("cache_entries", static_cast<std::int64_t>(est.cache_size()));
  j.set("checksum", sink);  // keeps the loops from being optimized out
  std::cout << "BM_EstimatorPredict: cached " << cached_ns << " ns, uncached "
            << uncached_ns << " ns, hit rate " << hit_rate << "\n";
  return j;
}

bench::Json capacity_search_case() {
  VidurSession& session = shared_session("llama2-7b");
  const DeploymentConfig config =
      config_for("llama2-7b", SchedulerKind::kSarathi);
  CapacitySearchOptions options;
  options.num_requests = bench::scaled(150, 50);
  options.binary_search_iters = 4;
  const double start = now_seconds();
  const CapacityResult cap =
      find_capacity(session, config, trace_by_name("chat1m"), options);
  const double elapsed = now_seconds() - start;
  bench::Json j = bench::Json::object();
  j.set("wall_ms", elapsed * 1e3);
  j.set("capacity_qps", cap.capacity_qps);
  j.set("probes", static_cast<std::int64_t>(cap.num_probes));
  std::cout << "BM_CapacitySearch: " << elapsed * 1e3 << " ms, "
            << cap.num_probes << " probes\n";
  return j;
}

/// Opt-in perf gate: with VIDUR_BENCH_BASELINE pointing at a committed
/// BENCH_sim_core.json, every untraced chat case's requests_per_sec must
/// stay within VIDUR_BENCH_TOL (default 3%) of the baseline's. Returns the
/// number of regressions; wall-clock noise makes this a CI/dev knob, not a
/// default.
int check_against_baseline(const bench::Json& chat) {
  const char* baseline_path = std::getenv("VIDUR_BENCH_BASELINE");
  if (baseline_path == nullptr) return 0;
  const char* tol_env = std::getenv("VIDUR_BENCH_TOL");
  const double tol = tol_env != nullptr ? std::atof(tol_env) : 0.03;

  std::ifstream in(baseline_path);
  VIDUR_CHECK_MSG(in.good(), "cannot open baseline '" << baseline_path << "'");
  std::ostringstream text;
  text << in.rdbuf();
  const bench::Json baseline = bench::Json::parse(text.str());
  const bench::Json* results = baseline.find("results");
  const bench::Json* base_chat =
      results != nullptr ? results->find("BM_SimulateChat") : nullptr;
  VIDUR_CHECK_MSG(base_chat != nullptr,
                  "baseline '" << baseline_path
                               << "' has no results.BM_SimulateChat");

  int regressions = 0;
  for (const auto& [key, current] : chat.members()) {
    const bench::Json* base_case = base_chat->find(key);
    if (base_case == nullptr) continue;  // new case, nothing to compare
    const double base_rps = base_case->at("requests_per_sec").as_double();
    const double rps = current.at("requests_per_sec").as_double();
    const bool ok = rps >= base_rps * (1.0 - tol);
    std::cout << (ok ? "[baseline ok] " : "[REGRESSION] ") << key << ": "
              << static_cast<long>(rps) << " requests/s vs baseline "
              << static_cast<long>(base_rps) << " (tol " << tol * 100
              << "%)\n";
    regressions += ok ? 0 : 1;
  }
  return regressions;
}

}  // namespace

int main() {
  const int n = bench::scaled(200, 50);

  bench::Json chat = bench::Json::object();
  struct Case {
    const char* key;
    const char* model;
    SchedulerKind kind;
  };
  const Case cases[] = {
      {"llama7b_vllm", "llama2-7b", SchedulerKind::kVllm},
      {"llama7b_sarathi", "llama2-7b", SchedulerKind::kSarathi},
      {"llama70b_vllm", "llama2-70b", SchedulerKind::kVllm},
      {"llama70b_orca", "llama2-70b", SchedulerKind::kOrca},
  };
  for (const Case& c : cases) {
    if (!bench::model_enabled(c.model)) continue;
    chat.set(c.key, simulate_chat_case(c.model, c.kind, n));
  }

  bench::Json results = bench::Json::object();
  results.set("BM_SimulateChat", chat);
  if (bench::model_enabled("llama2-7b")) {
    results.set("BM_SimulateChatTraced",
                traced_chat_case("llama2-7b", SchedulerKind::kVllm, n));
    results.set("BM_AnalyzeTrace", analyze_trace_case("llama2-7b", n));
    results.set("BM_EstimatorPredict", estimator_case());
    results.set("BM_CapacitySearch", capacity_search_case());
  }

  bench::write_bench_json("sim_core", results);
  return check_against_baseline(chat) > 0 ? 1 : 0;
}
