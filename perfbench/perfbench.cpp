// Host-time benchmark of the simulator: runs one workload in this process
// and prints one JSON result line (see perfbench/run.py, which builds this
// binary and starts one process per workload).
//
//   vidur_perfbench --workload fleet_chat|session_chaos|search --seed N
//                   --seconds S --trace 0|1 [--spans-dir DIR]
//                   [--inject digest|conservation]
//
// Every number is host time (steady_clock around calls into the library's
// public functions) unless its name marks it as a simulated statistic.
// --trace 0 reports the end-to-end metrics: setup_s (median of several
// set-ups), wall_s and requests_per_s (median timed pass), peak_rss_mb.
// --trace 1 reports the per-layer metrics instead, keeps a span per timed
// call in memory and writes them, with self times, to --spans-dir at exit.
//
// Every timed pass is checked: its result JSON (host-dependent estimator
// cache counters excluded) must hash to the digest of the untimed reference
// pass over the same inputs, requests must balance (completed + shed + lost = arrived) and the
// workload's mechanism witnesses must hold. A failed check counts the pass
// in `failed` and makes the process exit 1. --inject corrupts every timed
// pass's digest or request count so perfbench/test_checks.py can prove
// that the checks fire.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "api/result.h"
#include "common/check.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "obs/analysis.h"
#include "obs/trace.h"
#include "profiler/profiler.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "search/search.h"
#include "workload/trace_generator.h"

#ifndef VIDUR_PERFBENCH_BUILD_TYPE
#define VIDUR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vidur;
using Clock = std::chrono::steady_clock;

constexpr const char* kModel = "llama2-7b";

// ---------------------------------------------------------------- sizing
// fleet_chat: the BM_FleetScale shape (128 round-robin vLLM replicas under
// fleet-scale chat1m Poisson traffic), the only workload on the sharded path.
constexpr int kFleetReplicas = 128;
constexpr int kFleetRequests = 60000;
constexpr double kFleetQps = 400.0;
// session_chaos: spot-churn sessions raised from 1.5 to 12 session qps. Its
// host time swings by ~20% from one trace to the next (crash timing against
// queue depth decides how much work is handed off and re-routed), so a run
// cycles its passes through several traces generated from the seed.
constexpr int kChaosRequests = 10000;
constexpr double kChaosQps = 12.0;
constexpr int kChaosTraces = 8;
// search: probes of at least this many requests.
constexpr int kSearchProbeRequests = 150;

/// Set-ups timed up front per process; a search pass also times the set-up
/// of the freshly onboarded session it starts on.
constexpr int kSetups = 9;
/// Passes timed even when --seconds runs out first.
constexpr int kMinPasses = 3;

// The session_chaos deployment: one elastic a100 pool with reactive
// autoscaling, cache-aware routing over per-replica prefix caches, spot
// reclaim windows across the run plus exponential crashes, retries and a
// shed floor for the batch tenant.
constexpr const char* kChaosSpec = R"({
  "model": "llama2-7b",
  "deployment": {
    "pools": [{
      "name": "serve", "sku": "a100", "num_replicas": 24,
      "autoscale": {
        "kind": "reactive", "min_replicas": 4,
        "provision_delay_s": 5.0, "warmup_delay_s": 2.5,
        "decision_interval_s": 2.0, "target_load_per_replica": 3.0,
        "scale_up_load": 5.0, "scale_down_load": 0.5
      }
    }],
    "scheduler": {"kind": "sarathi"},
    "global_scheduler": "cache_aware",
    "prefix_cache": {"enabled": true},
    "faults": {
      "profiles": [{
        "pool": "serve", "crash_mtbf_s": 250.0,
        "spot_windows": [
          {"start_s": 120.0, "duration_s": 60.0, "replicas": 3},
          {"start_s": 380.0, "duration_s": 90.0, "replicas": 4,
           "notice_s": 10.0},
          {"start_s": 640.0, "duration_s": 60.0, "replicas": 2}
        ]
      }],
      "recovery": {"max_attempts": 5, "backoff_base_s": 0.25},
      "shed": {"min_active_replicas": 2}
    }
  },
  "workload": {"scenario": "spot-churn"}
})";

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  VIDUR_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

int bench_threads() {
  return static_cast<int>(std::min(4u, hardware_threads()));
}

// ------------------------------------------------------------------ spans
/// Host-time spans around calls into the library. Every timing in this file
/// goes through Spans::time; only a traced run keeps the spans.
class Spans {
 public:
  explicit Spans(bool keep) : keep_(keep), origin_(Clock::now()) {}

  /// Spans opened until the next set_pass() share this pass id (-1: none).
  void set_pass(int pass) { pass_ = pass; }

  /// Runs f() inside a span named `name`; returns its host seconds.
  template <class F>
  double time(const char* name, F&& f) {
    const std::size_t index = spans_.size();
    if (keep_) {
      spans_.push_back({name, 0.0, 0.0, open_.empty() ? -1 : open_.back(),
                        pass_});
      open_.push_back(static_cast<int>(index));
    }
    const Clock::time_point start = Clock::now();
    try {
      f();
    } catch (...) {
      close(index, start);
      throw;
    }
    return close(index, start);
  }

  /// Writes every span with its self time (duration minus the time its
  /// direct children cover) and prints the per-name self-time totals.
  void write(const std::string& path) const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    JsonValue list = JsonValue::array();
    std::map<std::string, std::pair<double, int>> self_by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double self = s.end - s.start - child_time[i];
      JsonValue j = JsonValue::object();
      j.set("name", s.name);
      j.set("start_s", s.start);
      j.set("end_s", s.end);
      j.set("parent", s.parent);
      j.set("pass", s.pass);
      j.set("self_s", self);
      list.push(std::move(j));
      auto& [total, count] = self_by_name[s.name];
      total += self;
      ++count;
    }
    JsonValue doc = JsonValue::object();
    doc.set("spans", std::move(list));
    std::ofstream out(path);
    VIDUR_CHECK_MSG(out.good(), "cannot write spans to '" << path << "'");
    out << doc.dump();
    for (const auto& [name, entry] : self_by_name)
      std::cout << "span " << name << " self_s=" << entry.first
                << " count=" << entry.second << "\n";
    std::cout << "spans written to " << path << "\n";
  }

 private:
  double close(std::size_t index, Clock::time_point start) {
    const Clock::time_point end = Clock::now();
    if (keep_) {
      open_.pop_back();
      spans_[index].start = seconds_between(origin_, start);
      spans_[index].end = seconds_between(origin_, end);
    }
    return seconds_between(start, end);
  }

  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int pass = -1;
  };
  bool keep_;
  Clock::time_point origin_;
  int pass_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ------------------------------------------------------------- workloads
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".";
  std::string inject;
};

/// One workload's generated inputs and deployments (sim workloads).
struct SimInputs {
  DeploymentConfig config;
  /// Configuration of the untimed reference pass; fleet_chat's runs at
  /// threads = 1 so every run re-proves sharded == serial.
  DeploymentConfig reference;
  Trace trace;
  std::vector<TenantInfo> tenants;
};

SimInputs fleet_chat_inputs(std::uint64_t seed) {
  SimInputs in;
  in.config.sku_name = "a100";
  in.config.parallel = ParallelConfig{1, 1, kFleetReplicas};
  in.config.scheduler.kind = SchedulerKind::kVllm;
  in.config.scheduler.max_batch_size = 128;
  in.config.threads = bench_threads();
  in.reference = in.config;
  in.reference.threads = 1;
  in.trace = generate_trace(trace_by_name("chat1m"),
                            ArrivalSpec{ArrivalKind::kPoisson, kFleetQps, 0},
                            kFleetRequests, seed);
  return in;
}

SimInputs session_chaos_trace(std::uint64_t seed) {
  const ExperimentSpec spec = ExperimentSpec::from_json_string(kChaosSpec);
  spec.validate();
  SimInputs in;
  in.config = spec.deployment;
  in.config.faults.seed = seed * 0x9e3779b97f4a7c15ULL + 1;  // never 0
  in.reference = in.config;
  Scenario scenario = scenario_by_name("spot-churn");
  scenario.arrival.qps = kChaosQps;
  scenario.num_requests = kChaosRequests;
  in.tenants = scenario.tenant_infos();
  in.trace = generate_scenario_trace(scenario, seed);
  return in;
}

/// The sim workload's input sets; timed passes cycle through them.
std::vector<SimInputs> sim_inputs(const std::string& workload,
                                  std::uint64_t seed) {
  if (workload == "fleet_chat") return {fleet_chat_inputs(seed)};
  std::vector<SimInputs> out;
  for (int k = 0; k < kChaosTraces; ++k)
    out.push_back(session_chaos_trace(seed * kChaosTraces + k));
  return out;
}

SearchSpace search_space() {
  SearchSpace space;
  space.skus = {"a100", "h100"};
  space.tp_degrees = {1, 2, 4};
  space.pp_degrees = {1};
  space.max_total_gpus = 8;
  space.schedulers = {SchedulerKind::kVllm, SchedulerKind::kSarathi};
  space.sarathi_chunk_sizes = {512};
  space.batch_sizes = {64, 128, 256};
  return space;
}

/// Every configuration gets its full capacity search: with branch-and-bound
/// pruning, which configurations are searched (and so the pass's work)
/// flips with the seed, and the pruning bound also counts configurations
/// that miss the SLO, which can leave best() empty (seed 2). Probes hold
/// max(150, batch x replicas) requests.
VidurSearchOptions search_options(std::uint64_t seed, int threads) {
  VidurSearchOptions options;
  options.capacity.num_requests = kSearchProbeRequests;
  options.capacity.requests_per_slot = 1;
  options.capacity.trace_seed = seed;
  options.num_threads = threads;
  options.prune = false;
  return options;
}

std::vector<std::string> workload_skus(const std::string& workload) {
  if (workload == "search") return search_space().skus;
  return {"a100"};
}

// ----------------------------------------------------------------- checks
/// Result JSON of one simulation without the estimator cache counters,
/// which depend on what the session simulated before (and, under the
/// sharded core, on thread timing) rather than on the inputs.
std::string checked_json(const SimulationMetrics& m) {
  const JsonValue full = metrics_to_json(m);
  JsonValue out = JsonValue::object();
  for (const auto& [key, value] : full.members()) {
    if (key == "estimator") continue;
    if (key != "registry") {
      out.set(key, value);
      continue;
    }
    JsonValue registry = JsonValue::object();
    for (const auto& [section, entries] : value.members()) {
      if (section != "counters") {
        registry.set(section, entries);
        continue;
      }
      JsonValue counters = JsonValue::object();
      for (const auto& [name, count] : entries.members())
        if (name.rfind("estimator.", 0) != 0) counters.set(name, count);
      registry.set(section, std::move(counters));
    }
    out.set(key, std::move(registry));
  }
  return out.dump();
}

std::string search_json(const SearchResult& search) {
  ExperimentResult result;
  result.spec.mode = ExperimentMode::kCapacitySearch;
  result.search = search;
  return result.to_json().dump();
}

std::uint64_t counter(const SimulationMetrics& m, const std::string& name) {
  for (const auto& c : m.registry.counters)
    if (c.name == name) return c.value;
  return 0;
}

/// Empty when requests balance: every arrived request completed, was shed
/// or was lost.
std::string conservation_failure(const SimulationMetrics& m,
                                 std::size_t trace_size) {
  const std::uint64_t shed = counter(m, "faults.shed");
  const std::uint64_t lost = counter(m, "faults.lost");
  if (m.num_requests != trace_size ||
      m.num_completed + shed + lost != m.num_requests) {
    std::ostringstream why;
    why << "requests do not balance: arrived " << m.num_requests
        << " (trace " << trace_size << ") != completed " << m.num_completed
        << " + shed " << shed << " + lost " << lost;
    return why.str();
  }
  return "";
}

/// Empty when the mechanism the workload exists for did work.
std::string witness_failure(const std::string& workload,
                            const SimulationMetrics& m) {
  if (workload != "session_chaos") return "";
  if (counter(m, "kvcache.hits") == 0) return "no prefix-cache hits";
  if (counter(m, "faults.spot_reclaims") + counter(m, "faults.crashes") == 0)
    return "no crash or spot reclaim";
  if (counter(m, "cluster.scale_ups") == 0) return "no scale-up";
  return "";
}

std::string search_witness_failure(const SearchResult& search) {
  if (!search.best()) return "no SLO-compliant configuration (best() empty)";
  return "";
}

// ----------------------------------------------------------------- passes
/// What one pass produced and how long its parts took.
struct Pass {
  double wall_s = 0.0;      ///< the simulate() / run_search() call
  double setup_s = 0.0;     ///< search only: its fresh session's set-up
  double render_s = 0.0;    ///< result JSON render (metrics_to_json + dump)
  std::size_t result_bytes = 0;
  std::uint64_t digest = 0;
  double requests = 0.0;    ///< simulated requests (all probes on search)
  std::uint64_t cache_hits = 0;    ///< estimator deltas over the pass
  std::uint64_t cache_misses = 0;
  std::string failure;      ///< empty when every check held
  SimulationMetrics metrics;
  SearchResult search;
};

struct EstimatorCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

EstimatorCounts estimator_counts(VidurSession& session,
                                 const std::vector<std::string>& skus) {
  EstimatorCounts c;
  for (const std::string& sku : skus) {
    const RuntimeEstimator& est = session.estimator(sku);
    c.hits += est.cache_hits();
    c.misses += est.cache_misses();
  }
  return c;
}

/// Fresh session with every SKU onboarded (profiling + estimator training).
std::unique_ptr<VidurSession> onboarded_session(
    Spans& spans, const std::vector<std::string>& skus) {
  auto session = std::make_unique<VidurSession>(model_by_name(kModel));
  for (const std::string& sku : skus)
    spans.time("session.onboard", [&] { session->onboard(sku); });
  return session;
}

void finish_sim_pass(Spans& spans, Pass& pass, std::size_t trace_size,
                     const std::string& workload) {
  std::string text;
  pass.render_s = spans.time("api.metrics_to_json",
                             [&] { text = checked_json(pass.metrics); });
  pass.result_bytes = text.size();
  pass.digest = fnv1a(text);
  pass.requests = static_cast<double>(pass.metrics.num_requests);
  pass.failure = conservation_failure(pass.metrics, trace_size);
  if (pass.failure.empty())
    pass.failure = witness_failure(workload, pass.metrics);
}

Pass sim_pass(Spans& spans, VidurSession& session, const SimInputs& in,
              const DeploymentConfig& config, const std::string& workload,
              const std::vector<std::string>& skus) {
  Pass pass;
  const EstimatorCounts before = estimator_counts(session, skus);
  try {
    pass.wall_s = spans.time("session.simulate", [&] {
      pass.metrics = session.simulate(config, in.trace, in.tenants);
    });
  } catch (const std::exception& e) {
    pass.failure = std::string("simulate threw: ") + e.what();
    return pass;
  }
  const EstimatorCounts after = estimator_counts(session, skus);
  pass.cache_hits = after.hits - before.hits;
  pass.cache_misses = after.misses - before.misses;
  finish_sim_pass(spans, pass, in.trace.size(), workload);
  return pass;
}

Pass search_pass(Spans& spans, std::uint64_t seed, int threads,
                 const std::vector<std::string>& skus) {
  Pass pass;
  std::unique_ptr<VidurSession> session;
  try {
    pass.setup_s = spans.time("setup", [&] {
      session = onboarded_session(spans, skus);
    });
    const EstimatorCounts before = estimator_counts(*session, skus);
    const VidurSearchOptions options = search_options(seed, threads);
    pass.wall_s = spans.time("search.run_search", [&] {
      pass.search = run_search(*session, search_space(),
                               trace_by_name("chat1m"), options);
    });
    const EstimatorCounts after = estimator_counts(*session, skus);
    pass.cache_hits = after.hits - before.hits;
    pass.cache_misses = after.misses - before.misses;
    for (const ConfigEvaluation& e : pass.search.evaluations)
      pass.requests += static_cast<double>(e.num_probes) *
                       options.capacity.probe_requests(e.config);
  } catch (const std::exception& e) {
    pass.failure = std::string("search threw: ") + e.what();
    return pass;
  }
  std::string text;
  pass.render_s = spans.time("api.search_to_json",
                             [&] { text = search_json(pass.search); });
  pass.result_bytes = text.size();
  pass.digest = fnv1a(text);
  pass.failure = search_witness_failure(pass.search);
  return pass;
}

/// Applies the --inject corruption to a timed pass before its checks.
void inject(const std::string& what, Pass& pass, std::size_t trace_size,
            const std::string& workload, Spans& spans) {
  if (what == "digest") {
    pass.digest ^= 1;
  } else if (what == "conservation") {
    VIDUR_CHECK_MSG(workload != "search",
                    "--inject conservation needs a sim workload");
    pass.metrics.num_completed += 1;
    finish_sim_pass(spans, pass, trace_size, workload);
  }
}

// ----------------------------------------------------------------- output
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------- main
int run(const Args& args) {
  const std::string& workload = args.workload;
  VIDUR_CHECK_MSG(workload == "fleet_chat" || workload == "session_chaos" ||
                      workload == "search",
                  "unknown workload '" << workload
                                       << "' (fleet_chat, session_chaos, "
                                          "search)");
  VIDUR_CHECK_MSG(args.inject.empty() || args.inject == "digest" ||
                      args.inject == "conservation",
                  "unknown --inject '" << args.inject << "'");
  const bool is_search = workload == "search";
  const std::vector<std::string> skus = workload_skus(workload);
  const int threads = bench_threads();
  Spans spans(args.trace);

  std::cout << "meta {\"workload\": \"" << workload
            << "\", \"seed\": " << args.seed
            << ", \"hardware_threads\": " << hardware_threads()
            << ", \"threads\": " << threads << ", \"build_type\": \""
            << VIDUR_PERFBENCH_BUILD_TYPE << "\", \"traced\": "
            << (args.trace ? "true" : "false") << "}\n";

  // ---- set-up and the untimed reference pass of each input set
  std::vector<double> setup_samples;
  std::unique_ptr<VidurSession> session;
  std::vector<SimInputs> inputs;
  double generate_s = 0.0;
  std::vector<Pass> references;
  spans.set_pass(0);
  for (int i = 0; i < kSetups; ++i) {
    setup_samples.push_back(spans.time("setup", [&] {
      session.reset();
      session = onboarded_session(spans, skus);
      if (is_search) return;  // run_search generates its own probes
      generate_s = spans.time("workload.generate", [&] {
        inputs = sim_inputs(workload, args.seed);
      });
    }));
  }
  const std::size_t num_inputs = is_search ? 1 : inputs.size();
  for (std::size_t i = 0; i < num_inputs; ++i) {
    spans.time("reference", [&] {
      references.push_back(
          is_search ? search_pass(spans, args.seed, threads, skus)
                    : sim_pass(spans, *session, inputs[i], inputs[i].reference,
                               workload, skus));
    });
    VIDUR_CHECK_MSG(references[i].failure.empty(),
                    "reference pass failed: " << references[i].failure);
    std::cout << "reference digest " << std::hex << references[i].digest
              << std::dec << "\n";
  }

  // ---- timed passes
  std::vector<Pass> passes;
  int failed = 0;
  const Clock::time_point timed_start = Clock::now();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         seconds_between(timed_start, Clock::now()) < args.seconds) {
    spans.set_pass(static_cast<int>(passes.size()) + 1);
    const std::size_t input = passes.size() % num_inputs;
    Pass pass;
    spans.time("pass", [&] {
      pass = is_search ? search_pass(spans, args.seed, threads, skus)
                       : sim_pass(spans, *session, inputs[input],
                                  inputs[input].config, workload, skus);
    });
    if (!args.inject.empty())
      inject(args.inject, pass,
             is_search ? 0 : inputs[input].trace.size(), workload, spans);
    if (pass.failure.empty() && pass.digest != references[input].digest) {
      std::ostringstream why;
      why << "digest " << std::hex << pass.digest << " != reference "
          << references[input].digest;
      pass.failure = why.str();
    }
    if (pass.setup_s > 0.0) setup_samples.push_back(pass.setup_s);
    std::cout << "pass " << passes.size() + 1 << " wall_s " << pass.wall_s
              << (pass.failure.empty() ? " ok" : " FAILED: " + pass.failure)
              << "\n";
    failed += pass.failure.empty() ? 0 : 1;
    passes.push_back(std::move(pass));
  }
  spans.set_pass(-1);

  std::vector<double> walls, rates, renders, hit_rates, misses;
  for (const Pass& p : passes) {
    if (p.wall_s <= 0.0) continue;  // the call threw: nothing was timed
    walls.push_back(p.wall_s);
    rates.push_back(p.requests / p.wall_s);
    renders.push_back(p.render_s);
    const double lookups = static_cast<double>(p.cache_hits + p.cache_misses);
    hit_rates.push_back(lookups > 0 ? p.cache_hits / lookups : 0.0);
    misses.push_back(static_cast<double>(p.cache_misses));
  }
  const double wall_s = median(walls);
  const Pass& last = passes.back();
  const std::size_t last_input = (passes.size() - 1) % num_inputs;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_samples), "s"},
        {"wall_s", wall_s, "s"},
        {"requests_per_s", median(rates), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::cout << "metric ops_failed " << failed << "/" << passes.size()
              << " passes\n";
    std::cout << "metric passes " << passes.size() << "\n";
  } else {
    // ---- layers, each timed on its own public entry points
    double profile_s = 0.0, train_s = 0.0;
    for (const std::string& sku : skus) {
      NodeSpec node;
      node.sku = sku_by_name(sku);
      const SessionOptions options;
      ProfileDb db;
      profile_s += spans.time("profiler.profile_model", [&] {
        db = profile_model(model_by_name(kModel), node, options.tp_degrees,
                           options.profiler);
      });
      train_s += spans.time("estimator.train", [&] {
        const RuntimeEstimator trained(db, options.estimator);
      });
    }

    const RuntimeEstimator& est = session->estimator("a100");
    OpInput op_in;
    op_in.tokens = 512;
    double sink = 0.0;
    constexpr int kCachedIters = 2000000, kUncachedIters = 20000;
    const double cached_s = spans.time("estimator.predict", [&] {
      for (int i = 0; i < kCachedIters; ++i)
        sink += est.predict(OpType::kMlpGateUpProj, 1, op_in);
    });
    const double uncached_s = spans.time("estimator.predict_uncached", [&] {
      for (int i = 0; i < kUncachedIters; ++i)
        sink += est.predict_uncached(OpType::kMlpGateUpProj, 1, op_in);
    });

    // The simulation the sim/scheduler/metrics/obs layers are read from:
    // the workload's own pass, or on search one probe-sized simulation of
    // the best configuration at its capacity.
    SimInputs probe;
    const SimInputs* sim_in = is_search ? nullptr : &inputs[last_input];
    const SimulationMetrics* sim_metrics = &last.metrics;
    // Untraced wall of the layers' input set: the median of its passes.
    std::vector<double> same_input;
    for (std::size_t i = last_input; i < passes.size(); i += num_inputs)
      same_input.push_back(passes[i].wall_s);
    double untraced_wall = median(same_input);
    double search_s_per_config = 0.0;
    std::size_t search_configs = 0, search_probes = 0, search_feasible = 0,
                search_slo = 0;
    auto count_search = [&](const SearchResult& s) {
      search_configs = s.evaluations.size();
      for (const ConfigEvaluation& e : s.evaluations) {
        search_probes += static_cast<std::size_t>(e.num_probes);
        search_feasible += e.feasible ? 1 : 0;
        search_slo += e.meets_slo ? 1 : 0;
      }
    };
    Pass probe_pass;
    if (is_search) {
      count_search(last.search);
      search_s_per_config = wall_s / static_cast<double>(search_configs);
      VIDUR_CHECK_MSG(last.search.best(), "last search pass has no best()");
      const ConfigEvaluation best = *last.search.best();
      const VidurSearchOptions options = search_options(args.seed, threads);
      probe.config = best.config;
      generate_s = spans.time("workload.generate", [&] {
        probe.trace = generate_trace(
            trace_by_name("chat1m"),
            ArrivalSpec{ArrivalKind::kPoisson, best.capacity_qps, 0},
            options.capacity.probe_requests(best.config), args.seed);
      });
      probe_pass = sim_pass(spans, *session, probe, probe.config,
                            workload, skus);
      probe_pass = sim_pass(spans, *session, probe, probe.config,
                            workload, skus);  // warm, as the traced pass is
      VIDUR_CHECK_MSG(probe_pass.failure.empty(),
                      "probe simulation failed: " << probe_pass.failure);
      sim_in = &probe;
      sim_metrics = &probe_pass.metrics;
      untraced_wall = probe_pass.wall_s;
    } else {
      // The search layer on a sim workload: Vidur-Search over the single
      // deployment shape of one of this workload's replicas.
      SearchSpace one;
      one.skus = {"a100"};
      one.tp_degrees = {1};
      one.pp_degrees = {1};
      one.max_total_gpus = 1;
      const SchedulerConfig& scheduler = sim_in->config.scheduler;
      one.schedulers = {scheduler.kind};
      one.sarathi_chunk_sizes = {scheduler.chunk_size};
      one.batch_sizes = {scheduler.max_batch_size};
      SearchResult s;
      search_s_per_config = spans.time("search.run_search", [&] {
        s = run_search(*session, one, trace_by_name("chat1m"),
                       search_options(args.seed, threads));
      });
      count_search(s);
    }

    TraceRecorder recorder(TraceRecorder::kUnbounded);
    SimObs obs;
    obs.trace = &recorder;
    const double traced_wall = spans.time("traced.simulate", [&] {
      session->simulate(sim_in->config, sim_in->trace, sim_in->tenants,
                             obs);
    });
    const std::vector<TraceRecord>& records = recorder.staged();
    const double analyze_s = spans.time("obs.analyze_trace", [&] {
      const AnalysisReport report = analyze_trace(records);
    });
    // Export what `vidur run --trace` keeps by default: the newest
    // kDefaultCapacity records (exporting all of fleet_chat's ~2.8M records
    // takes ~20 s and ~3 GB).
    const std::vector<TraceRecord> exported(
        records.end() - static_cast<std::ptrdiff_t>(std::min(
                            records.size(), TraceRecorder::kDefaultCapacity)),
        records.end());
    std::size_t chrome_bytes = 0;
    const double chrome_s = spans.time("obs.chrome_trace_json", [&] {
      chrome_bytes = chrome_trace_json(exported).dump().size();
    });
    std::cout << "chrome trace bytes " << chrome_bytes << ", predict sink "
              << sink << "\n";

    std::int64_t prompt_tokens = 0, decode_tokens = 0;
    for (const Request& r : sim_in->trace) {
      prompt_tokens += r.prefill_tokens;
      decode_tokens += r.decode_tokens;
    }
    const SimulationMetrics& m = *sim_metrics;
    const auto c = [&](const char* name) {
      return static_cast<double>(counter(m, name));
    };
    const double kv_lookups = c("kvcache.lookups");
    metrics = {
        {"workload.generate_s", generate_s, "s"},
        {"workload.requests", static_cast<double>(sim_in->trace.size()),
         "count"},
        {"workload.prompt_tokens", static_cast<double>(prompt_tokens),
         "count"},
        {"workload.decode_tokens", static_cast<double>(decode_tokens),
         "count"},
        {"profiler.profile_s", profile_s, "s"},
        {"estimator.train_s", train_s, "s"},
        {"estimator.cache_hit_rate", median(hit_rates), "ratio"},
        {"estimator.cache_misses", median(misses), "count"},
        {"estimator.predict_cached_ns", cached_s / kCachedIters * 1e9, "ns"},
        {"estimator.predict_uncached_ns",
         uncached_s / kUncachedIters * 1e9, "ns"},
        {"sim.events", static_cast<double>(m.num_sim_events), "count"},
        {"sim.batches", c("sim.batches"), "count"},
        {"sim.ns_per_event",
         untraced_wall / static_cast<double>(m.num_sim_events) * 1e9, "ns"},
        {"scheduler.admissions", c("scheduler.admissions"), "count"},
        {"scheduler.preemptions", c("scheduler.preemptions"), "count"},
        {"scheduler.mean_batch_size", m.mean_batch_size, "count"},
        {"kvcache.lookups", kv_lookups, "count"},
        {"kvcache.hit_rate", kv_lookups > 0 ? c("kvcache.hits") / kv_lookups
                                            : 0.0,
         "ratio"},
        {"kvcache.prefill_tokens_saved", c("kvcache.prefill_tokens_saved"),
         "count"},
        {"kvcache.evicted_blocks", c("kvcache.evicted_blocks"), "count"},
        {"cluster.ticks", c("cluster.ticks"), "count"},
        {"cluster.scale_ups", c("cluster.scale_ups"), "count"},
        {"cluster.scale_downs", c("cluster.scale_downs"), "count"},
        {"cluster.gpu_hours", m.scaling.gpu_hours, "h"},
        {"faults.crashes", c("faults.crashes"), "count"},
        {"faults.spot_reclaims", c("faults.spot_reclaims"), "count"},
        {"faults.repairs", c("faults.repairs"), "count"},
        {"faults.shed", c("faults.shed"), "count"},
        {"faults.lost", c("faults.lost"), "count"},
        {"metrics.tbt_samples", static_cast<double>(m.tbt.count), "count"},
        {"metrics.requests_completed", static_cast<double>(m.num_completed),
         "count"},
        {"api.render_s", median(renders), "s"},
        {"api.result_bytes", static_cast<double>(last.result_bytes), "B"},
        {"obs.traced_wall_s", traced_wall, "s"},
        {"obs.trace_overhead", traced_wall / untraced_wall - 1.0, "ratio"},
        {"obs.trace_records", static_cast<double>(records.size()), "count"},
        {"obs.analyze_s", analyze_s, "s"},
        {"obs.chrome_export_s", chrome_s, "s"},
        {"obs.traced_peak_rss_mb", peak_rss_mb(), "MB"},
        {"search.configs", static_cast<double>(search_configs), "count"},
        {"search.probes", static_cast<double>(search_probes), "count"},
        {"search.feasible_configs", static_cast<double>(search_feasible),
         "count"},
        {"search.slo_configs", static_cast<double>(search_slo), "count"},
        {"search.s_per_config", search_s_per_config, "s"},
    };
    spans.write(args.spans_dir + "/spans-" + workload + "-seed" +
                std::to_string(args.seed) + ".json");
  }

  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " " << format_number(m.value) << " "
              << m.unit << "\n";
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << passes.size() << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << format_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    VIDUR_CHECK_MSG(i + 1 < argc, "flag " << flag << " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      VIDUR_CHECK_MSG(value == "0" || value == "1", "--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else if (flag == "--inject") {
      args.inject = value;
    } else {
      VIDUR_CHECK_MSG(false, "unknown flag " << flag);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
