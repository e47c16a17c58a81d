// app-pipeline: every registered app through the offline toolchain, the
// way ecohmem-profile | ecohmem-advisor | ecohmem-run chain it, in one
// process. Closed loop on one thread: one pass = every app once.
//
// Why this workload: the runtime, profiler and online layers do almost
// all the work; the analyzer sees only small traces. phase-shift and
// openfoam drive the online-migration and bandwidth-aware paths.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/memsim/dram_cache.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/trace/trace_file.hpp"
#include "ecohmem/trace/trace_reader.hpp"
#include "workloads.hpp"

namespace pipebench {

using namespace ecohmem;

namespace {

/// Main-loop iterations per app: long enough that one pass is dominated
/// by the replays, not by per-call overheads.
constexpr int kIterations = 100;
constexpr int kSmallIterations = 2;
/// Building the app models and loading the configs takes about half a
/// millisecond, so set-up is timed in groups of this many.
constexpr int kSetupGroups = 9;
constexpr int kSetupGroup = 100;
constexpr Bytes kDramLimit = 12ull << 30;  // configs/advisor_dram_pmem.ini

struct Inputs {
  std::vector<runtime::Workload> apps;
  std::optional<memsim::MemorySystem> system;
  advisor::AdvisorConfig advisor;
  online::OnlinePolicyConfig policy;
};

/// What one app's pass produced; every pass must reproduce the first.
struct AppOutput {
  std::string report;
  Ns memmode_ns = 0;
  Ns appdirect_ns = 0;
  Ns online_ns = 0;
  friend bool operator==(const AppOutput&, const AppOutput&) = default;
};

Expected<Inputs> make_inputs(const RunConfig& config) {
  Inputs in;
  apps::AppOptions options;
  options.iterations = config.small ? kSmallIterations : kIterations;
  for (const auto& name : apps::app_names()) in.apps.push_back(apps::make_app(name, options));
  auto system = memsim::paper_system();
  if (!system) return unexpected(system.error());
  in.system = std::move(*system);
  auto advisor_config = load_advisor_config(config.root);
  if (!advisor_config) return unexpected(advisor_config.error());
  in.advisor = std::move(*advisor_config);
  auto policy = online::OnlinePolicyConfig::load(config.root + "/configs/online_policy.ini");
  if (!policy) return unexpected(policy.error());
  in.policy = *policy;
  return in;
}

std::vector<flexmalloc::HeapSpec> heaps(const memsim::MemorySystem& system) {
  return {{system.tier(0).name(), kDramLimit},
          {system.tier(system.fallback_index()).name(),
           system.tier(system.fallback_index()).capacity()}};
}

analyzer::AnalyzerOptions analyzer_options(const memsim::MemorySystem& system) {
  analyzer::AnalyzerOptions options;
  options.peak_pmem_bw_gbs = system.tier(system.fallback_index()).spec().peak_read_gbs;
  return options;
}

/// One app through the pipeline. Returns nullopt after recording the
/// failed stage in `result`.
std::optional<AppOutput> run_app(const runtime::Workload& app, const Inputs& in,
                                 std::uint64_t profile_seed, const std::string& trace_path,
                                 Tracer& tracer, RunResult& result,
                                 std::vector<double>& report_ms, double& diagnostic_ms) {
  const memsim::MemorySystem& system = *in.system;
  const auto stage = [&result, &app](bool ok, const char* what, const std::string& error) {
    result.attempt(ok, ok ? std::string() : app.name + " " + what + ": " + error);
    return ok;
  };
  auto app_span = tracer.span("app");
  AppOutput out;
  const auto start = Clock::now();

  profiler::ProfilerOptions popt;
  popt.seed = profile_seed;
  popt.sample_stores = true;
  profiler::Profiler prof(popt);
  {
    auto span = tracer.span("profiler.replay");
    runtime::EngineOptions eopt;
    eopt.observer = &prof;
    runtime::MemoryModeExec mode(&system, 0, system.fallback_index(),
                                 memsim::DramCacheModel(system.tier(0).capacity()));
    const auto metrics = runtime::ExecutionEngine(&system, eopt).run(app, mode);
    if (!stage(metrics.has_value(), "profiled replay", metrics ? "" : metrics.error())) {
      return std::nullopt;
    }
    out.memmode_ns = metrics->total_ns;
  }
  const trace::Trace profile = prof.take_trace();
  tracer.count("profiler.events", static_cast<double>(profile.events.size()));
  {
    auto span = tracer.span("trace.write");
    trace::TraceWriteOptions wopt;
    wopt.indexed = true;
    const auto status = trace::save_trace(trace_path, profile, *app.modules, wopt);
    if (!stage(status.ok(), "trace write", status ? "" : status.error())) {
      return std::nullopt;
    }
  }
  Expected<trace::TraceBundle> bundle = unexpected("not read");
  {
    auto span = tracer.span("trace.read");
    auto reader = trace::TraceReader::open(trace_path);
    if (!stage(reader.has_value(), "trace open", reader ? "" : reader.error())) {
      return std::nullopt;
    }
    tracer.count("trace.bytes", static_cast<double>(reader->byte_size()));
    bundle = reader->read_all();
    if (!stage(bundle.has_value(), "trace read", bundle ? "" : bundle.error())) {
      return std::nullopt;
    }
  }
  tracer.count("trace.events", static_cast<double>(bundle->trace.events.size()));

  Expected<analyzer::AnalysisResult> analysis = unexpected("not analyzed");
  {
    auto span = tracer.span("analyzer.analyze");
    analysis = analyzer::analyze(bundle->trace, analyzer_options(system));
    if (!stage(analysis.has_value(), "analyze", analysis ? "" : analysis.error())) {
      return std::nullopt;
    }
  }
  if (tracer.enabled()) {
    const auto scan = Clock::now();
    count_analysis(tracer, bundle->trace, *analysis);
    diagnostic_ms += ms_since(scan);
  }
  auto report = advise(*analysis, in.advisor, bundle->modules, tracer);
  if (!stage(report.has_value(), "advise", report ? "" : report.error())) return std::nullopt;
  out.report = std::move(*report);
  report_ms.push_back(ms_since(start));

  Expected<flexmalloc::ParsedReport> parsed = unexpected("not parsed");
  {
    auto span = tracer.span("flexmalloc.parse");
    parsed = flexmalloc::parse_report(out.report, *app.modules);
    if (!stage(parsed.has_value(), "report parse", parsed ? "" : parsed.error())) {
      return std::nullopt;
    }
  }
  const auto create = [&]() -> std::optional<flexmalloc::FlexMalloc> {
    auto span = tracer.span("flexmalloc.create");
    auto fm = flexmalloc::FlexMalloc::create(heaps(system), *parsed, app.symbols.get());
    if (!stage(fm.has_value(), "FlexMalloc create", fm ? "" : fm.error())) return std::nullopt;
    return std::move(*fm);
  };
  {
    auto fm = create();
    if (!fm) return std::nullopt;
    auto span = tracer.span("runtime.appdirect");
    runtime::AppDirectMode mode(&system, &*fm);
    const auto metrics = runtime::ExecutionEngine(&system).run(app, mode);
    if (!stage(metrics.has_value(), "app-direct replay", metrics ? "" : metrics.error())) {
      return std::nullopt;
    }
    out.appdirect_ns = metrics->total_ns;
    tracer.count("runtime.allocations", static_cast<double>(metrics->allocations));
    tracer.count("flexmalloc.oom_redirects", static_cast<double>(fm->oom_redirects()));
  }
  {
    auto fm = create();
    if (!fm) return std::nullopt;
    auto span = tracer.span("online.replay");
    runtime::AppDirectMode mode(&system, &*fm);
    runtime::EngineOptions eopt;
    eopt.online_policy = &in.policy;
    const auto metrics = runtime::ExecutionEngine(&system, eopt).run(app, mode);
    if (!stage(metrics.has_value(), "online replay", metrics ? "" : metrics.error())) {
      return std::nullopt;
    }
    out.online_ns = metrics->total_ns;
    stage(metrics->migrations_scheduled == metrics->migrations + metrics->migrations_cancelled,
          "online counters", "migrations_scheduled != migrations + migrations_cancelled");
    tracer.count("online.migrations", static_cast<double>(metrics->migrations));
    tracer.count("online.scheduled", static_cast<double>(metrics->migrations_scheduled));
    tracer.count("online.cancelled", static_cast<double>(metrics->migrations_cancelled));
    tracer.count("online.migrated_mb", static_cast<double>(metrics->migrated_bytes) / 1e6);
  }
  if (tracer.enabled()) {
    // The profiled replay without the profiler: its difference from
    // profiler.replay_ms is the profiler's cost. Traced passes only, and
    // not part of the pass time.
    const auto diag = Clock::now();
    {
      auto span = tracer.span("runtime.memmode");
      runtime::MemoryModeExec mode(&system, 0, system.fallback_index(),
                                   memsim::DramCacheModel(system.tier(0).capacity()));
      const auto metrics = runtime::ExecutionEngine(&system).run(app, mode);
      stage(metrics.has_value() && metrics->total_ns == out.memmode_ns, "memory-mode replay",
            metrics ? "differs from the profiled replay" : metrics.error());
    }
    diagnostic_ms += ms_since(diag);
  }
  return out;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace

RunResult run_app_pipeline(const RunConfig& config) {
  RunResult result;
  Expected<Inputs> inputs = unexpected("not set up");
  const double setup_s = timed_setup(
      config.small ? 1 : kSetupGroups, config.small ? 1 : kSetupGroup,
      [&] { inputs = make_inputs(config); },
      [&] { inputs = unexpected("not set up"); });
  result.attempt(inputs.has_value(), inputs ? "" : "set-up: " + inputs.error());
  if (!inputs) return result;
  const std::uint64_t profile_seed = derive_seed(config.seed, 1);
  const std::string trace_path = config.scratch + "/app-pipeline.trc";

  Tracer traced(true);
  Tracer untraced(false);
  std::vector<double> pass_ms;
  std::vector<double> traced_ms;
  std::vector<double> report_ms;
  std::vector<AppOutput> first;
  const std::size_t min_passes = config.trace ? 2 : 1;
  const std::size_t max_passes = config.small ? min_passes : SIZE_MAX;
  const auto measure_start = Clock::now();
  for (std::uint64_t pass = 1; pass <= max_passes; ++pass) {
    if (pass > min_passes && ms_since(measure_start) >= config.seconds * 1e3) break;
    Tracer& tracer = config.trace && pass % 2 == 1 ? traced : untraced;
    double diagnostic_ms = 0.0;
    const auto start = Clock::now();
    {
      auto root = tracer.pass(pass, "pass");
      for (std::size_t i = 0; i < inputs->apps.size(); ++i) {
        const auto out = run_app(inputs->apps[i], *inputs, profile_seed, trace_path, tracer,
                                 result, report_ms, diagnostic_ms);
        if (!out) continue;
        if (first.size() <= i) first.resize(i + 1);
        if (first[i].report.empty()) {
          first[i] = *out;
        } else {
          result.attempt(*out == first[i],
                         inputs->apps[i].name + ": pass output differs from the first pass");
        }
      }
    }
    const double ms = ms_since(start) - diagnostic_ms;
    (tracer.enabled() ? traced_ms : pass_ms).push_back(ms);
  }
  std::filesystem::remove(trace_path);

  // Gate: every app's report bytes and simulated times equal the
  // library's own end-to-end workflow on the same app and options.
  std::vector<double> speedups;
  std::vector<double> online_speedups;
  for (std::size_t i = 0; i < inputs->apps.size() && i < first.size(); ++i) {
    const auto& app = inputs->apps[i];
    core::WorkflowOptions wopt;
    wopt.dram_limit = kDramLimit;
    wopt.store_coef = inputs->advisor.tiers.front().store_coef;
    wopt.bandwidth_aware = true;
    wopt.profile_seed = profile_seed;
    const auto reference = core::run_workflow(app, *inputs->system, wopt);
    if (!reference) {
      result.attempt(false, app.name + " run_workflow: " + reference.error());
      continue;
    }
    result.attempt(reference->report_text == first[i].report,
                   app.name + ": report differs from core::run_workflow");
    result.attempt(reference->baseline_metrics.total_ns == first[i].memmode_ns &&
                       reference->production_metrics.total_ns == first[i].appdirect_ns,
                   app.name + ": simulated total_ns differs from core::run_workflow");
    speedups.push_back(static_cast<double>(first[i].memmode_ns) /
                       static_cast<double>(first[i].appdirect_ns));
    online_speedups.push_back(static_cast<double>(first[i].memmode_ns) /
                              static_cast<double>(first[i].online_ns));
  }
  const double sim_speedup = geomean(speedups);
  const double sim_online_speedup = geomean(online_speedups);

  const Tail report_tail = tail(report_ms);
  const double pipeline_s = median(pass_ms) / 1e3;
  result.notes.push_back(format("pipeline_s %.6f s (median of %zu passes over %zu apps)",
                                pipeline_s, pass_ms.size(), inputs->apps.size()));
  result.notes.push_back(format("sim_speedup %.6f x (geomean, app-direct over memory mode)",
                                sim_speedup));
  result.notes.push_back(format("sim_online_speedup %.6f x (geomean, online over memory mode)",
                                sim_online_speedup));
  result.notes.push_back(format("report_ms_tail p%.1f (%zu samples beyond, %zu samples)",
                                report_tail.percentile, report_tail.beyond,
                                report_tail.samples));
  if (config.trace) {
    save_spans(config, traced, result);
    add_layer_metrics(result, traced, traced_ms, pass_ms,
                      {{"memsim.sim_speedup", sim_speedup},
                       {"memsim.sim_online_speedup", sim_online_speedup}});
  } else {
    result.metric("setup_s", setup_s, "s");
    result.metric("turnaround_s", pipeline_s, "s");
    result.metric("report_ms_p50", median(report_ms), "ms");
    result.metric("report_ms_tail", report_tail.value, "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  return result;
}

}  // namespace pipebench
