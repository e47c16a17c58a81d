#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads. Each runs in its own process, sets
/// itself up several times (`setup_s`, see `timed_setup`), then runs closed
/// loop passes on one thread until `seconds` have passed, then checks
/// its outputs against an independent reference.
///
/// With `trace` set, passes alternate between traced and untraced: the
/// traced ones record a span around every layer call and give the
/// per-layer metrics, the untraced ones give the base of
/// `bench.trace_overhead_ratio`.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/common/expected.hpp"
#include "harness.hpp"

namespace pipebench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and one pass: the whole workload and its gates in
  /// seconds (the benchmark's own tests).
  bool small = false;
  /// Checkout root: configs/ is read from here.
  std::string root = ".";
  /// Where trace files, reports and the socket go.
  std::string scratch = ".";
  /// Where the traced run writes its spans; empty = not written.
  std::string spans_path;
};

/// Every registered app through the CLI pipeline in process: profiled
/// memory-mode replay, v3 trace write and read, analyze, density and
/// bandwidth-aware placement, report, FlexMalloc, app-direct replay and
/// online replay.
[[nodiscard]] RunResult run_app_pipeline(const RunConfig& config);

/// A seeded synthetic v3 trace on disk: open, read, analyze, advise,
/// write the report.
[[nodiscard]] RunResult run_trace_advise(const RunConfig& config);

/// An in-process serve::Server: one connection streams seeded events in
/// blocks (closed loop), a second queries placements on a fixed
/// schedule (open loop).
[[nodiscard]] RunResult run_serve_stream(const RunConfig& config);

/// Pass ids of the set-up repetitions in the traced run, apart from the
/// measured passes (which count from 1).
inline constexpr std::uint64_t kSetupPass = 1'000'000;

/// Seed of the profiler and of the other per-run random choices derived
/// from the benchmark seed (never 0, so no input degenerates).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The Advisor stage as ecohmem-advisor runs it: density knapsack, the
/// bandwidth-aware pass at the analysis's observed peak, BOM report.
/// Each step is a span; `advisor.swaps` is counted.
[[nodiscard]] ecohmem::Expected<std::string> advise(
    const ecohmem::analyzer::AnalysisResult& analysis,
    const ecohmem::advisor::AdvisorConfig& config, const ecohmem::bom::ModuleTable& modules,
    Tracer& tracer);

/// Counts what the analyzer metrics are derived from: events, sites and
/// the attributed share of the weighted samples in `trace`.
void count_analysis(Tracer& tracer, const ecohmem::trace::Trace& trace,
                    const ecohmem::analyzer::AnalysisResult& analysis);

/// Loads configs/advisor_dram_pmem.ini under `root`.
[[nodiscard]] ecohmem::Expected<ecohmem::advisor::AdvisorConfig> load_advisor_config(
    const std::string& root);

/// Wall seconds of one set-up: the median over `groups` timings, each
/// the mean of `group` set-ups in a row, so that a set-up far below a
/// millisecond is still timed over enough work to be steady. `teardown`
/// undoes the previous set-up first, outside the timed part.
template <typename Setup, typename Teardown>
double timed_setup(int groups, int group, Setup&& setup, Teardown&& teardown) {
  std::vector<double> seconds;
  bool first = true;
  for (int g = 0; g < groups; ++g) {
    double sum = 0.0;
    for (int i = 0; i < group; ++i) {
      if (!first) teardown();
      first = false;
      const auto start = Clock::now();
      setup();
      sum += ms_since(start) / 1e3;
    }
    seconds.push_back(sum / group);
  }
  return median(std::move(seconds));
}

/// Per-layer output of a traced run: every span time and counter of
/// `traced` (`layer_medians`) plus the ratios derived from them, without
/// units. run.py keeps the ones BENCHMARK.json declares, adds their
/// units, and reports 0 for layers this workload does not exercise.
/// Span times and counters come from `traced`;
/// `extra` holds figures measured outside spans (simulated speedups,
/// serve-side rates). `traced_ms`/`untraced_ms` are the pass times of
/// the two kinds of passes, whose ratio is the tracing overhead.
void add_layer_metrics(RunResult& result, const Tracer& traced,
                       const std::vector<double>& traced_ms,
                       const std::vector<double>& untraced_ms,
                       const std::map<std::string, double>& extra = {});

/// Writes `traced`'s spans to `config.spans_path` (when set), counting
/// a failed write.
void save_spans(const RunConfig& config, const Tracer& traced, RunResult& result);

}  // namespace pipebench
