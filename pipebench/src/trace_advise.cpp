// trace-advise: a large seeded synthetic v3 trace on disk, advised the
// way ecohmem-advisor does it. Closed loop on one thread: one pass =
// open, read, analyze, advise, write the report.
//
// Why this workload: the analyzer dominates (lifetime replay, sample
// attribution against a live set of hundreds of thousands of objects,
// the per-site fold and finalize over thousands of call stacks), and
// the Advisor's knapsack and bandwidth-aware pass get thousands of sites.
// The runtime and online layers do nothing here.

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "ecohmem/trace/trace_file.hpp"
#include "ecohmem/trace/trace_reader.hpp"
#include "gen.hpp"
#include "workloads.hpp"

namespace pipebench {

using namespace ecohmem;

namespace {

GenOptions gen_options(const RunConfig& config) {
  GenOptions options;
  options.seed = derive_seed(config.seed, 2);
  options.events = config.small ? 20'000 : 3'000'000;
  options.sites = config.small ? 200 : 4'000;
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

RunResult run_trace_advise(const RunConfig& config) {
  RunResult result;
  const std::string trace_path = config.scratch + "/trace-advise.trc";
  const std::string report_path = config.scratch + "/trace-advise.report.txt";
  const GenOptions gen = gen_options(config);
  Tracer traced(true);
  Tracer untraced(false);

  std::optional<Generated> input;
  Status written;
  std::uint64_t setup_rep = 0;
  const double setup_s = timed_setup(
      config.small ? 1 : 3, 1,
      [&] {
        Tracer& tracer = config.trace ? traced : untraced;
        auto root = tracer.pass(kSetupPass + setup_rep++, "setup");
        input = generate(gen);
        auto span = tracer.span("trace.write");
        trace::TraceWriteOptions wopt;
        wopt.indexed = true;
        written = trace::save_trace(trace_path, input->trace, input->modules, wopt);
      },
      [&] {
        input.reset();
        std::filesystem::remove(trace_path);
      });
  result.attempt(written.ok(), written ? "" : "trace write: " + written.error());
  if (!written) return result;
  result.notes.push_back(format("trace: %zu events, %zu call stacks, peak live set %zu objects",
                                input->trace.events.size(), input->trace.stacks.size(),
                                input->peak_live));

  // Reference: the same analysis and advice on the in-memory trace.
  const auto advisor_config = load_advisor_config(config.root);
  result.attempt(advisor_config.has_value(),
                 advisor_config ? "" : "advisor config: " + advisor_config.error());
  if (!advisor_config) return result;
  std::string reference;
  {
    const auto analysis = analyzer::analyze(input->trace);
    auto report = analysis ? advise(*analysis, *advisor_config, input->modules, untraced)
                           : Expected<std::string>(unexpected(analysis.error()));
    result.attempt(report.has_value(), report ? "" : "reference: " + report.error());
    if (!report) return result;
    reference = std::move(*report);
  }
  input.reset();

  std::vector<double> pass_ms;
  std::vector<double> traced_ms;
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
      Expected<trace::TraceBundle> bundle = unexpected("not read");
      {
        auto span = tracer.span("trace.read");
        auto reader = trace::TraceReader::open(trace_path);
        bundle = reader ? reader->read_all()
                        : Expected<trace::TraceBundle>(unexpected(reader.error()));
        if (reader) tracer.count("trace.bytes", static_cast<double>(reader->byte_size()));
      }
      result.attempt(bundle.has_value(), bundle ? "" : "trace read: " + bundle.error());
      if (!bundle) continue;
      tracer.count("trace.events", static_cast<double>(bundle->trace.events.size()));
      Expected<analyzer::AnalysisResult> analysis = unexpected("not analyzed");
      {
        auto span = tracer.span("analyzer.analyze");
        analysis = analyzer::analyze(bundle->trace);
      }
      result.attempt(analysis.has_value(), analysis ? "" : "analyze: " + analysis.error());
      if (!analysis) continue;
      if (tracer.enabled()) {
        const auto scan = Clock::now();
        count_analysis(tracer, bundle->trace, *analysis);
        diagnostic_ms += ms_since(scan);
      }
      const auto report = advise(*analysis, *advisor_config, bundle->modules, tracer);
      result.attempt(report.has_value(), report ? "" : "advise: " + report.error());
      if (!report) continue;
      std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
      out << *report;
      out.close();
      result.attempt(out.good(), "report write: " + report_path);
    }
    const double ms = ms_since(start) - diagnostic_ms;
    (tracer.enabled() ? traced_ms : pass_ms).push_back(ms);
    result.attempt(read_file(report_path) == reference,
                   "report from the v3 file differs from the in-memory trace's");
  }
  std::filesystem::remove(trace_path);
  std::filesystem::remove(report_path);

  const double advise_s = median(pass_ms) / 1e3;
  const Tail report_tail = tail(pass_ms);
  result.notes.push_back(
      format("advise_s %.6f s (median of %zu passes)", advise_s, pass_ms.size()));
  result.notes.push_back(format("report_ms_tail p%.1f (%zu samples beyond, %zu samples)",
                                report_tail.percentile, report_tail.beyond,
                                report_tail.samples));
  if (config.trace) {
    save_spans(config, traced, result);
    add_layer_metrics(result, traced, traced_ms, pass_ms);
  } else {
    result.metric("setup_s", setup_s, "s");
    result.metric("turnaround_s", advise_s, "s");
    result.metric("report_ms_p50", median(pass_ms), "ms");
    result.metric("report_ms_tail", report_tail.value, "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  return result;
}

}  // namespace pipebench
