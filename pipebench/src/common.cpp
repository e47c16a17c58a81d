#include <variant>

#include "ecohmem/advisor/bandwidth_aware.hpp"
#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/advisor/report.hpp"
#include "ecohmem/common/config.hpp"
#include "workloads.hpp"

namespace pipebench {

using namespace ecohmem;

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

Expected<advisor::AdvisorConfig> load_advisor_config(const std::string& root) {
  const auto file = Config::load(root + "/configs/advisor_dram_pmem.ini");
  if (!file) return unexpected(file.error());
  return advisor::AdvisorConfig::from_config(*file);
}

Expected<std::string> advise(const analyzer::AnalysisResult& analysis,
                             const advisor::AdvisorConfig& config,
                             const bom::ModuleTable& modules, Tracer& tracer) {
  Expected<advisor::Placement> placement = unexpected("not placed");
  {
    auto span = tracer.span("advisor.density");
    placement = advisor::place_by_density(analysis.sites, config);
    if (!placement) return unexpected("density placement: " + placement.error());
  }
  {
    auto span = tracer.span("advisor.bw_aware");
    advisor::BandwidthAwareOptions bw;
    bw.peak_pmem_bw_gbs = analysis.observed_peak_bw_gbs;
    bw.dram_tier = config.tiers.front().name;
    bw.pmem_tier = config.fallback_tier().name;
    auto refined = advisor::place_bandwidth_aware(analysis.sites, *placement, config, bw);
    if (!refined) return unexpected("bandwidth-aware placement: " + refined.error());
    tracer.count("advisor.swaps", static_cast<double>(refined->swaps));
    *placement = std::move(refined->placement);
  }
  auto span = tracer.span("advisor.report");
  return advisor::report_to_string(*placement, advisor::ReportFormat::kBom, modules);
}

void count_analysis(Tracer& tracer, const trace::Trace& trace,
                    const analyzer::AnalysisResult& analysis) {
  if (!tracer.enabled()) return;
  double weight = 0.0;
  for (const auto& e : trace.events) {
    if (const auto* s = std::get_if<trace::SampleEvent>(&e)) weight += s->weight;
  }
  tracer.count("analyzer.events", static_cast<double>(trace.events.size()));
  tracer.count("analyzer.sites", static_cast<double>(analysis.sites.size()));
  tracer.count("analyzer.sample_weight", weight);
  tracer.count("analyzer.unattributed_weight", analysis.unattributed_samples);
}

void add_layer_metrics(RunResult& result, const Tracer& traced,
                       const std::vector<double>& traced_ms,
                       const std::vector<double>& untraced_ms,
                       const std::map<std::string, double>& extra) {
  std::map<std::string, double> m = layer_medians(traced);
  const auto get = [&m](const char* name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  m["analyzer.ns_per_event"] = ratio(get("analyzer.analyze_ms") * 1e6, get("analyzer.events"));
  m["analyzer.attributed_ratio"] =
      get("analyzer.sample_weight") > 0.0
          ? 1.0 - get("analyzer.unattributed_weight") / get("analyzer.sample_weight")
          : 0.0;
  m["online.cancelled_ratio"] = ratio(get("online.cancelled"), get("online.scheduled"));
  m["bench.trace_overhead_ratio"] = ratio(median(traced_ms), median(untraced_ms));
  for (const auto& [name, value] : extra) m[name] = value;
  for (const auto& [name, value] : m) result.metric(name, value, "");
}

void save_spans(const RunConfig& config, const Tracer& traced, RunResult& result) {
  if (config.spans_path.empty()) return;
  result.attempt(write_spans(config.spans_path, traced), "span file " + config.spans_path);
}

}  // namespace pipebench
