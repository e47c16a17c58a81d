// Online placement benchmark: static (frozen advisor placement) vs the
// online migration policy (pure and guidance-seeded) vs the
// kernel-tiering baseline, on the phase-shifting synthetic workload and
// the Fig. 6 mini-apps.
//
// Acceptance (docs/online.md, checked here and by ci.sh):
//   - on phase-shift the online policy must beat the frozen static
//     placement even after paying every migration's bandwidth cost;
//   - on the steady-state mini-apps it must never regress the static
//     run by more than the configured hysteresis margin;
//   - seeding the policy from the advisor report (--from-report) must
//     never make it slower than starting cold;
//   - phase-shift must exercise page-granular partial moves (the huge
//     arrays migrate in chunks, not as monolithic copies).
// The measured numbers land in BENCH_online_placement.json; a violated
// acceptance bound makes the binary exit nonzero.
//
// Usage: bench_online_placement [--out FILE]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ecohmem/apps/synthetic.hpp"
#include "ecohmem/baselines/kernel_tiering.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/runtime/guidance.hpp"

using namespace ecohmem;

namespace {

struct Row {
  std::string app;
  bool steady = false;      // steady-state app -> hysteresis bound applies
  double static_s = 0.0;    // frozen placement, no migrations
  double online_s = 0.0;    // same placement + online policy
  double seeded_s = 0.0;    // online policy seeded from the advisor report
  double tiering_s = 0.0;   // kernel-tiering baseline (context)
  std::uint64_t migrations = 0;
  std::uint64_t partial = 0;
  std::uint64_t cancelled = 0;
  double migrated_mb = 0.0;
  double migration_ms = 0.0;
  bool pass = false;
};

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

Expected<Row> run_app(const std::string& name, const runtime::Workload& w,
                      const memsim::MemorySystem& sys,
                      const online::OnlinePolicyConfig& policy, bool steady) {
  core::WorkflowOptions opt;
  opt.dram_limit = 12 * bench::kGiB;
  const auto workflow = core::run_workflow(w, sys, opt);
  if (!workflow) return unexpected(workflow.error());

  runtime::EngineOptions engine_options;
  engine_options.online_policy = &policy;
  const auto online = core::run_with_placement(w, sys, workflow->placement, opt.dram_limit,
                                               advisor::ReportFormat::kBom, engine_options);
  if (!online) return unexpected(online.error());

  // The same run seeded from the advisor report, exactly as
  // `ecohmem-run --online P --from-report R` would set it up.
  const auto report = flexmalloc::parse_report(workflow->report_text, *w.modules);
  if (!report) return unexpected(report.error());
  const auto guidance = runtime::GuidanceSeed::build(w, *report);
  if (!guidance) return unexpected(guidance.error());
  runtime::EngineOptions seeded_options = engine_options;
  seeded_options.guidance = &*guidance;
  const auto seeded = core::run_with_placement(w, sys, workflow->placement, opt.dram_limit,
                                               advisor::ReportFormat::kBom, seeded_options);
  if (!seeded) return unexpected(seeded.error());

  baselines::KernelTieringMode tiering(&sys, 0, sys.fallback_index());
  runtime::ExecutionEngine engine(&sys, {});
  const auto tiering_run = engine.run(w, tiering);
  if (!tiering_run) return unexpected(tiering_run.error());

  Row row;
  row.app = name;
  row.steady = steady;
  row.static_s = seconds(workflow->production_metrics.total_ns);
  row.online_s = seconds(online->total_ns);
  row.seeded_s = seconds(seeded->total_ns);
  row.tiering_s = seconds(tiering_run->total_ns);
  row.migrations = online->migrations;
  row.partial = online->migrations_partial;
  row.cancelled = online->migrations_cancelled;
  row.migrated_mb = static_cast<double>(online->migrated_bytes) / (1 << 20);
  row.migration_ms = online->migration_ns * 1e-6;
  const bool online_ok = steady ? row.online_s <= row.static_s * (1.0 + policy.hysteresis)
                                : row.online_s < row.static_s;
  // Seeding must never make the policy slower than starting cold
  // (tiny tolerance: seeding may legally reorder same-cost moves).
  const bool seeded_ok = row.seeded_s <= row.online_s * 1.0001;
  // Phase-shift's hot arrays are over the huge-object threshold, so the
  // win must come through page-granular partial moves.
  const bool partial_ok = steady || row.partial > 0;
  row.pass = online_ok && seeded_ok && partial_ok;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_online_placement.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
  }

  bench::print_header("Online placement: static vs online policy vs kernel tiering",
                      "online migration subsystem (docs/online.md)");

  const online::OnlinePolicyConfig policy;  // defaults == configs/online_policy.ini
  const auto sys = *memsim::paper_system(6);

  struct AppSpec {
    const char* name;
    bool steady;
  };
  const std::vector<AppSpec> specs = {
      {"phase-shift", false}, {"minife", true},       {"minimd", true},
      {"lulesh", true},       {"hpcg", true},         {"cloverleaf3d", true},
  };

  std::printf("%-14s %10s %10s %10s %10s %6s %8s %9s  %s\n", "app", "static(s)",
              "online(s)", "seeded(s)", "tiering(s)", "moves", "partial", "moved(MB)", "bound");
  std::vector<Row> rows;
  bool all_pass = true;
  for (const auto& spec : specs) {
    const runtime::Workload w = apps::make_app(spec.name);
    const auto row = run_app(spec.name, w, sys, policy, spec.steady);
    if (!row) {
      std::printf("%-14s failed: %s\n", spec.name, row.error().c_str());
      all_pass = false;
      continue;
    }
    rows.push_back(*row);
    std::printf("%-14s %10.3f %10.3f %10.3f %10.3f %6llu %8llu %9.1f  %s\n",
                row->app.c_str(), row->static_s, row->online_s, row->seeded_s,
                row->tiering_s, static_cast<unsigned long long>(row->migrations),
                static_cast<unsigned long long>(row->partial), row->migrated_mb,
                row->pass ? (row->steady ? "within hysteresis" : "beats static")
                          : "VIOLATED");
    all_pass = all_pass && row->pass;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"online_placement\",\n");
  std::fprintf(out, "  \"hysteresis\": %.6g,\n", policy.hysteresis);
  std::fprintf(out, "  \"all_pass\": %s,\n", all_pass ? "true" : "false");
  std::fprintf(out, "  \"apps\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"app\": \"%s\", \"steady\": %s, \"static_s\": %.6f, "
                 "\"online_s\": %.6f, \"seeded_s\": %.6f, \"kernel_tiering_s\": %.6f, "
                 "\"migrations\": %llu, \"migrations_partial\": %llu, "
                 "\"migrations_cancelled\": %llu, "
                 "\"migrated_mb\": %.1f, \"migration_ms\": %.3f, \"pass\": %s}%s\n",
                 r.app.c_str(), r.steady ? "true" : "false", r.static_s, r.online_s,
                 r.seeded_s, r.tiering_s, static_cast<unsigned long long>(r.migrations),
                 static_cast<unsigned long long>(r.partial),
                 static_cast<unsigned long long>(r.cancelled), r.migrated_mb,
                 r.migration_ms, r.pass ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!all_pass) {
    std::fprintf(stderr, "error: online placement acceptance bound violated\n");
    return 1;
  }
  return 0;
}
