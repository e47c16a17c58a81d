// Golden-output tests of the advisor artifacts ecohmem-advisor writes:
// FNV-1a digests, pinned as constants, of the BOM placement report
// (density knapsack alone, then refined by the bandwidth-aware pass)
// and of the per-site table and CSV, for every registered app under
// configs/advisor_dram_pmem.ini. A refactor of the analyzer or the
// advisor that changes a byte of any of them fails here.
//
// The pinned values are outputs, not targets: a change that is meant to
// alter an artifact re-pins them and says so in its description. A
// failure prints the actual row to copy in.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>

#include "../analyzer/analysis_digest.hpp"
#include "ecohmem/advisor/advisor_config.hpp"
#include "ecohmem/advisor/bandwidth_aware.hpp"
#include "ecohmem/advisor/knapsack.hpp"
#include "ecohmem/advisor/report.hpp"
#include "ecohmem/analyzer/site_report.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/common/config.hpp"

namespace ecohmem::advisor {
namespace {

struct ReportGolden {
  const char* app;
  std::uint64_t density_report;  ///< place_by_density, BOM format
  std::uint64_t bw_report;       ///< then place_bandwidth_aware
  std::uint64_t site_table;      ///< site_table_to_string
  std::uint64_t site_csv;        ///< write_site_csv (what save_site_csv writes)
};

// Every registered app, profiled by testing::profile_app. On these
// short profiles Algorithm 1 finds no swap and no Streaming-D site, so
// the refined report equals the density one.
constexpr ReportGolden kApps[] = {
    {"minife", 0xa37e3eae1bb8f823ull, 0xa37e3eae1bb8f823ull, 0x1212ffebabad7ba9ull,
     0x99b4854408f10797ull},
    {"minimd", 0x2b6421854c374c04ull, 0x2b6421854c374c04ull, 0xe02b1b40fd5bbf7eull,
     0xc452ef26e3f28033ull},
    {"lulesh", 0xb57c0c14830122c1ull, 0xb57c0c14830122c1ull, 0x7ad3c67aa555a2e4ull,
     0xe10e77931e850751ull},
    {"hpcg", 0x5ee8c5cf644ad0b8ull, 0x5ee8c5cf644ad0b8ull, 0xdb60973d61993cfcull,
     0xdd2bef691fd59686ull},
    {"cloverleaf3d", 0xbf68797f894e730bull, 0xbf68797f894e730bull, 0x563aad34f7605457ull,
     0x7d310f3747b93a8bull},
    {"lammps", 0xd7c5070b1d0c6614ull, 0xd7c5070b1d0c6614ull, 0xeef1500df2d32196ull,
     0x6550fde82f1260f6ull},
    {"openfoam", 0x76c123d8d5ee17a2ull, 0x76c123d8d5ee17a2ull, 0x589576f2d8ba4b56ull,
     0x325807d6510695abull},
    {"phase-shift", 0x59f10756e69b3ea4ull, 0x59f10756e69b3ea4ull, 0x6239e20deeffa480ull,
     0x3049cf3e5490e805ull},
    {"large-hot", 0x35cafe56585a17c1ull, 0x35cafe56585a17c1ull, 0x67dd48bc037ab288ull,
     0x8780599ba0bf41a3ull},
};

std::uint64_t digest_text(const std::string& text) {
  analyzer::testing::Digest d;
  d.add(text);
  return d.value();
}

TEST(ReportGolden, RegisteredAppsMatchPinnedDigests) {
  const auto file = Config::load(ECOHMEM_ADVISOR_CONFIG);
  ASSERT_TRUE(file.has_value()) << file.error();
  const auto config = AdvisorConfig::from_config(*file);
  ASSERT_TRUE(config.has_value()) << config.error();

  for (const ReportGolden& g : kApps) {
    SCOPED_TRACE(g.app);
    const trace::Trace t = analyzer::testing::profile_app(g.app);
    apps::AppOptions opt;
    opt.iterations = 2;
    const runtime::Workload workload = apps::make_app(g.app, opt);  // for its module table
    const bom::ModuleTable& modules = *workload.modules;
    const auto analysis = analyzer::analyze(t);
    ASSERT_TRUE(analysis.has_value()) << analysis.error();

    auto placement = place_by_density(analysis->sites, *config);
    ASSERT_TRUE(placement.has_value()) << placement.error();
    const auto density = report_to_string(*placement, ReportFormat::kBom, modules);
    ASSERT_TRUE(density.has_value()) << density.error();

    BandwidthAwareOptions bw;
    bw.peak_pmem_bw_gbs = analysis->observed_peak_bw_gbs;
    bw.dram_tier = config->tiers.front().name;
    bw.pmem_tier = config->fallback_tier().name;
    const auto refined = place_bandwidth_aware(analysis->sites, *placement, *config, bw);
    ASSERT_TRUE(refined.has_value()) << refined.error();
    const auto bw_report = report_to_string(refined->placement, ReportFormat::kBom, modules);
    ASSERT_TRUE(bw_report.has_value()) << bw_report.error();

    std::ostringstream csv;
    analyzer::write_site_csv(csv, *analysis, modules);

    const ReportGolden got{g.app, digest_text(*density), digest_text(*bw_report),
                           digest_text(analyzer::site_table_to_string(*analysis, modules)),
                           digest_text(csv.str())};
    const auto row = [&] {
      std::ostringstream s;
      s << std::hex << "{\"" << g.app << "\", 0x" << got.density_report << "ull, 0x"
        << got.bw_report << "ull, 0x" << got.site_table << "ull, 0x" << got.site_csv << "ull}";
      return s.str();
    };
    EXPECT_EQ(got.density_report, g.density_report) << row();
    EXPECT_EQ(got.bw_report, g.bw_report) << row();
    EXPECT_EQ(got.site_table, g.site_table) << row();
    EXPECT_EQ(got.site_csv, g.site_csv) << row();
  }
}

}  // namespace
}  // namespace ecohmem::advisor
