// Golden-output tests of the replay engine: digests of complete
// RunMetrics pinned as constants, so any change to the simulated
// results — the online sampler's stream assignment, the order
// migrations are applied in, the bandwidth timeline, OOM redirection —
// fails here even when two runs of the same build still agree with each
// other (which is all MigrationSequenceIsDeterministic can check).
//
// The pinned values are outputs of the engine, not targets: a change
// that is meant to alter simulated results re-pins them and says so in
// its description. A failure prints the actual values to copy in.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ecohmem/apps/apps.hpp"
#include "ecohmem/core/ecohmem.hpp"
#include "ecohmem/flexmalloc/report_parser.hpp"
#include "ecohmem/online/policy_config.hpp"
#include "ecohmem/runtime/guidance.hpp"

namespace ecohmem {
namespace {

constexpr Bytes kDramLimit = 12ull << 30;

/// FNV-1a over a canonical byte encoding; doubles hash by bit pattern,
/// so the digest is bit-exact, not tolerance-based.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Digest of every field of a run's metrics, migration log included.
std::uint64_t digest(const runtime::RunMetrics& m) {
  Digest d;
  d.add(m.workload);
  d.add(m.mode);
  d.add(static_cast<std::uint64_t>(m.total_ns));
  for (const double v : {m.compute_ns, m.load_stall_ns, m.store_stall_ns, m.bw_limited_extra_ns,
                         m.alloc_overhead_ns, m.total_load_misses, m.total_store_misses,
                         m.dram_cache_hit_ratio}) {
    d.add(v);
  }
  for (const auto& f : m.functions) {
    d.add(f.function);
    for (const double v : {f.instructions, f.cycles, f.load_misses, f.latency_weight_sum}) {
      d.add(v);
    }
  }
  for (const auto& t : m.tier_traffic) {
    d.add(t.tier);
    d.add(t.read_bytes);
    d.add(t.write_bytes);
  }
  for (const auto& series : m.tier_bw) {
    d.add(static_cast<std::uint64_t>(series.size()));
    for (const auto& p : series) {
      d.add(static_cast<std::uint64_t>(p.time));
      d.add(p.gbs);
    }
  }
  for (const std::uint64_t v : {m.allocations, m.frees, m.oom_redirects, m.migrations_scheduled,
                                m.migrations, m.migrations_partial, m.migrations_cancelled,
                                std::uint64_t{m.migrated_bytes}}) {
    d.add(v);
  }
  d.add(m.migration_ns);
  d.add(static_cast<std::uint64_t>(m.migration_events.size()));
  for (const auto& e : m.migration_events) {
    d.add(static_cast<std::uint64_t>(e.at));
    d.add(static_cast<std::uint64_t>(e.object));
    d.add(static_cast<std::uint64_t>(e.from_tier));
    d.add(static_cast<std::uint64_t>(e.to_tier));
    d.add(std::uint64_t{e.bytes});
    d.add(std::uint64_t{e.offset});
    d.add(std::uint64_t{e.partial});
  }
  return d.value();
}

constexpr Bytes kGiB = 1ull << 30;

struct OnlineGolden {
  const char* app;
  Bytes budget;  ///< DRAM limit the advisor planned the placement for
  bool seeded;   ///< guidance from the 12 GB report (--from-report)
  Ns total_ns;
  std::uint64_t migrations;
  std::uint64_t digest;
};

// Default policy (= configs/online_policy.ini) over an advisor
// placement, replayed into a 12 GB DRAM heap as `ecohmem-run --online`
// does. Seeding from the report of the placement itself changes
// nothing on these apps; seeding a 4 GB placement from the 12 GB report
// strands guided objects in PMem and exercises the seeded promotions.
constexpr OnlineGolden kOnline[] = {
    {"phase-shift", 12 * kGiB, false, 426613949939, 22, 0xac6829da8ccf8a43ull},
    {"phase-shift", 12 * kGiB, true, 426613949939, 22, 0xac6829da8ccf8a43ull},
    {"phase-shift", 4 * kGiB, false, 433247981753, 23, 0x42170acf86f5ec5aull},
    {"phase-shift", 4 * kGiB, true, 427421495758, 24, 0x20c7f1890df52775ull},
    {"large-hot", 12 * kGiB, false, 559653868915, 3, 0x3eb283085ef51b6ull},
    {"large-hot", 12 * kGiB, true, 559653868915, 3, 0x3eb283085ef51b6ull},
    {"openfoam", 12 * kGiB, false, 402147524248, 1, 0xc7b3783cf692775dull},
    {"openfoam", 12 * kGiB, true, 402147524248, 1, 0xc7b3783cf692775dull},
};

TEST(ReplayGolden, OnlineRunsMatchPinnedDigests) {
  const auto system = *memsim::paper_system(6);
  const online::OnlinePolicyConfig policy;
  for (const OnlineGolden& g : kOnline) {
    SCOPED_TRACE(std::string(g.app) + " planned for " + std::to_string(g.budget / kGiB) +
                 " GB" + (g.seeded ? ", seeded" : ", cold"));
    const auto workload = apps::make_app(g.app, {});
    const auto workflow = core::run_workflow(workload, system);
    ASSERT_TRUE(workflow.has_value()) << workflow.error();
    core::WorkflowOptions planned_options;
    planned_options.dram_limit = g.budget;
    const auto planned = core::run_workflow(workload, system, planned_options);
    ASSERT_TRUE(planned.has_value()) << planned.error();

    runtime::EngineOptions options;
    options.online_policy = &policy;
    std::optional<runtime::GuidanceSeed> guidance;
    if (g.seeded) {
      const auto report = flexmalloc::parse_report(workflow->report_text, *workload.modules);
      ASSERT_TRUE(report.has_value()) << report.error();
      auto seed = runtime::GuidanceSeed::build(workload, *report);
      ASSERT_TRUE(seed.has_value()) << seed.error();
      guidance = std::move(*seed);
      options.guidance = &*guidance;
    }
    const auto run = core::run_with_placement(workload, system, planned->placement, kDramLimit,
                                              advisor::ReportFormat::kBom, options);
    ASSERT_TRUE(run.has_value()) << run.error();

    const std::uint64_t actual = digest(*run);
    EXPECT_EQ(run->total_ns, g.total_ns);
    EXPECT_EQ(run->migrations, g.migrations);
    EXPECT_EQ(actual, g.digest) << std::hex << "actual digest 0x" << actual;
  }
}

struct StaticGolden {
  const char* app;
  Bytes dram_heap;  ///< FlexMalloc DRAM heap the placement replays into
  Ns total_ns;
  std::uint64_t oom_redirects;
  std::uint64_t digest;
};

// The advisor's 12 GB placement for the Fig. 6 mini-apps, replayed
// app-direct (no online policy) into the DRAM heap it was planned for
// and into a 4 GB one, where FlexMalloc's OOM redirection decides
// where the overflow lands.
constexpr StaticGolden kStatic[] = {
    {"minife", 12 * kGiB, 196846118726, 0, 0xc3753681ab0e1a0full},
    {"minife", 4 * kGiB, 204588230816, 2, 0xd1c0d0730d8a254full},
    {"minimd", 12 * kGiB, 290980671440, 0, 0x43548e24b37cf544ull},
    {"minimd", 4 * kGiB, 311327067360, 2, 0x3f0af56f37d72128ull},
    {"lulesh", 12 * kGiB, 212963062703, 0, 0xb866700548598528ull},
    {"lulesh", 4 * kGiB, 230354921383, 25, 0x3991375f3276c48ull},
    {"hpcg", 12 * kGiB, 272094676671, 0, 0xa867790c28ddc8ull},
    {"hpcg", 4 * kGiB, 408607744171, 4, 0xd4e94b018953bfb6ull},
    {"cloverleaf3d", 12 * kGiB, 167718718063, 0, 0xc21cf71585ceb860ull},
    {"cloverleaf3d", 4 * kGiB, 213975609103, 5, 0xf245fccc5ba2fa41ull},
};

TEST(ReplayGolden, StaticFig6RunsMatchPinnedTotals) {
  const auto system = *memsim::paper_system(6);
  for (const StaticGolden& g : kStatic) {
    SCOPED_TRACE(std::string(g.app) + " into " + std::to_string(g.dram_heap / kGiB) + " GB");
    const auto workload = apps::make_app(g.app, {});
    const auto workflow = core::run_workflow(workload, system);
    ASSERT_TRUE(workflow.has_value()) << workflow.error();
    const auto run = core::run_with_placement(workload, system, workflow->placement, g.dram_heap);
    ASSERT_TRUE(run.has_value()) << run.error();

    const std::uint64_t actual = digest(*run);
    EXPECT_EQ(run->total_ns, g.total_ns);
    EXPECT_EQ(run->oom_redirects, g.oom_redirects);
    EXPECT_EQ(actual, g.digest) << std::hex << "actual digest 0x" << actual;
  }
}

}  // namespace
}  // namespace ecohmem
