// Golden-output tests of the analyzer: FNV-1a digests of complete
// AnalysisResults pinned as constants, so any change to the per-site
// fold — sample attribution, window closing, the bandwidth timeline,
// the function profiles — fails here even when two code paths still
// agree with each other.
//
// The pinned values are outputs of the analyzer, not targets: a change
// that is meant to alter analysis results re-pins them and says so in
// its description. A failure prints the actual values to copy in.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis_digest.hpp"

namespace ecohmem::analyzer {
namespace {

struct AppGolden {
  const char* app;
  std::uint64_t events;
  std::uint64_t digest;
};

// Every registered app, profiled for two iterations on the paper
// system with all objects in tier 1 (testing::profile_app).
constexpr AppGolden kApps[] = {
    {"minife", 4212, 0x262edb3976669518ull},
    {"minimd", 5713, 0x7eccbff7f6c7fe8dull},
    {"lulesh", 7457, 0x7256305fee191a2dull},
    {"hpcg", 6419, 0x3ae6eb734f55d675ull},
    {"cloverleaf3d", 5107, 0x787ed8be2b011777ull},
    {"lammps", 11989, 0xb178586056025c9dull},
    {"openfoam", 13353, 0xe333242910e6ae43ull},
    {"phase-shift", 50248, 0x1a5c077e5988e75bull},
    {"large-hot", 30912, 0x44ca052825dd9e18ull},
};

struct SyntheticGolden {
  std::uint64_t seed;
  bool with_uncore;
  std::uint64_t digest;
};

// testing::synthetic_trace at 100k events: live sets of thousands of
// objects, freed in random order.
constexpr SyntheticGolden kSynthetic[] = {
    {1, true, 0x6be76fa6700130aeull},
    {1, false, 0x8e7743e9be22577aull},
    {2, true, 0xa00754b303f9c2d0ull},
};

// The same traces with 100 us bandwidth bins instead of 10 ms: ~10k
// bins, so object lifetimes span thousands of bins and batches of
// windows end on ragged, unaligned bins.
constexpr SyntheticGolden kSyntheticFineBins[] = {
    {1, true, 0xd3cf1e9870e9aeb5ull},
    {1, false, 0x3170ff9b704538f0ull},
    {2, true, 0x456225fdc0a288eaull},
};

TEST(AnalysisGolden, RegisteredAppsMatchPinnedDigests) {
  for (const AppGolden& g : kApps) {
    SCOPED_TRACE(g.app);
    const trace::Trace t = testing::profile_app(g.app);
    const auto result = analyze(t);
    ASSERT_TRUE(result.has_value()) << result.error();
    EXPECT_EQ(t.events.size(), g.events);
    EXPECT_EQ(testing::digest(*result), g.digest)
        << std::hex << "{\"" << g.app << "\", " << std::dec << t.events.size() << ", 0x"
        << std::hex << testing::digest(*result) << "ull}";
  }
}

TEST(AnalysisGolden, HandBuiltTraceMatchesPinnedDigest) {
  const auto result = analyze(testing::hand_built_trace());
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_EQ(testing::digest(*result), testing::kHandBuiltDigest)
      << std::hex << "0x" << testing::digest(*result) << "ull";
  // The corner cases the trace is built around, spelled out.
  EXPECT_EQ(result->sites.size(), 3u);
  ASSERT_EQ(result->functions.size(), 4u);
  EXPECT_EQ(result->functions[3].name, "store_only");
  EXPECT_EQ(result->functions[3].load_samples, 0.0);
  EXPECT_EQ(result->unattributed_samples, 1.25 + 1.0 + 0.75);
}

TEST(AnalysisGolden, SyntheticTracesMatchPinnedDigests) {
  for (const SyntheticGolden& g : kSynthetic) {
    SCOPED_TRACE("seed " + std::to_string(g.seed) + (g.with_uncore ? " uncore" : " samples"));
    const auto result = analyze(testing::synthetic_trace(100'000, g.seed, g.with_uncore));
    ASSERT_TRUE(result.has_value()) << result.error();
    EXPECT_EQ(testing::digest(*result), g.digest)
        << std::hex << "0x" << testing::digest(*result) << "ull";
  }
}

TEST(AnalysisGolden, SyntheticTracesWithFineBinsMatchPinnedDigests) {
  AnalyzerOptions options;
  options.bw_bin_ns = 100'000;
  for (const SyntheticGolden& g : kSyntheticFineBins) {
    SCOPED_TRACE("seed " + std::to_string(g.seed) + (g.with_uncore ? " uncore" : " samples"));
    const auto result = analyze(testing::synthetic_trace(100'000, g.seed, g.with_uncore), options);
    ASSERT_TRUE(result.has_value()) << result.error();
    EXPECT_GE(result->system_bw.size(), 5'000u);
    EXPECT_EQ(testing::digest(*result), g.digest)
        << std::hex << "0x" << testing::digest(*result) << "ull";
  }
}

}  // namespace
}  // namespace ecohmem::analyzer
