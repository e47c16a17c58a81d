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
    {"minife", 4212, 0x76da63760dc1c53cull},
    {"minimd", 5713, 0x7bf9cd46696da2d8ull},
    {"lulesh", 7457, 0x9a811954a8288666ull},
    {"hpcg", 6419, 0x8c8e37dddc62d1bdull},
    {"cloverleaf3d", 5107, 0x167b1bad00a6eecbull},
    {"lammps", 11989, 0x5dc2e7e69da6ae2full},
    {"openfoam", 13353, 0xbd493e384197f1d1ull},
    {"phase-shift", 50248, 0xff7d3b265d4fbd5cull},
    {"large-hot", 30912, 0xde80e8b4e475d040ull},
};

struct SyntheticGolden {
  std::uint64_t seed;
  bool with_uncore;
  std::uint64_t digest;
};

// testing::synthetic_trace at 100k events: live sets of thousands of
// objects, freed in random order.
constexpr SyntheticGolden kSynthetic[] = {
    {1, true, 0x8b9f46f0474f49e6ull},
    {1, false, 0x5a9aed713f8247d9ull},
    {2, true, 0x578ea090d6cba50cull},
};

// The same traces with 100 us bandwidth bins instead of 10 ms: ~10k
// bins, so live windows span thousands of bins and batches of windows
// end on ragged, unaligned bins.
constexpr SyntheticGolden kSyntheticFineBins[] = {
    {1, true, 0x997894413d32f5a9ull},
    {1, false, 0xfec637d9a80d89e7ull},
    {2, true, 0x44f9aa48f0e1dc06ull},
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
