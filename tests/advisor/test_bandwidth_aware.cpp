#include "ecohmem/advisor/bandwidth_aware.hpp"

#include <gtest/gtest.h>

#include "ecohmem/advisor/knapsack.hpp"

namespace ecohmem::advisor {
namespace {

/// Site factory with the fields the bandwidth-aware pass inspects.
analyzer::SiteRecord make_site(trace::StackId id, Bytes size, std::uint64_t allocs,
                               double alloc_bw, double exec_bw, bool writes, Ns first = 0,
                               Ns last = 1'000'000) {
  analyzer::SiteRecord s;
  s.stack = id;
  s.callstack = bom::CallStack{{{0, 0x100 + id * 0x40}}};
  s.max_size = size;
  s.peak_live_bytes = size;
  s.alloc_count = allocs;
  s.alloc_time_system_bw_gbs = alloc_bw;
  s.exec_bw_gbs = exec_bw;
  s.has_writes = writes;
  s.first_alloc = first;
  s.last_free = last;
  s.load_misses = 1.0;
  return s;
}

BandwidthAwareOptions options() {
  BandwidthAwareOptions o;
  o.peak_pmem_bw_gbs = 10.0;  // thresholds: low < 2.0, high > 4.0
  return o;
}

Placement place(const std::vector<analyzer::SiteRecord>& sites,
                const std::vector<std::string>& tiers) {
  Placement p;
  p.fallback_tier = "pmem";
  for (std::size_t i = 0; i < sites.size(); ++i) {
    PlacementDecision d;
    d.stack = sites[i].stack;
    d.callstack = sites[i].callstack;
    d.tier = tiers[i];
    d.footprint = sites[i].peak_live_bytes;
    p.decisions.push_back(d);
  }
  return p;
}

TEST(Categorize, TableIVCriteria) {
  const auto opt = options();
  // Fitting: DRAM, < T_ALLOC allocations, alloc-bw below T_PMEMLOW.
  EXPECT_EQ(categorize(make_site(0, 100, 1, 1.0, 0.1, true), "dram", opt), Category::kFitting);
  // Streaming-D: DRAM, > T_ALLOC allocations, no writes, low alloc-bw.
  EXPECT_EQ(categorize(make_site(1, 100, 10, 1.0, 0.1, false), "dram", opt),
            Category::kStreamingD);
  // Writes disqualify Streaming-D.
  EXPECT_EQ(categorize(make_site(2, 100, 10, 1.0, 0.1, true), "dram", opt), Category::kNone);
  // Thrashing: PMEM, > T_ALLOC allocations, alloc-bw above T_PMEMHIGH.
  EXPECT_EQ(categorize(make_site(3, 100, 10, 5.0, 3.0, true), "pmem", opt),
            Category::kThrashing);
  // Low-bandwidth PMem object is not Thrashing.
  EXPECT_EQ(categorize(make_site(4, 100, 10, 1.0, 0.1, true), "pmem", opt), Category::kNone);
  // Exactly T_ALLOC allocations qualifies for neither (> and < are strict).
  EXPECT_EQ(categorize(make_site(5, 100, 2, 1.0, 0.1, false), "dram", opt), Category::kNone);
}

TEST(Categorize, ToStringNames) {
  EXPECT_EQ(to_string(Category::kFitting), "Fitting");
  EXPECT_EQ(to_string(Category::kStreamingD), "Streaming-D");
  EXPECT_EQ(to_string(Category::kThrashing), "Thrashing");
  EXPECT_EQ(to_string(Category::kNone), "none");
}

TEST(Algorithm1, StreamingDMovedToPmem) {
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 100, 10, 1.0, 0.1, false),  // Streaming-D
  };
  const Placement base = place(sites, {"dram"});
  const AdvisorConfig cfg = AdvisorConfig::dram_pmem(1000, 0.0);
  const auto result = place_bandwidth_aware(sites, base, cfg, options());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->streaming_moved, 1u);
  EXPECT_EQ(result->placement.tier_of(0), "pmem");
}

TEST(Algorithm1, ThrashingSwapsWithSmallestAccommodatingFitting) {
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 500, 1, 1.0, 0.1, true, 0, 1'000'000),   // Fitting, big
      make_site(1, 200, 1, 1.0, 0.1, true, 0, 1'000'000),   // Fitting, small
      make_site(2, 150, 10, 5.0, 2.0, true, 100, 900'000),  // Thrashing
  };
  const Placement base = place(sites, {"dram", "dram", "pmem"});
  const AdvisorConfig cfg = AdvisorConfig::dram_pmem(1000, 0.0);
  const auto result = place_bandwidth_aware(sites, base, cfg, options());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->swaps, 1u);
  EXPECT_EQ(result->placement.tier_of(2), "dram");
  // The *smallest* accommodating Fitting object (site 1) is displaced.
  EXPECT_EQ(result->placement.tier_of(1), "pmem");
  EXPECT_EQ(result->placement.tier_of(0), "dram");
}

TEST(Algorithm1, FittingMustCoverThrashingLifetime) {
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 500, 1, 1.0, 0.1, true, 0, 400),       // Fitting but dies early
      make_site(1, 200, 10, 5.0, 2.0, true, 100, 9'000),  // Thrashing outlives it
  };
  const Placement base = place(sites, {"dram", "pmem"});
  const AdvisorConfig cfg = AdvisorConfig::dram_pmem(1000, 0.0);
  const auto result = place_bandwidth_aware(sites, base, cfg, options());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->swaps, 0u);
  EXPECT_EQ(result->placement.tier_of(1), "pmem");
}

TEST(Algorithm1, FittingMustBeLargeEnough) {
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 100, 1, 1.0, 0.1, true),       // Fitting, too small
      make_site(1, 200, 10, 5.0, 2.0, true, 10, 900'000),  // Thrashing (bigger)
  };
  const Placement base = place(sites, {"dram", "pmem"});
  const AdvisorConfig cfg = AdvisorConfig::dram_pmem(1000, 0.0);
  const auto result = place_bandwidth_aware(sites, base, cfg, options());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->swaps, 0u);
}

TEST(Algorithm1, EachFittingConsumedOnce) {
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 300, 1, 1.0, 0.1, true, 0, 1'000'000),   // one Fitting
      make_site(1, 200, 10, 5.0, 4.0, true, 10, 900'000),   // Thrashing, higher bw
      make_site(2, 200, 10, 5.0, 2.0, true, 10, 900'000),   // Thrashing, lower bw
  };
  const Placement base = place(sites, {"dram", "pmem", "pmem"});
  const AdvisorConfig cfg = AdvisorConfig::dram_pmem(1000, 0.0);
  const auto result = place_bandwidth_aware(sites, base, cfg, options());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->swaps, 1u);
  // The higher-bandwidth Thrashing object wins the single Fitting slot.
  EXPECT_EQ(result->placement.tier_of(1), "dram");
  EXPECT_EQ(result->placement.tier_of(2), "pmem");
  EXPECT_EQ(result->placement.tier_of(0), "pmem");
}

TEST(Algorithm1, NoCategoriesMeansIdentityPlacement) {
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 100, 1, 5.0, 0.1, true),  // DRAM but high alloc-bw: none
      make_site(1, 100, 1, 1.0, 0.1, true),  // PMEM, 1 alloc: none
  };
  const Placement base = place(sites, {"dram", "pmem"});
  const AdvisorConfig cfg = AdvisorConfig::dram_pmem(1000, 0.0);
  const auto result = place_bandwidth_aware(sites, base, cfg, options());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->swaps, 0u);
  EXPECT_EQ(result->streaming_moved, 0u);
  EXPECT_EQ(result->placement.tier_of(0), "dram");
  EXPECT_EQ(result->placement.tier_of(1), "pmem");
}

TEST(Algorithm1, CategoriesReportedPerSite) {
  const std::vector<analyzer::SiteRecord> sites = {
      make_site(0, 500, 1, 1.0, 0.1, true),
      make_site(1, 200, 10, 5.0, 2.0, true, 10, 900'000),
  };
  const Placement base = place(sites, {"dram", "pmem"});
  const AdvisorConfig cfg = AdvisorConfig::dram_pmem(1000, 0.0);
  const auto result = place_bandwidth_aware(sites, base, cfg, options());
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->categories.size(), 2u);
  EXPECT_EQ(result->categories[0].category, Category::kFitting);
  EXPECT_EQ(result->categories[1].category, Category::kThrashing);
}

/// Property: the pass never invents or drops decisions, whatever the
/// thresholds.
class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, DecisionSetPreserved) {
  std::vector<analyzer::SiteRecord> sites;
  std::vector<std::string> tiers;
  for (trace::StackId i = 0; i < 10; ++i) {
    sites.push_back(make_site(i, 100 + i * 50, 1 + i, static_cast<double>(i), 1.0, i % 2 == 0,
                              0, 1'000'000));
    tiers.push_back(i % 3 == 0 ? "dram" : "pmem");
  }
  const Placement base = place(sites, tiers);
  AdvisorConfig cfg = AdvisorConfig::dram_pmem(10'000, 0.0);
  BandwidthAwareOptions opt = options();
  opt.t_pmem_high = GetParam();
  const auto result = place_bandwidth_aware(sites, base, cfg, opt);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->placement.decisions.size(), base.decisions.size());
  for (const auto& d : result->placement.decisions) {
    EXPECT_TRUE(d.tier == "dram" || d.tier == "pmem");
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0.1, 0.2, 0.4, 0.6, 0.9));

}  // namespace
}  // namespace ecohmem::advisor
