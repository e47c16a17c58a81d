// Realloc support across the stack: builder validation, engine replay,
// FlexMalloc tier stability, profiler/analyzer bookkeeping.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <variant>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/engine.hpp"

namespace ecohmem::runtime {
namespace {

Workload growing_buffer_workload() {
  WorkloadBuilder b("grow");
  const auto mod = b.add_module("g.x", 1 << 20, 0);
  const auto site = b.add_site(mod, "grow_buf", "g.cc", 1);
  const auto obj = b.add_object(site, 1 << 20, AccessPattern::kSequential, 0.1, 0.5, 0.0);
  const auto k = b.add_kernel("touch", 1e7, 1e6, {KernelAccess{obj, 1e4, 1e3, 1 << 20}});
  b.alloc(obj);
  b.run_kernel(k);
  b.realloc(obj, 4 << 20);
  b.run_kernel(k);
  b.realloc(obj, 16 << 20);
  b.run_kernel(k);
  b.free(obj);
  return b.build();
}

TEST(Realloc, BuilderTracksHighWaterThroughResizes) {
  const Workload w = growing_buffer_workload();
  EXPECT_EQ(w.heap_high_water, Bytes{16u << 20});
}

TEST(Realloc, BuilderRejectsReallocOfDeadObject) {
  WorkloadBuilder b("bad");
  const auto mod = b.add_module("b.x", 1 << 20, 0);
  const auto site = b.add_site(mod, "s", "b.cc", 1);
  const auto obj = b.add_object(site, 64, AccessPattern::kSequential, 0.0, 0.5);
  b.realloc(obj, 128);
  EXPECT_THROW(b.build(), std::logic_error);
}

TEST(Realloc, ShrinkReducesLiveBytes) {
  WorkloadBuilder b("shrink");
  const auto mod = b.add_module("s.x", 1 << 20, 0);
  const auto site = b.add_site(mod, "s", "s.cc", 1);
  const auto obj = b.add_object(site, 8 << 20, AccessPattern::kSequential, 0.0, 0.5);
  b.alloc(obj).realloc(obj, 1 << 20).free(obj);
  EXPECT_EQ(b.build().heap_high_water, Bytes{8u << 20});
}

TEST(Realloc, EngineReplaysThroughFixedTier) {
  const auto sys = *memsim::paper_system(6);
  FixedTierMode mode(&sys, 1);
  ExecutionEngine engine(&sys, {});
  const auto metrics = engine.run(growing_buffer_workload(), mode);
  ASSERT_TRUE(metrics.has_value()) << metrics.error();
  // alloc + 2 reallocs = 3 allocation events.
  EXPECT_EQ(metrics->allocations, 3u);
}

TEST(Realloc, FlexMallocKeepsTierAcrossResizes) {
  const auto sys = *memsim::paper_system(6);
  const Workload w = growing_buffer_workload();

  flexmalloc::ParsedReport report;
  report.fallback_tier = "pmem";
  report.entries.push_back(flexmalloc::ReportEntry{w.sites[0].stack, "dram", 0});
  auto fm = flexmalloc::FlexMalloc::create(
      {{"dram", 1ull << 30}, {"pmem", 1ull << 40}}, report, nullptr);
  ASSERT_TRUE(fm.has_value());

  AppDirectMode mode(&sys, &*fm);
  ExecutionEngine engine(&sys, {});
  ASSERT_TRUE(engine.run(w, mode).has_value());
  const auto stats = fm->stats();
  EXPECT_EQ(stats[0].allocations, 3u);  // all three instances in DRAM
  EXPECT_EQ(stats[1].allocations, 0u);
  EXPECT_EQ(fm->heap(0).used(), 0u);  // everything freed at the end
}

TEST(Realloc, ProfilerEmitsFreshAllocPerInstance) {
  const auto sys = *memsim::paper_system(6);
  profiler::Profiler prof;
  EngineOptions eopt;
  eopt.observer = &prof;
  ExecutionEngine engine(&sys, eopt);
  FixedTierMode mode(&sys, 1);
  ASSERT_TRUE(engine.run(growing_buffer_workload(), mode).has_value());
  const auto t = prof.take_trace();

  int allocs = 0;
  int frees = 0;
  std::map<std::uint64_t, Ns> alloc_time;  // object id -> alloc time
  double lifetime_ns = 0.0;                // summed [alloc, free) windows
  for (const auto& e : t.events) {
    if (const auto* a = std::get_if<trace::AllocEvent>(&e)) {
      ++allocs;
      alloc_time[a->object_id] = a->time;
    } else if (const auto* f = std::get_if<trace::FreeEvent>(&e)) {
      ++frees;
      lifetime_ns += static_cast<double>(f->time - alloc_time.at(f->object_id));
    }
  }
  EXPECT_EQ(allocs, 3);
  EXPECT_EQ(frees, 3);

  // The analyzer sees one site with three allocations of growing size.
  const auto analysis = analyzer::analyze(t);
  ASSERT_TRUE(analysis.has_value()) << analysis.error();
  ASSERT_EQ(analysis->sites.size(), 1u);
  EXPECT_EQ(analysis->sites[0].alloc_count, 3u);
  EXPECT_EQ(analysis->sites[0].max_size, Bytes{16u << 20});
  // Each instance's [alloc, free) window folds into the site lifetime.
  EXPECT_EQ(analysis->sites[0].total_lifetime_ns, lifetime_ns);
}

}  // namespace
}  // namespace ecohmem::runtime
