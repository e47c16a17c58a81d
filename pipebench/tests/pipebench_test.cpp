// The benchmark's own tests: the tail-percentile rule, generator
// determinism, and every workload with its correctness gates at a small
// size.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "ecohmem/trace/codec.hpp"
#include "gen.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace pipebench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Tail, TenSamplesBeyondTheHighestQualifyingPercentile) {
  // 1..100: the value 90 has exactly 10 samples above it.
  const Tail t = tail(iota(100));
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
}

TEST(Tail, OrderOfSamplesDoesNotMatter) {
  auto v = iota(40);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tail(v).value, 30.0);
}

TEST(Tail, TiesAtTheCutAreNotBeyond) {
  // 40 samples: 1..29, then 11 copies of 50. No value equal to 50 has
  // anything beyond it; 29 has 11 beyond.
  std::vector<double> v = iota(29);
  v.insert(v.end(), 11, 50.0);
  const Tail t = tail(v);
  EXPECT_EQ(t.value, 29.0);
  EXPECT_EQ(t.beyond, 11u);
}

TEST(Tail, NeverBelowTheMedian) {
  // With 15 samples the value with 10 beyond is the 5th smallest: not a
  // tail. The maximum is reported instead.
  const Tail t = tail(iota(15));
  EXPECT_EQ(t.value, 15.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(tail(iota(21)).value, 11.0);
  EXPECT_EQ(tail(iota(20)).value, 20.0);
}

TEST(Tail, TooFewSamplesReportTheMaximum) {
  const Tail t = tail(iota(10));
  EXPECT_EQ(t.value, 10.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_EQ(tail(std::vector<double>(30, 7.0)).value, 7.0);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, ChildrenAreSubtractedOnce) {
  const auto t0 = Clock::now();
  const auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  // Parent 0..100 with children 10..40 and 30..60 (overlapping, as
  // spans from two threads can be) and a grandchild 15..20.
  const std::vector<Span> spans = {{1, 0, 1, "pass", at(0), at(100)},
                                   {2, 1, 1, "a", at(10), at(40)},
                                   {3, 1, 1, "b", at(30), at(60)},
                                   {4, 2, 1, "c", at(15), at(20)}};
  const auto self = self_ms(spans);
  EXPECT_NEAR(self[0], 50.0, 1e-9);
  EXPECT_NEAR(self[1], 25.0, 1e-9);
  EXPECT_NEAR(self[2], 30.0, 1e-9);
  EXPECT_NEAR(self[3], 5.0, 1e-9);
}

bool same_events(const ecohmem::trace::Trace& a, const ecohmem::trace::Trace& b) {
  if (a.events.size() != b.events.size() || a.stacks.size() != b.stacks.size()) return false;
  for (std::size_t i = 0; i < a.stacks.size(); ++i) {
    if (!(a.stacks.stack(static_cast<ecohmem::trace::StackId>(i)) ==
          b.stacks.stack(static_cast<ecohmem::trace::StackId>(i)))) {
      return false;
    }
  }
  // The plain codec writes every field of every event.
  std::string ea;
  std::string eb;
  for (const auto& e : a.events) ecohmem::trace::codec::encode_event_plain(ea, e);
  for (const auto& e : b.events) ecohmem::trace::codec::encode_event_plain(eb, e);
  return ea == eb;
}

TEST(Generator, SameSeedSameTrace) {
  GenOptions options;
  options.events = 50'000;
  options.sites = 300;
  const Generated a = generate(options);
  const Generated b = generate(options);
  EXPECT_TRUE(same_events(a.trace, b.trace));
  EXPECT_EQ(a.peak_live, b.peak_live);
  options.seed = 2;
  EXPECT_FALSE(same_events(a.trace, generate(options).trace));
}

TEST(Generator, ShapeFollowsTheParameters) {
  GenOptions options;
  options.events = 100'000;
  options.sites = 500;
  const Generated g = generate(options);
  EXPECT_GE(g.trace.events.size(), options.events);
  EXPECT_EQ(g.trace.stacks.size(), options.sites);
  // About long_lived * kAllocShare of all events stay live.
  const double expected = options.long_lived * kAllocShare * 100'000;
  EXPECT_GT(static_cast<double>(g.peak_live), 0.8 * expected);
  options.long_lived = 0.1;
  EXPECT_LT(generate(options).peak_live, g.peak_live / 2);
}

class SmallRun : public testing::TestWithParam<const char*> {};

TEST_P(SmallRun, PassesItsGates) {
  const std::string name = GetParam();
  RunResult (*run)(const RunConfig&) = name == "app-pipeline"   ? run_app_pipeline
                                       : name == "trace-advise" ? run_trace_advise
                                                                : run_serve_stream;
  // Relative to the working directory (the build directory under ctest),
  // which also keeps the socket path short.
  const std::filesystem::path scratch = "pipebench_test_" + name;
  std::filesystem::create_directories(scratch);
  for (const bool trace : {false, true}) {
    RunConfig config;
    config.small = true;
    config.trace = trace;
    config.seconds = 0.1;
    config.root = PIPEBENCH_ROOT;
    config.scratch = scratch.string();
    const RunResult result = run(config);
    for (const auto& note : result.notes) std::printf("  %s\n", note.c_str());
    EXPECT_TRUE(result.correct) << name << " trace=" << trace;
    EXPECT_EQ(result.failed, 0u);
    EXPECT_GT(result.attempted, 0u);
    std::map<std::string, double> metrics;
    for (const auto& [metric, value] : result.metrics) metrics[metric] = value.first;
    if (trace) {
      EXPECT_GT(metrics["bench.trace_overhead_ratio"], 0.0);
      EXPECT_GT(metrics["pass_ms"], 0.0);
    } else {
      EXPECT_EQ(metrics.size(), 5u);
      for (const auto& [metric, value] : metrics) EXPECT_GT(value, 0.0) << metric;
    }
  }
  std::filesystem::remove_all(scratch);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmallRun,
                         testing::Values("app-pipeline", "trace-advise", "serve-stream"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace pipebench
