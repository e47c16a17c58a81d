// Cross-validation of the analytic LLC model against the reference
// set-associative cache simulation, on address streams where both are
// feasible (DESIGN.md D1). The analytic model trades exactness for
// scale; these tests pin down where its predictions must agree with the
// simulator and within what tolerance.

#include <gtest/gtest.h>

#include <ostream>

#include "ecohmem/memsim/analytic_cache.hpp"
#include "ecohmem/memsim/cache.hpp"
#include "ecohmem/memsim/stream_generator.hpp"

namespace ecohmem::memsim {
namespace {

/// Runs a stream through a scaled-down hierarchy and returns the LLC
/// load-miss count.
std::uint64_t simulate_llc_misses(const std::vector<MemoryRef>& refs, Bytes llc_bytes) {
  CacheHierarchy h({32 * 1024, 8, kCacheLine}, {256 * 1024, 8, kCacheLine},
                   {llc_bytes, 16, kCacheLine});
  for (const auto& r : refs) h.access(r.address, r.is_write);
  return h.llc_load_misses();
}

constexpr Bytes kLlc = 4ull * 1024 * 1024;  // small LLC keeps tests fast

TEST(StreamGenerator, SequentialCoversBufferInOrder) {
  Rng rng(1);
  StreamSpec spec;
  spec.base = 0x10000;
  spec.size = 1024 * kCacheLine;
  spec.accesses = 1024;
  const auto refs = generate_stream(spec, rng);
  ASSERT_EQ(refs.size(), 1024u);
  EXPECT_EQ(refs[0].address, 0x10000u);
  EXPECT_EQ(refs[1].address, 0x10000u + kCacheLine);
  EXPECT_EQ(refs.back().address, 0x10000u + 1023 * kCacheLine);
}

TEST(StreamGenerator, RandomStaysInBounds) {
  Rng rng(2);
  StreamSpec spec;
  spec.base = 0x1000;
  spec.size = 64 * kCacheLine;
  spec.accesses = 5000;
  spec.pattern = StreamPattern::kRandom;
  for (const auto& r : generate_stream(spec, rng)) {
    EXPECT_GE(r.address, spec.base);
    EXPECT_LT(r.address, spec.base + spec.size);
  }
}

TEST(StreamGenerator, WriteFractionHonored) {
  Rng rng(3);
  StreamSpec spec;
  spec.size = 1024 * kCacheLine;
  spec.accesses = 20000;
  spec.write_fraction = 0.25;
  std::size_t writes = 0;
  for (const auto& r : generate_stream(spec, rng)) writes += r.is_write ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(writes) / 20000.0, 0.25, 0.02);
}

TEST(StreamGenerator, InterleaveKeepsAllReferences) {
  Rng rng(4);
  StreamSpec a;
  a.base = 0;
  a.size = 128 * kCacheLine;
  a.accesses = 100;
  StreamSpec b = a;
  b.base = 1 << 20;
  b.accesses = 250;
  const auto refs = interleave_streams({a, b}, rng);
  EXPECT_EQ(refs.size(), 350u);
  // Round-robin: the first two references come from different buffers.
  EXPECT_LT(refs[0].address, 1u << 20);
  EXPECT_GE(refs[1].address, 1u << 20);
}

// ------------------------------------------------- analytic vs simulated

TEST(AnalyticValidation, ColdSequentialSweep) {
  // One pass over a buffer 4x the LLC: virtually every line is a miss in
  // both worlds.
  Rng rng(11);
  StreamSpec spec;
  spec.base = 1 << 24;
  spec.size = 4 * kLlc;
  spec.accesses = spec.size / kCacheLine;
  const auto simulated = simulate_llc_misses(generate_stream(spec, rng), kLlc);

  AnalyticCacheModel model(kLlc);
  const auto predicted = model.evaluate(
      {{static_cast<double>(spec.accesses), 0.0, static_cast<double>(spec.size), 0.0, 0.0}});

  EXPECT_NEAR(static_cast<double>(simulated), predicted.total_load_misses,
              predicted.total_load_misses * 0.05);
}

TEST(AnalyticValidation, ResidentBufferRepeatedSweeps) {
  // A buffer at 1/8 of the LLC swept 8 times: after the cold pass it
  // stays resident; both models must report ~cold-only misses.
  Rng rng(12);
  StreamSpec spec;
  spec.base = 1 << 24;
  spec.size = kLlc / 8;
  spec.accesses = 8 * spec.size / kCacheLine;
  const auto simulated = simulate_llc_misses(generate_stream(spec, rng), kLlc);

  AnalyticCacheModel model(kLlc);
  const auto predicted = model.evaluate(
      {{static_cast<double>(spec.accesses), 0.0, static_cast<double>(spec.size),
        /*friendliness=*/0.95, 0.0}});

  const double cold = static_cast<double>(spec.size) / kCacheLine;
  EXPECT_LT(static_cast<double>(simulated), cold * 1.3);
  EXPECT_LT(predicted.total_load_misses, cold * 1.8);
}

TEST(AnalyticValidation, ThrashingRandomBuffer) {
  // Random access over a buffer 8x the LLC: hit probability ~ LLC/size in
  // both worlds.
  Rng rng(13);
  StreamSpec spec;
  spec.base = 1 << 24;
  spec.size = 8 * kLlc;
  spec.accesses = 400'000;
  spec.pattern = StreamPattern::kRandom;
  const auto simulated = simulate_llc_misses(generate_stream(spec, rng), kLlc);

  AnalyticCacheModel model(kLlc);
  // friendliness ~1: random reuse *would* hit if resident; residency is
  // what limits it.
  const auto predicted = model.evaluate(
      {{static_cast<double>(spec.accesses), 0.0, static_cast<double>(spec.size), 1.0, 0.0}});

  const double sim_ratio = static_cast<double>(simulated) / static_cast<double>(spec.accesses);
  const double pred_ratio = predicted.total_load_misses / static_cast<double>(spec.accesses);
  EXPECT_NEAR(sim_ratio, pred_ratio, 0.15);
  EXPECT_GT(sim_ratio, 0.75);  // mostly missing, per both models
}

TEST(AnalyticValidation, CompetitionEvictsTheLargerWorkingSet) {
  // Two random-access buffers: alone each fits; together they thrash.
  // The analytic residency share must move in the same direction as the
  // simulator.
  Rng rng1(14);
  Rng rng2(14);
  StreamSpec a;
  a.base = 1 << 24;
  a.size = 3 * kLlc / 4;
  a.accesses = 200'000;
  a.pattern = StreamPattern::kRandom;
  StreamSpec b = a;
  b.base = 1 << 26;

  const auto alone = simulate_llc_misses(generate_stream(a, rng1), kLlc);
  const auto together = simulate_llc_misses(interleave_streams({a, b}, rng2), kLlc);

  AnalyticCacheModel model(kLlc);
  const KernelObjectAccess acc{static_cast<double>(a.accesses), 0.0,
                               static_cast<double>(a.size), 1.0, 0.0};
  const auto p_alone = model.evaluate({acc});
  const auto p_together = model.evaluate({acc, acc});

  // Both worlds: competition at least doubles the per-buffer miss count.
  EXPECT_GT(static_cast<double>(together) / 2.0, static_cast<double>(alone) * 1.5);
  EXPECT_GT(p_together.per_object[0].load_misses, p_alone.per_object[0].load_misses * 1.5);
}

/// Parameterized agreement sweep: per-pattern miss ratios of the two
/// models stay within an absolute tolerance.
struct ValidationCase {
  const char* name;
  StreamPattern pattern;
  Bytes size;
  double hot_fraction;  ///< fraction of the buffer that is hot — the
                        ///< analytic model's `footprint` is the hot
                        ///< working set, not the raw extent
  double friendliness;
  double tolerance;
};

/// Prints the case name, so the listed test names carry no raw bytes.
void PrintTo(const ValidationCase& c, std::ostream* os) { *os << c.name; }

class AnalyticAgreement : public ::testing::TestWithParam<ValidationCase> {};

TEST_P(AnalyticAgreement, MissRatioWithinTolerance) {
  const auto& c = GetParam();
  Rng rng(42);
  StreamSpec spec;
  spec.base = 1 << 24;
  spec.size = c.size;
  spec.accesses = 300'000;
  spec.pattern = c.pattern;
  const auto simulated = simulate_llc_misses(generate_stream(spec, rng), kLlc);

  AnalyticCacheModel model(kLlc);
  const double hot_footprint = static_cast<double>(spec.size) * c.hot_fraction;
  const auto predicted = model.evaluate(
      {{static_cast<double>(spec.accesses), 0.0, hot_footprint, c.friendliness, 0.0}});

  const double sim = static_cast<double>(simulated) / static_cast<double>(spec.accesses);
  const double pred = predicted.total_load_misses / static_cast<double>(spec.accesses);
  EXPECT_NEAR(sim, pred, c.tolerance) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, AnalyticAgreement,
    ::testing::Values(
        ValidationCase{"random_2x_llc", StreamPattern::kRandom, 2 * kLlc, 1.0, 1.0, 0.25},
        ValidationCase{"random_8x_llc", StreamPattern::kRandom, 8 * kLlc, 1.0, 1.0, 0.15},
        ValidationCase{"random_16x_llc", StreamPattern::kRandom, 16 * kLlc, 1.0, 1.0, 0.10},
        // 90% of accesses to 10% of the buffer: the hot tenth fits the
        // LLC; model it as the hot working set with ~0.9 reusability.
        ValidationCase{"hotcold_4x_llc", StreamPattern::kHotCold, 4 * kLlc, 0.1, 0.9, 0.2}),
    [](const auto& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace ecohmem::memsim
