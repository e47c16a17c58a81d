#include "ecohmem/memsim/bandwidth_meter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ecohmem::memsim {
namespace {

/// Averages of `windows` from one batch call on a fresh averager.
std::vector<double> averages(const BandwidthMeter& m, std::size_t tier,
                             const std::vector<TimeWindow>& windows) {
  std::vector<double> out(windows.size());
  WindowAverager(m, tier).average_gbs(windows, out);
  return out;
}

TEST(BandwidthMeter, SingleBinAverage) {
  BandwidthMeter m(1, 1000);
  m.add(0, 0, 1000, 500.0);  // 500 B over 1000 ns = 0.5 GB/s
  const auto series = m.series(0);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].gbs, 0.5);
}

TEST(BandwidthMeter, SmearsAcrossBins) {
  BandwidthMeter m(1, 1000);
  m.add(0, 500, 2500, 2000.0);  // uniform over 2 us spanning 3 bins
  const auto series = m.series(0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].gbs, 0.5);   // 500 B in bin 0
  EXPECT_DOUBLE_EQ(series[1].gbs, 1.0);   // 1000 B in bin 1
  EXPECT_DOUBLE_EQ(series[2].gbs, 0.5);   // 500 B in bin 2
}

TEST(BandwidthMeter, TotalBytesConserved) {
  BandwidthMeter m(1, 777);
  m.add(0, 123, 98765, 1.0e6);
  double total = 0.0;
  for (const auto& p : m.series(0)) total += p.gbs * 777.0;
  EXPECT_NEAR(total, 1.0e6, 1.0);
}

TEST(BandwidthMeter, AverageOverWindow) {
  BandwidthMeter m(1, 1000);
  m.add(0, 0, 1000, 1000.0);
  m.add(0, 1000, 2000, 3000.0);
  const auto avg = averages(m, 0, {{0, 2000}, {0, 1000}, {500, 1500}});
  EXPECT_DOUBLE_EQ(avg[0], 2.0);
  EXPECT_DOUBLE_EQ(avg[1], 1.0);
  EXPECT_DOUBLE_EQ(avg[2], 2.0);  // half of each bin
}

TEST(BandwidthMeter, PeakPicksLargestBin) {
  BandwidthMeter m(1, 1000);
  m.add(0, 0, 1000, 100.0);
  m.add(0, 3000, 4000, 900.0);
  EXPECT_DOUBLE_EQ(m.peak_gbs(0), 0.9);
}

TEST(BandwidthMeter, TiersAreIndependent) {
  BandwidthMeter m(2, 1000);
  m.add(0, 0, 1000, 100.0);
  m.add(1, 0, 1000, 700.0);
  EXPECT_DOUBLE_EQ(m.peak_gbs(0), 0.1);
  EXPECT_DOUBLE_EQ(m.peak_gbs(1), 0.7);
}

TEST(BandwidthMeter, IgnoresInvalidInput) {
  BandwidthMeter m(1, 1000);
  m.add(5, 0, 1000, 100.0);   // bad tier
  m.add(0, 0, 1000, -5.0);    // negative bytes
  EXPECT_TRUE(m.series(0).empty());
  EXPECT_DOUBLE_EQ(averages(m, 0, {{0, 0}})[0], 0.0);        // empty window
  EXPECT_DOUBLE_EQ(averages(m, 0, {{500, 100}})[0], 0.0);    // reversed window
  EXPECT_DOUBLE_EQ(averages(m, 5, {{0, 1000}})[0], 0.0);     // untracked tier
}

TEST(BandwidthMeter, ZeroLengthIntervalTreatedAsPoint) {
  BandwidthMeter m(1, 1000);
  m.add(0, 500, 500, 64.0);
  EXPECT_NEAR(m.peak_gbs(0), 64.0 / 1000.0, 1e-12);
}

/// The one-window-at-a-time average the batched kernel must reproduce
/// bit for bit: a left-to-right sum of each overlapped bin's term.
double reference_average(const std::vector<double>& lane, Ns bin_ns, Ns t0, Ns t1) {
  if (t1 <= t0) return 0.0;
  double bytes = 0.0;
  const std::size_t first = static_cast<std::size_t>(t0 / bin_ns);
  const std::size_t last = static_cast<std::size_t>((t1 - 1) / bin_ns);
  for (std::size_t b = first; b <= last && b < lane.size(); ++b) {
    const Ns bin_start = static_cast<Ns>(b) * bin_ns;
    const Ns bin_end = bin_start + bin_ns;
    const Ns overlap_start = std::max(bin_start, t0);
    const Ns overlap_end = std::min(bin_end, t1);
    bytes += lane[b] * static_cast<double>(overlap_end - overlap_start) /
             static_cast<double>(bin_ns);
  }
  return bytes / static_cast<double>(t1 - t0);
}

/// A seeded meter whose bin contents are known exactly: each non-empty
/// bin gets one bin-aligned add (its whole traffic lands in that bin,
/// times exactly 1.0), about one bin in five stays empty, and byte
/// counts span several orders of magnitude so `x * bin / bin` does not
/// always round back to `x`.
struct KnownMeter {
  KnownMeter(Ns bin, std::size_t bins, std::uint64_t seed) : meter(1, bin), lane(bins, 0.0) {
    std::uint64_t x = seed * 2654435761ull + 7;
    for (std::size_t b = 0; b < bins; ++b) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      if ((x >> 60) < 3 && b + 1 != bins) continue;  // zero-traffic bin
      const double bytes = static_cast<double>(x >> 11) * 0x1.0p-53 *
                           static_cast<double>(1ull << ((x >> 5) % 40));
      lane[b] = bytes;
      meter.add(0, static_cast<Ns>(b) * bin, static_cast<Ns>(b + 1) * bin, bytes);
    }
  }
  BandwidthMeter meter;
  std::vector<double> lane;
};

/// Seeded windows over a timeline of `bins` bins of `bin` ns: unaligned
/// and bin-aligned edges, 1 ns and single-bin windows, windows that run
/// past the last bin or lie wholly past it, and empty ones.
std::vector<TimeWindow> random_windows(Ns bin, std::size_t bins, std::size_t n,
                                       std::uint64_t seed) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 3;
  const auto rnd = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 17;
  };
  const Ns span = static_cast<Ns>(bins) * bin;
  std::vector<TimeWindow> out;
  for (std::size_t i = 0; i < n; ++i) {
    Ns t0 = rnd() % (span + span / 4);
    Ns len = 0;
    switch (rnd() % 8) {
      case 0: len = 1; break;                                 // 1 ns
      case 1: len = 1 + rnd() % bin; break;                   // at most one bin
      case 2: t0 -= t0 % bin; len = bin; break;               // exactly one bin
      case 3: t0 -= t0 % bin; len = bin * (1 + rnd() % 64); break;  // aligned both ends
      case 4: t0 = span + rnd() % span; len = 1 + rnd() % span; break;  // wholly past
      case 5: len = span; break;                              // runs past the last bin
      case 6: len = 0; break;                                 // empty
      default: len = 1 + rnd() % span; break;                 // anything
    }
    out.push_back(TimeWindow{t0, t0 + len});
  }
  return out;
}

void expect_bitwise_equal(const KnownMeter& km, Ns bin, const std::vector<TimeWindow>& windows,
                          const std::vector<double>& got) {
  ASSERT_EQ(got.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const double want = reference_average(km.lane, bin, windows[i].t0, windows[i].t1);
    EXPECT_EQ(std::memcmp(&want, &got[i], sizeof(double)), 0)
        << "window " << i << " [" << windows[i].t0 << ", " << windows[i].t1 << "): want "
        << want << " got " << got[i];
  }
}

TEST(BandwidthMeter, BatchedAveragesAreBitIdenticalToSerialLoop) {
  for (const Ns bin : {Ns{1000}, Ns{777}, Ns{100'000}}) {
    for (const std::size_t bins : {std::size_t{1}, std::size_t{37}, std::size_t{3000}}) {
      SCOPED_TRACE("bin " + std::to_string(bin) + " ns, " + std::to_string(bins) + " bins");
      const KnownMeter km(bin, bins, bin + bins);
      WindowAverager averager(km.meter, 0);  // reused across batches
      for (const std::size_t batch : {0u, 1u, 7u, 8u, 9u, 16u, 17u, 1000u}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const auto windows = random_windows(bin, bins, batch, batch * 31 + bins);
        std::vector<double> got(windows.size(), -1.0);
        averager.average_gbs(windows, got);
        expect_bitwise_equal(km, bin, windows, got);
      }
    }
  }
}

TEST(BandwidthMeter, BatchedAveragesIgnoreBatchOrderAndCuts) {
  // Long windows sharing their last bin, their first bin, or neither:
  // every lane of a group of eight runs over a different interior.
  const Ns bin = 1000;
  const KnownMeter km(bin, 500, 11);
  std::vector<TimeWindow> windows;
  for (Ns k = 0; k < 40; ++k) {
    windows.push_back(TimeWindow{k * 9'731 + 17, 499'999});
    windows.push_back(TimeWindow{3'000, 3'001 + k * 12'345});
    windows.push_back(TimeWindow{k * 4'000, k * 4'000 + 250'000 + k});
  }
  const auto whole = averages(km.meter, 0, windows);
  expect_bitwise_equal(km, bin, windows, whole);
  // One window per call gives the same bits as the whole batch.
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const double one = averages(km.meter, 0, {windows[i]})[0];
    EXPECT_EQ(std::memcmp(&one, &whole[i], sizeof(double)), 0) << "window " << i;
  }
}

}  // namespace
}  // namespace ecohmem::memsim
