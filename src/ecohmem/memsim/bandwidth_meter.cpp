#include "ecohmem/memsim/bandwidth_meter.hpp"

#include <algorithm>
#include <cmath>

namespace ecohmem::memsim {

namespace {

/// A batch runs eight windows as the lanes of four 2-wide double
/// vectors (GCC/Clang vector extensions). Two lanes per vector is the
/// width every x86-64 and AArch64 target holds in one register, so the
/// four accumulators stay in registers on any of them.
using Vec2 = double __attribute__((vector_size(16)));
using Mask2 = std::int64_t __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 8;

}  // namespace

BandwidthMeter::BandwidthMeter(std::size_t tiers, Ns bin_ns)
    : bin_ns_(std::max<Ns>(bin_ns, 1)), bins_(tiers) {}

void BandwidthMeter::add(std::size_t tier, Ns t0, Ns t1, double bytes) {
  if (tier >= bins_.size() || bytes <= 0.0) return;
  if (t1 <= t0) t1 = t0 + 1;

  auto& lane = bins_[tier];
  const std::size_t first = static_cast<std::size_t>(t0 / bin_ns_);
  const std::size_t last = static_cast<std::size_t>((t1 - 1) / bin_ns_);
  if (last >= lane.size()) lane.resize(last + 1, 0.0);

  const double span = static_cast<double>(t1 - t0);
  for (std::size_t b = first; b <= last; ++b) {
    const Ns bin_start = static_cast<Ns>(b) * bin_ns_;
    const Ns bin_end = bin_start + bin_ns_;
    const Ns overlap_start = std::max(bin_start, t0);
    const Ns overlap_end = std::min(bin_end, t1);
    const double frac = static_cast<double>(overlap_end - overlap_start) / span;
    lane[b] += bytes * frac;
  }
}

std::vector<BandwidthPoint> BandwidthMeter::series(std::size_t tier) const {
  std::vector<BandwidthPoint> out;
  if (tier >= bins_.size()) return out;
  const auto& lane = bins_[tier];
  out.reserve(lane.size());
  for (std::size_t b = 0; b < lane.size(); ++b) {
    out.push_back({static_cast<Ns>(b) * bin_ns_,
                   lane[b] / static_cast<double>(bin_ns_)});
  }
  return out;
}

double BandwidthMeter::peak_gbs(std::size_t tier) const {
  if (tier >= bins_.size()) return 0.0;
  double peak = 0.0;
  for (const double bytes : bins_[tier]) {
    peak = std::max(peak, bytes / static_cast<double>(bin_ns_));
  }
  return peak;
}

WindowAverager::WindowAverager(const BandwidthMeter& meter, std::size_t tier)
    : bin_ns_(meter.bin_ns_) {
  if (tier < meter.bins_.size()) lane_ = meter.bins_[tier];
  const double bin = static_cast<double>(bin_ns_);
  full_.resize(lane_.size());
  for (std::size_t b = 0; b < lane_.size(); ++b) full_[b] = lane_[b] * bin / bin;
}

void WindowAverager::average_gbs(std::span<const TimeWindow> windows, std::span<double> out) {
  const std::size_t bins = lane_.size();
  const double bin = static_cast<double>(bin_ns_);

  slots_.clear();
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const TimeWindow& w = windows[i];
    out[i] = 0.0;
    if (w.t1 <= w.t0) continue;
    const auto first = static_cast<std::size_t>(w.t0 / bin_ns_);
    if (first >= bins) continue;  // no bin to sum: the average is 0
    slots_.push_back(Slot{first, static_cast<std::size_t>((w.t1 - 1) / bin_ns_), i});
  }
  // Windows that end together and start close together share most of
  // their bins, so a group of eight adjacent slots wastes few lane-bins.
  // Batches of equal-length windows in time order arrive sorted.
  const auto by_last_first = [](const Slot& a, const Slot& b) {
    return a.last != b.last ? a.last < b.last : a.first < b.first;
  };
  if (!std::is_sorted(slots_.begin(), slots_.end(), by_last_first)) {
    std::sort(slots_.begin(), slots_.end(), by_last_first);
  }

  for (std::size_t g = 0; g < slots_.size(); g += kLanes) {
    const std::size_t lanes = std::min(kLanes, slots_.size() - g);
    const Slot* group = slots_.data() + g;

    // Each lane's sum starts with its first bin's (partial) term; the
    // bins strictly between the first and the last one, clipped to the
    // timeline, are the interior [lo, hi) whose terms are full_.
    double start[kLanes] = {};
    std::size_t lo[kLanes] = {};
    std::size_t hi[kLanes] = {};
    std::size_t edges[2 * kLanes] = {};
    for (std::size_t j = 0; j < lanes; ++j) {
      const TimeWindow& w = windows[group[j].index];
      const Ns bin_start = static_cast<Ns>(group[j].first) * bin_ns_;
      const Ns overlap = std::min(bin_start + bin_ns_, w.t1) - std::max(bin_start, w.t0);
      start[j] = 0.0 + lane_[group[j].first] * static_cast<double>(overlap) / bin;
      lo[j] = group[j].first + 1;
      hi[j] = std::max(lo[j], std::min(group[j].last, bins));
      edges[2 * j] = lo[j];
      edges[2 * j + 1] = hi[j];
    }
    Vec2 acc0 = {start[0], start[1]};
    Vec2 acc1 = {start[2], start[3]};
    Vec2 acc2 = {start[4], start[5]};
    Vec2 acc3 = {start[6], start[7]};

    // Between two consecutive sorted edges every lane is either inside
    // its interior or outside it, so each segment runs with one fixed
    // lane mask and no per-bin compare. Idle lanes add +0.0.
    std::sort(edges, edges + 2 * lanes);
    for (std::size_t e = 0; e + 1 < 2 * lanes; ++e) {
      const std::size_t from = edges[e];
      const std::size_t to = edges[e + 1];
      if (from == to) continue;
      const auto on = [&](std::size_t j) -> std::int64_t {
        return lo[j] <= from && to <= hi[j] ? -1 : 0;
      };
      const Mask2 mask0 = {on(0), on(1)};
      const Mask2 mask1 = {on(2), on(3)};
      const Mask2 mask2 = {on(4), on(5)};
      const Mask2 mask3 = {on(6), on(7)};
      for (std::size_t b = from; b < to; ++b) {
        const Mask2 term = (Mask2)Vec2{full_[b], full_[b]};
        acc0 += (Vec2)(term & mask0);
        acc1 += (Vec2)(term & mask1);
        acc2 += (Vec2)(term & mask2);
        acc3 += (Vec2)(term & mask3);
      }
    }
    const double sums[kLanes] = {acc0[0], acc0[1], acc1[0], acc1[1],
                                 acc2[0], acc2[1], acc3[0], acc3[1]};

    // Each lane ends with its last bin's partial term, when that bin is
    // not also its first and lies inside the timeline.
    for (std::size_t j = 0; j < lanes; ++j) {
      const Slot& s = group[j];
      const TimeWindow& w = windows[s.index];
      double sum = sums[j];
      if (s.last > s.first && s.last < bins) {
        const Ns bin_start = static_cast<Ns>(s.last) * bin_ns_;
        sum += lane_[s.last] * static_cast<double>(w.t1 - bin_start) / bin;
      }
      out[s.index] = sum / static_cast<double>(w.t1 - w.t0);
    }
  }
}

}  // namespace ecohmem::memsim
