#pragma once

/// \file bandwidth_meter.hpp
/// Time-binned per-tier bandwidth accounting.
///
/// The execution engine records bytes moved per tier per kernel step; the
/// meter smears them over fixed-width time bins to produce the bandwidth
/// timelines of the paper's Fig. 3 and Fig. 7 and the bandwidth-region
/// classification (B_low / B_mid / B_high, Table II) used by the
/// bandwidth-aware placement algorithm.
///
/// Window averages are batched: a `WindowAverager` takes a span of
/// windows and writes one average per window. The analyzer asks for
/// hundreds of thousands of them over thousands of bins, so the batch
/// runs eight windows side by side over the bins they share.
///
/// **Bit-identity rule.** Each average is the left-to-right sum, over the
/// bins the window overlaps in ascending order, of
/// `bytes[b] * double(overlap) / double(bin_ns)`, divided by the window
/// length — the same doubles a one-window-at-a-time loop produces, for
/// every window, however the batch is ordered or cut. Batching may only
/// reorder *independent* sums, never the additions inside one; a lane
/// that is idle over a bin adds +0.0, which is exact because bins hold
/// non-negative traffic (`add()` drops non-positive bytes).
///
/// A meter instance is not internally synchronized.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ecohmem/common/units.hpp"

namespace ecohmem::memsim {

struct BandwidthPoint {
  Ns time = 0;        ///< bin start
  double gbs = 0.0;   ///< average bandwidth over the bin
};

/// A half-open time interval [t0, t1).
struct TimeWindow {
  Ns t0 = 0;
  Ns t1 = 0;
};

class BandwidthMeter {
 public:
  /// `tiers`: number of tiers tracked. `bin_ns`: bin width.
  BandwidthMeter(std::size_t tiers, Ns bin_ns);

  /// Adds `bytes` of traffic on `tier` spread uniformly over [t0, t1).
  void add(std::size_t tier, Ns t0, Ns t1, double bytes);

  /// Bandwidth timeline of one tier (bins up to the last touched bin).
  [[nodiscard]] std::vector<BandwidthPoint> series(std::size_t tier) const;

  /// Peak binned bandwidth of `tier` over the whole run.
  [[nodiscard]] double peak_gbs(std::size_t tier) const;

  [[nodiscard]] Ns bin_ns() const { return bin_ns_; }
  [[nodiscard]] std::size_t tier_count() const { return bins_.size(); }

 private:
  friend class WindowAverager;

  Ns bin_ns_;
  std::vector<std::vector<double>> bins_;  // [tier][bin] -> bytes
};

/// Average bandwidth of one tier over many windows at a time. Keeps its
/// scratch between calls, so one averager serves any number of batches
/// without reallocating.
class WindowAverager {
 public:
  /// Averages over `tier` of `meter`, which must outlive the averager
  /// and must not change while it is in use.
  WindowAverager(const BandwidthMeter& meter, std::size_t tier);

  /// Writes to `out[i]` the average bandwidth over `windows[i]`, in
  /// bytes per ns (GB/s); 0 for an empty window (t1 <= t0), a window
  /// wholly past the last bin, or a tier the meter does not track.
  /// `out.size()` must equal `windows.size()`. Bit-identical to the
  /// serial per-window sum (see the file comment).
  void average_gbs(std::span<const TimeWindow> windows, std::span<double> out);

 private:
  /// One non-empty window that starts inside the timeline.
  struct Slot {
    std::size_t first = 0;  ///< bin of t0
    std::size_t last = 0;   ///< bin of t1 - 1 (may be past the timeline)
    std::size_t index = 0;  ///< position in the caller's batch
  };

  Ns bin_ns_;
  std::span<const double> lane_;  ///< the tier's bytes per bin
  std::vector<double> full_;      ///< lane_[b] * bin_ns / bin_ns: a fully covered bin's term
  std::vector<Slot> slots_;       ///< scratch, reused across batches
};

}  // namespace ecohmem::memsim
