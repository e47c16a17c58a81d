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
/// A meter instance is not internally synchronized.

#include <cstddef>
#include <vector>

#include "ecohmem/common/units.hpp"

namespace ecohmem::memsim {

struct BandwidthPoint {
  Ns time = 0;        ///< bin start
  double gbs = 0.0;   ///< average bandwidth over the bin
};

class BandwidthMeter {
 public:
  /// `tiers`: number of tiers tracked. `bin_ns`: bin width.
  BandwidthMeter(std::size_t tiers, Ns bin_ns);

  /// Adds `bytes` of traffic on `tier` spread uniformly over [t0, t1).
  void add(std::size_t tier, Ns t0, Ns t1, double bytes);

  /// Bandwidth timeline of one tier (bins up to the last touched bin).
  [[nodiscard]] std::vector<BandwidthPoint> series(std::size_t tier) const;

  /// Average bandwidth of `tier` over [t0, t1).
  [[nodiscard]] double average_gbs(std::size_t tier, Ns t0, Ns t1) const;

  /// Peak binned bandwidth of `tier` over the whole run.
  [[nodiscard]] double peak_gbs(std::size_t tier) const;

  [[nodiscard]] Ns bin_ns() const { return bin_ns_; }
  [[nodiscard]] std::size_t tier_count() const { return bins_.size(); }

 private:
  Ns bin_ns_;
  std::vector<std::vector<double>> bins_;  // [tier][bin] -> bytes
};

}  // namespace ecohmem::memsim
