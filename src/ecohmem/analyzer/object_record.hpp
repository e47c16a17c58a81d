#pragma once

/// \file object_record.hpp
/// Per-allocation-site aggregates produced by the trace analyzer — the
/// data the HMem Advisor's algorithms consume.
///
/// "Object" in the paper means an allocation site (call stack): all
/// allocations returning through the same call stack share a placement
/// decision, because FlexMalloc can only distinguish allocations by the
/// stack it captures at interposition time (§IV, §VI).

#include <string>

#include "ecohmem/bom/frame.hpp"
#include "ecohmem/common/units.hpp"
#include "ecohmem/trace/events.hpp"

namespace ecohmem::analyzer {

/// A [start, end) span of time. Algorithm 1's lifetime containment
/// check compares sites' [first_alloc, last_free) spans with it; the
/// analyzer folds each object's [alloc, free) window into the site's
/// lifetime and bandwidth fields, and the result carries no window list.
struct LiveWindow {
  Ns start = 0;
  Ns end = 0;

  [[nodiscard]] Ns duration() const { return end > start ? end - start : 0; }
  [[nodiscard]] bool contains(const LiveWindow& other) const {
    return start <= other.start && other.end <= end;
  }
};

/// Aggregated profile of one allocation site.
struct SiteRecord {
  trace::StackId stack = trace::kInvalidStack;
  bom::CallStack callstack;

  Bytes max_size = 0;         ///< largest single allocation observed (§IV-A)
  Bytes peak_live_bytes = 0;  ///< peak simultaneous footprint of the site
  std::uint64_t alloc_count = 0;

  double load_misses = 0.0;   ///< LLC load misses (sample-weight scaled)
  double store_misses = 0.0;  ///< store events (sample-weight scaled)
  double avg_load_latency_ns = 0.0;

  Ns first_alloc = 0;
  Ns last_free = 0;
  double total_lifetime_ns = 0.0;  ///< sum over all [alloc, free) windows
  double mean_lifetime_ns = 0.0;

  /// Bandwidth the site itself demands over its lifetime:
  /// (load+store misses) * line / total lifetime (§VII-B step 2).
  double exec_bw_gbs = 0.0;

  /// System (PMem-eligible) bandwidth observed around the site's
  /// allocation timestamps — the "allocation bandwidth region" signal of
  /// Table II.
  double alloc_time_system_bw_gbs = 0.0;

  /// System bandwidth averaged over the site's live windows — the
  /// "execution bandwidth region" signal of Table II.
  double exec_time_system_bw_gbs = 0.0;

  bool has_writes = false;

  /// Miss density used by the base knapsack algorithm:
  /// (C_load * loads + C_store * stores) / max_size.
  [[nodiscard]] double density(double load_coef, double store_coef) const {
    const Bytes size = max_size > 0 ? max_size : 1;
    return (load_coef * load_misses + store_coef * store_misses) / static_cast<double>(size);
  }
};

/// Bandwidth region relative to peak PMem bandwidth (Table II):
/// B_low < 20%, B_mid 20-40%, B_high > 40%.
enum class BandwidthRegion { kLow, kMid, kHigh };

[[nodiscard]] BandwidthRegion classify_region(double bw_gbs, double peak_gbs);
[[nodiscard]] std::string to_string(BandwidthRegion region);

/// Per-function sample statistics (Table VII's latency column source).
struct FunctionProfile {
  std::string name;
  double load_samples = 0.0;
  double avg_load_latency_ns = 0.0;
};

}  // namespace ecohmem::analyzer
