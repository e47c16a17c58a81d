#pragma once

/// \file gen.hpp
/// Seeded synthetic profiling traces for the trace-advise and
/// serve-stream workloads.
///
/// The generator is the only place workload inputs come from: the
/// benchmark's `--seed` goes in, a trace and its module table come out,
/// and the pipeline sees nothing but those. The same seed and options
/// give the same events, bit for bit, on every host (the generator has
/// its own RNG and uses no library randomness). The call stacks and the
/// per-site and per-phase parameters depend only on the options, so
/// every seed yields the same amount of work.
///
/// Shape: `sites` distinct allocation call stacks with skewed
/// popularity, a live set that grows because `long_lived` of all
/// allocations are never freed, PEBS-like load/store samples aimed at
/// live objects of hot sites (a few miss every object), function
/// markers that split the run into phases, and periodic uncore
/// bandwidth readings whose level follows the phase — so the analyzer's
/// per-site fold, its bandwidth regions and the Advisor's knapsack and
/// bandwidth-aware pass all have real work.

#include <cstddef>
#include <cstdint>

#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/trace/events.hpp"

namespace pipebench {

struct GenOptions {
  std::uint64_t seed = 1;
  std::size_t events = 1'000'000;
  /// Distinct allocation call stacks.
  std::size_t sites = 2000;
  /// Share of allocations that stay live to the end of the trace; the
  /// live set grows by this share of every allocation.
  double long_lived = 0.4;
};

/// Share of events that allocate.
inline constexpr double kAllocShare = 0.2;

struct Generated {
  ecohmem::trace::Trace trace;
  ecohmem::bom::ModuleTable modules;
  std::size_t peak_live = 0;  ///< largest number of simultaneously live objects
};

[[nodiscard]] Generated generate(const GenOptions& options);

}  // namespace pipebench
