#pragma once

// Test helpers shared by the analyzer golden test and the serve
// incremental suites: a bit-exact digest of a complete AnalysisResult,
// the profiled trace of a registered app, and a hand-built trace that
// exercises the attribution corner cases.

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/apps/apps.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/profiler/profiler.hpp"
#include "ecohmem/runtime/engine.hpp"

namespace ecohmem::analyzer::testing {

/// FNV-1a over a canonical byte encoding; doubles hash by bit pattern,
/// so the digest is bit-exact, not tolerance-based.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Digest of every field of an analysis: each site record with its
/// call stack, the bandwidth timeline, the function profiles, the
/// unattributed weight, the trace end and the coverage.
inline std::uint64_t digest(const AnalysisResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.sites.size()));
  for (const SiteRecord& s : r.sites) {
    d.add(std::uint64_t{s.stack});
    d.add(static_cast<std::uint64_t>(s.callstack.depth()));
    for (const bom::Frame& frame : s.callstack.frames) {
      d.add(static_cast<std::uint64_t>(frame.module));
      d.add(frame.offset);
    }
    for (const std::uint64_t v : {std::uint64_t{s.max_size}, std::uint64_t{s.peak_live_bytes},
                                  s.alloc_count}) {
      d.add(v);
    }
    for (const double v : {s.load_misses, s.store_misses, s.avg_load_latency_ns}) d.add(v);
    d.add(static_cast<std::uint64_t>(s.first_alloc));
    d.add(static_cast<std::uint64_t>(s.last_free));
    for (const double v : {s.total_lifetime_ns, s.mean_lifetime_ns, s.exec_bw_gbs,
                           s.alloc_time_system_bw_gbs, s.exec_time_system_bw_gbs}) {
      d.add(v);
    }
    d.add(std::uint64_t{s.has_writes});
  }
  d.add(static_cast<std::uint64_t>(r.system_bw.size()));
  for (const auto& p : r.system_bw) {
    d.add(static_cast<std::uint64_t>(p.time));
    d.add(p.gbs);
  }
  d.add(r.observed_peak_bw_gbs);
  d.add(static_cast<std::uint64_t>(r.functions.size()));
  for (const FunctionProfile& f : r.functions) {
    d.add(f.name);
    d.add(f.load_samples);
    d.add(f.avg_load_latency_ns);
  }
  d.add(static_cast<std::uint64_t>(r.trace_end));
  d.add(r.unattributed_samples);
  for (const std::uint64_t v : {r.coverage.events_seen, r.coverage.events_declared,
                                std::uint64_t{r.coverage.salvaged}}) {
    d.add(v);
  }
  return d.value();
}

/// Profiles `app` through the execution engine (the ecohmem-profile
/// path), so the trace carries real alloc/free/sample/uncore streams.
inline trace::Trace profile_app(const std::string& app) {
  apps::AppOptions opt;
  opt.iterations = 2;
  const runtime::Workload workload = apps::make_app(app, opt);
  const auto sys = memsim::paper_system(6);
  profiler::Profiler prof;
  runtime::EngineOptions eopt;
  eopt.observer = &prof;
  runtime::ExecutionEngine engine(&*sys, eopt);
  runtime::FixedTierMode mode(&*sys, 1);
  if (!engine.run(workload, mode)) return {};
  return prof.take_trace();
}

/// A small trace over the attribution corner cases, with no uncore
/// readings (so the bandwidth timeline is the sample fallback):
///  - an address reused while its first object is still live; freeing
///    the first object id then closes the second object's window,
///  - overlapping objects, where only the nearest live start at or
///    below a sample address is containment-checked,
///  - function ids past the function table, for loads and a store,
///  - a function whose only sample is a store,
///  - a sample that hits no object, and objects alive at trace end.
inline trace::Trace hand_built_trace() {
  using trace::AllocEvent;
  using trace::AllocKind;
  using trace::FreeEvent;
  using trace::MarkerEvent;
  using trace::SampleEvent;
  constexpr Ns kMs = 1'000'000;

  trace::Trace t;
  t.sample_rate_hz = 1000.0;
  const trace::StackId a = t.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const trace::StackId b = t.stacks.intern(bom::CallStack{{{0, 0x20}, {1, 0x8}}});
  const trace::StackId c = t.stacks.intern(bom::CallStack{{{1, 0x40}}});
  const std::uint32_t kernel = t.functions.intern("kernel");
  const std::uint32_t store_only = t.functions.intern("store_only");
  const std::uint32_t phase = t.functions.intern("phase");

  t.events.emplace_back(MarkerEvent{0, phase, true});
  t.events.emplace_back(AllocEvent{1 * kMs, 1, 0x1000, 0x1000, a, AllocKind::kMalloc});
  t.events.emplace_back(AllocEvent{2 * kMs, 2, 0x1800, 0x1000, b, AllocKind::kCalloc});
  t.events.emplace_back(AllocEvent{3 * kMs, 3, 0x4000, 0x4000, c, AllocKind::kMalloc});
  t.events.emplace_back(AllocEvent{4 * kMs, 4, 0x5000, 0x10, a, AllocKind::kMalloc});
  t.events.emplace_back(SampleEvent{5 * kMs, 0x1400, 2.0, 180.0, false, kernel});
  t.events.emplace_back(SampleEvent{6 * kMs, 0x1900, 1.5, 95.5, false, kernel});
  t.events.emplace_back(SampleEvent{7 * kMs, 0x2100, 3.0, 0.0, true, store_only});
  // Nearest live start below 0x6000 is the 16-byte object at 0x5000:
  // not contained, so unattributed even though 0x4000's object covers it.
  t.events.emplace_back(SampleEvent{8 * kMs, 0x6000, 1.25, 310.0, false, kernel});
  t.events.emplace_back(SampleEvent{9 * kMs, 0x5008, 0.5, 60.0, false, /*fn=*/7777});
  t.events.emplace_back(SampleEvent{12 * kMs, 0x4100, 2.5, 0.0, true, /*fn=*/8888});
  t.events.emplace_back(FreeEvent{15 * kMs, 2});
  // With 0x1800 gone, 0x1900 falls back to the object at 0x1000.
  t.events.emplace_back(SampleEvent{16 * kMs, 0x1900, 1.0, 120.0, false, kernel});
  // Address reuse while live: object 5 replaces object 1 at 0x1000.
  t.events.emplace_back(AllocEvent{21 * kMs, 5, 0x1000, 0x800, b, AllocKind::kMalloc});
  t.events.emplace_back(SampleEvent{22 * kMs, 0x1100, 4.0, 210.0, false, kernel});
  t.events.emplace_back(SampleEvent{23 * kMs, 0x1900, 1.0, 75.0, false, kernel});
  t.events.emplace_back(MarkerEvent{24 * kMs, phase, false});
  t.events.emplace_back(FreeEvent{31 * kMs, 1});
  t.events.emplace_back(SampleEvent{32 * kMs, 0x10, 0.75, 40.0, false, /*fn=*/7777});
  t.events.emplace_back(SampleEvent{45 * kMs, 0x4010, 2.0, 150.25, false, kernel});
  t.events.emplace_back(FreeEvent{52 * kMs, 4});
  return t;
}

/// Digest of `analyze(hand_built_trace())`, pinned by the golden test
/// and checked slice by slice by the serve suites.
inline constexpr std::uint64_t kHandBuiltDigest = 0x83c130760cdfeec4ull;

/// A seeded random trace of `n` events whose live set grows to
/// thousands of objects, with frees in random order, overlapping
/// objects, address reuse while live, out-of-table function ids and,
/// if `with_uncore`, uncore readings in place of markers.
inline trace::Trace synthetic_trace(std::size_t n, std::uint64_t seed, bool with_uncore) {
  trace::Trace t;
  t.sample_rate_hz = 1000.0;
  for (std::uint64_t k = 0; k < 16; ++k) {
    t.stacks.intern(bom::CallStack{{{0, 0x100 + 0x10 * k}, {1, k}}});
  }
  for (const char* name : {"solve", "assemble", "exchange"}) t.functions.intern(name);

  std::uint64_t x = seed * 2654435761ull + 1;
  const auto rnd = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  struct Live {
    std::uint64_t id;
    std::uint64_t address;
    Bytes size;
  };
  std::vector<Live> live;
  std::unordered_map<std::uint64_t, std::size_t> slot_of;  // address -> index in `live`
  std::uint64_t next_id = 1;
  Ns time = 0;
  for (std::size_t i = 0; i < n; ++i) {
    time += rnd() % 20'000;
    const std::uint64_t kind = rnd() % 20;
    if (kind < 6) {
      const std::uint64_t address = 0x100000 + (rnd() % 30'000) * 64;
      const Bytes size = 16 + rnd() % 4096;
      const auto stack = static_cast<trace::StackId>(rnd() % 16);
      t.events.emplace_back(
          trace::AllocEvent{time, next_id, address, size, stack, trace::AllocKind::kMalloc});
      if (const auto it = slot_of.find(address); it != slot_of.end()) {
        // Reused while live: the displaced object id is never freed.
        live[it->second] = Live{next_id, address, size};
      } else {
        slot_of.emplace(address, live.size());
        live.push_back(Live{next_id, address, size});
      }
      ++next_id;
    } else if (kind < 10 && !live.empty()) {
      const std::size_t k = rnd() % live.size();
      t.events.emplace_back(trace::FreeEvent{time, live[k].id});
      slot_of.erase(live[k].address);
      if (k + 1 != live.size()) {
        live[k] = live.back();
        slot_of[live[k].address] = k;
      }
      live.pop_back();
    } else if (kind == 10) {
      if (with_uncore) {
        t.events.emplace_back(trace::UncoreBwEvent{time, 1000 + rnd() % 100'000,
                                                   static_cast<double>(rnd() % 100) * 0.25,
                                                   static_cast<double>(rnd() % 50) * 0.125});
      } else {
        t.events.emplace_back(trace::MarkerEvent{time, static_cast<std::uint32_t>(rnd() % 3),
                                                 rnd() % 2 == 0});
      }
    } else {
      const std::uint64_t address =
          live.empty() || rnd() % 8 == 0
              ? 0x100000 + rnd() % (30'000 * 64)
              : live[rnd() % live.size()].address + rnd() % 4096;
      t.events.emplace_back(trace::SampleEvent{
          time, address, 1.0 + static_cast<double>(rnd() % 8) * 0.5,
          static_cast<double>(rnd() % 4000) * 0.125, rnd() % 4 == 0,
          static_cast<std::uint32_t>(rnd() % 5)});
    }
  }
  return t;
}

}  // namespace ecohmem::analyzer::testing
