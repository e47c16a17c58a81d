#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace pipebench {

namespace trace = ecohmem::trace;
namespace bom = ecohmem::bom;
using ecohmem::Bytes;
using ecohmem::Ns;

namespace {

/// splitmix64: small, fast and identical everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

struct Site {
  trace::StackId stack = trace::kInvalidStack;
  Bytes base_size = 0;
  double hotness = 0.0;  ///< acceptance probability of a sample aimed at it
};

struct Live {
  std::uint64_t id = 0;
  std::uint64_t address = 0;
  Bytes size = 0;
  std::uint32_t site = 0;
};

/// 0..n-1 in an order drawn from `rng`.
std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  return v;
}

/// Midpoint of the `rank`-th of `n` equal slices of [0, 1).
double quantile(std::size_t rank, std::size_t n) {
  return (static_cast<double>(rank) + 0.5) / static_cast<double>(n);
}

constexpr std::size_t kModules = 4;
constexpr Bytes kModuleText = 64ull << 20;
constexpr std::size_t kFunctions = 24;
constexpr std::size_t kPhaseEvents = 10'000;
constexpr std::size_t kUncoreEvery = 256;
constexpr std::uint64_t kHeapBase = 0x10000000ull;

}  // namespace

Generated generate(const GenOptions& options) {
  Generated out;
  // The shape of the program (call stacks, site sizes and heat, phase
  // bandwidths) is the same for every seed; the seed draws the event
  // stream from it. Runs with different seeds then measure the same
  // work, while none of them sees the same input.
  Rng shape(0xEC0A11C8u);
  Rng rng(options.seed ^ 0x5EED0000u);
  trace::Trace& t = out.trace;
  t.sample_rate_hz = 100.0;

  const char* const module_names[kModules] = {"app.x", "libsolver.so", "libmpi.so", "libc.so.6"};
  for (const char* name : module_names) {
    out.modules.add_module(name, kModuleText, kModuleText / 4);
  }

  // Site sizes, site hotness and phase bandwidths are spread evenly
  // over their ranges, in shuffled order.
  const std::size_t n_sites = std::max<std::size_t>(options.sites, 1);
  const auto size_rank = shuffled(n_sites, shape);
  const auto heat_rank = shuffled(n_sites, shape);
  std::vector<Site> sites(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    bom::CallStack stack;
    // The innermost frame is unique per site; the callers are shared
    // at random, as real call trees share their upper frames.
    stack.frames.push_back({static_cast<bom::ModuleId>(s % kModules), 0x1000 + s * 64});
    const std::uint64_t depth = 2 + shape.below(6);
    for (std::uint64_t d = 0; d < depth; ++d) {
      stack.frames.push_back({static_cast<bom::ModuleId>(shape.below(kModules)),
                              0x100 + shape.below(kModuleText / 2)});
    }
    sites[s].stack = t.stacks.intern(stack);
    sites[s].base_size =
        static_cast<Bytes>(4096.0 * std::exp2(quantile(size_rank[s], n_sites) * 10.0));
    const double h = quantile(heat_rank[s], n_sites);
    sites[s].hotness = std::max(h * h * h, 0.02);
  }

  std::vector<std::uint32_t> functions(kFunctions);
  std::vector<double> phase_gbs(kFunctions);
  const auto gbs_rank = shuffled(kFunctions, shape);
  for (std::size_t f = 0; f < kFunctions; ++f) {
    functions[f] = t.functions.intern("phase_" + std::to_string(f));
    phase_gbs[f] = 1.0 + 29.0 * quantile(gbs_rank[f], kFunctions);
  }

  std::vector<Live> long_pool;
  std::vector<Live> short_pool;
  std::uint64_t next_id = 1;
  std::uint64_t next_address = kHeapBase;
  Ns time = 0;
  Ns last_uncore = 0;
  std::size_t function = 0;
  const double free_share = kAllocShare * (1.0 - options.long_lived);

  t.events.reserve(options.events + 1);  // a phase change may add one past the count
  t.events.emplace_back(trace::MarkerEvent{time, functions[function], true});
  while (t.events.size() < options.events) {
    time += 2000 + static_cast<Ns>(rng.below(16000));
    const std::size_t i = t.events.size();
    if (i % kPhaseEvents == 0) {
      t.events.emplace_back(trace::MarkerEvent{time, functions[function], false});
      function = rng.below(kFunctions);
      t.events.emplace_back(trace::MarkerEvent{time, functions[function], true});
      continue;
    }
    if (i % kUncoreEvery == 0) {
      const double read = phase_gbs[function] * (0.8 + 0.4 * rng.uniform());
      t.events.emplace_back(trace::UncoreBwEvent{time, time - last_uncore, read, 0.3 * read});
      last_uncore = time;
      continue;
    }
    const double kind = rng.uniform();
    if (kind < kAllocShare) {
      // Skewed popularity: low site ids allocate most often.
      const double u = rng.uniform();
      const auto s = static_cast<std::uint32_t>(static_cast<double>(n_sites) * u * u);
      const Bytes size =
          std::max<Bytes>(64, static_cast<Bytes>(static_cast<double>(sites[s].base_size) *
                                                 (0.5 + rng.uniform())));
      const Live obj{next_id++, next_address, size, s};
      next_address += (size + 127) / 64 * 64;
      t.events.emplace_back(trace::AllocEvent{time, obj.id, obj.address, obj.size,
                                              sites[s].stack, trace::AllocKind::kMalloc});
      (rng.uniform() < options.long_lived ? long_pool : short_pool).push_back(obj);
      out.peak_live = std::max(out.peak_live, long_pool.size() + short_pool.size());
      continue;
    }
    if (kind < kAllocShare + free_share && !short_pool.empty()) {
      const std::size_t k = rng.below(short_pool.size());
      t.events.emplace_back(trace::FreeEvent{time, short_pool[k].id});
      short_pool[k] = short_pool.back();
      short_pool.pop_back();
      continue;
    }
    const std::size_t live = long_pool.size() + short_pool.size();
    std::uint64_t address = 0x10 + rng.below(4096);  // stack/static data: unattributed
    if (live > 0 && rng.uniform() >= 0.03) {
      const Live* target = nullptr;
      for (int attempt = 0; attempt < 4; ++attempt) {
        const std::size_t k = rng.below(live);
        target = k < long_pool.size() ? &long_pool[k] : &short_pool[k - long_pool.size()];
        if (rng.uniform() < sites[target->site].hotness) break;
      }
      address = target->address + rng.below(target->size);
    }
    t.events.emplace_back(trace::SampleEvent{
        time, address, static_cast<double>(50 + rng.below(200)),
        static_cast<double>(100 + rng.below(500)), rng.uniform() < 0.25, functions[function]});
  }
  return out;
}

}  // namespace pipebench
