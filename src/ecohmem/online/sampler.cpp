#include "ecohmem/online/sampler.hpp"

#include <cmath>

namespace ecohmem::online {

std::uint64_t sample_stream_seed(std::uint64_t seed, std::size_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(stream) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t AccessSampler::sample_count(double events) {
  const double expected = std::max(0.0, events) * rate_;
  const double whole = std::floor(expected);
  const double frac = expected - whole;
  // One draw per call even when frac == 0, so the stream position is a
  // pure function of the call sequence (see the file comment).
  const bool extra = rng_.next_double() < frac;
  return static_cast<std::uint64_t>(whole) + (extra ? 1u : 0u);
}

SampledAccess AccessSampler::sample(const ObjectAccess& access) {
  SampledAccess out;
  out.object = access.object;
  out.loads = sample_count(access.load_misses);
  out.stores = sample_count(access.store_misses);
  return out;
}

}  // namespace ecohmem::online
