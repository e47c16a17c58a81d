#pragma once

/// \file sampler.hpp
/// Simulated PEBS-style access sampling over the memsim traffic stream.
///
/// A real PEBS unit delivers roughly one record per 1/rate LLC-miss
/// events. The simulator works on per-object *expected* miss counts, so
/// the sampler scales each count by the rate and resolves the fractional
/// remainder with one Bernoulli draw from the shared deterministic RNG
/// (common/rng.hpp). The draw order is the engine's kernel-replay order,
/// which is what makes the whole online subsystem bit-reproducible:
/// same seed + same workload + same policy => same samples => same
/// migration sequence (asserted in tests/online/ and pinned by
/// tests/runtime/test_replay_golden.cpp).
///
/// The engine keeps `kSampleStreams` samplers and samples object `o`
/// with stream `o % kSampleStreams`, so each object's draws depend only
/// on the kernels that touch objects of its stream. The stream count and
/// seeds are part of the output contract: changing either changes every
/// migration sequence.

#include <cstddef>
#include <cstdint>

#include "ecohmem/common/rng.hpp"
#include "ecohmem/common/units.hpp"

namespace ecohmem::online {

/// Number of independent sample streams (see the file comment).
inline constexpr std::size_t kSampleStreams = 8;

/// Seed of sample stream `stream`: a splitmix64 mix of the policy seed
/// with the stream index.
[[nodiscard]] std::uint64_t sample_stream_seed(std::uint64_t seed, std::size_t stream);

/// Per-object miss counts of one kernel, as fed by the replay engine.
struct ObjectAccess {
  std::size_t object = 0;
  double load_misses = 0.0;
  double store_misses = 0.0;
  Bytes bytes = 0;  ///< live size, for miss-density (events/MiB) tracking
};

/// Sampled (load + store) event counts for one object in one kernel.
struct SampledAccess {
  std::size_t object = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
};

class AccessSampler {
 public:
  /// `rate` in (0, 1]; `seed` selects the deterministic sample stream.
  AccessSampler(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {}

  /// Samples an expected event count: floor(events * rate) plus a
  /// Bernoulli draw on the fractional part. Consumes exactly one RNG
  /// draw per call, so the stream position depends only on the call
  /// sequence (never on the values sampled).
  [[nodiscard]] std::uint64_t sample_count(double events);

  /// Samples one object's kernel misses (loads first, then stores).
  [[nodiscard]] SampledAccess sample(const ObjectAccess& access);

  [[nodiscard]] double rate() const { return rate_; }

 private:
  double rate_;
  Rng rng_;
};

}  // namespace ecohmem::online
