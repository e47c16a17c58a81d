#pragma once

/// \file heap_manager.hpp
/// Per-tier heap managers behind FlexMalloc (§IV-C).
///
/// On the real system these are memkind (PMem), POSIX malloc (DRAM) or
/// libnuma. Here each tier gets an `ArenaHeap`: a virtual-address-space
/// manager with first-fit free-list reuse and capacity accounting. The
/// addresses it hands out are simulated VAs — distinct non-overlapping
/// ranges per tier, so the profiler's sample attribution and the
/// analyzer's interval lookup behave exactly as with real pointers.
///
/// Thread safety (docs/threading.md): `ArenaHeap` is safe to call from
/// any number of threads concurrently. Locking is sharded naturally —
/// one mutex per tier heap, never held across heaps — so allocations on
/// different tiers proceed in parallel and no lock ordering between
/// heaps exists (hence no deadlock). The counters returned by `used()`,
/// `high_water()` and `live_blocks()` are lock-free atomic reads.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "ecohmem/common/expected.hpp"
#include "ecohmem/common/lockdep.hpp"
#include "ecohmem/common/thread_annotations.hpp"
#include "ecohmem/common/units.hpp"

namespace ecohmem::flexmalloc {

/// Interface of a tier-backed heap.
///
/// Contract: implementations must be safe for concurrent calls from
/// multiple threads (an interposer under a multithreaded application
/// drives one shared heap per tier from all application threads).
class HeapManager {
 public:
  virtual ~HeapManager() = default;

  /// Allocates `size` bytes; fails when the tier is out of capacity.
  [[nodiscard]] virtual Expected<std::uint64_t> allocate(Bytes size) = 0;

  /// Frees the block starting at `address`; returns its size.
  [[nodiscard]] virtual Expected<Bytes> deallocate(std::uint64_t address) = 0;

  /// True if `address` belongs to this heap.
  [[nodiscard]] virtual bool owns(std::uint64_t address) const = 0;

  /// Bytes currently allocated (padded block sizes).
  [[nodiscard]] virtual Bytes used() const = 0;

  /// Total capacity available for allocations.
  [[nodiscard]] virtual Bytes capacity() const = 0;

  /// Tier name this heap backs (matches the report's tier names).
  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Block alignment: every allocation is padded to a multiple of this.
  [[nodiscard]] virtual Bytes alignment() const = 0;

  /// Padded size of the live block at `address`; fails when no live
  /// block starts there. Used by FlexMalloc's object migration to size
  /// the destination allocation before touching the source block.
  [[nodiscard]] virtual Expected<Bytes> block_size(std::uint64_t address) const = 0;
};

/// Simulated-address-space heap with first-fit reuse of freed blocks.
///
/// Thread safe: `allocate`/`deallocate`/`owns` serialize on one internal
/// mutex (a leaf lock — no other lock is ever taken while it is held);
/// the accounting getters are wait-free atomic loads. Not copyable or
/// movable (construct in place, e.g. behind `std::unique_ptr`).
class ArenaHeap final : public HeapManager {
 public:
  /// `base`: start of this heap's VA range (ranges must not overlap
  /// across heaps). Blocks are aligned to `alignment`.
  ArenaHeap(std::string name, std::uint64_t base, Bytes capacity, Bytes alignment = 64);

  ArenaHeap(const ArenaHeap&) = delete;
  ArenaHeap& operator=(const ArenaHeap&) = delete;

  [[nodiscard]] Expected<std::uint64_t> allocate(Bytes size) override;
  [[nodiscard]] Expected<Bytes> deallocate(std::uint64_t address) override;
  [[nodiscard]] bool owns(std::uint64_t address) const override;
  [[nodiscard]] Bytes used() const override { return used_.load(std::memory_order_relaxed); }
  [[nodiscard]] Bytes capacity() const override { return capacity_; }
  [[nodiscard]] const std::string& name() const override { return name_; }

  /// Start of this heap's simulated VA range.
  [[nodiscard]] std::uint64_t base() const { return base_; }

  [[nodiscard]] Expected<Bytes> block_size(std::uint64_t address) const override;

  /// Releases the sub-range `[address + offset, address + offset +
  /// length)` of the live block at `address` back to the free list,
  /// leaving up to two live remnant blocks (before/after the range).
  /// The freed middle coalesces with free neighbours exactly like a
  /// whole-block free. `offset` must be a multiple of `alignment()`, and
  /// `length` must either be a multiple of `alignment()` or reach the
  /// end of the block (so remnant starts stay aligned). Releasing the
  /// whole block is equivalent to `deallocate`. Returns the bytes
  /// released. This is the heap half of sub-range (page-granular)
  /// object migration — FlexMalloc carves chunks out of huge blocks
  /// instead of moving them whole.
  [[nodiscard]] Expected<Bytes> release_range(std::uint64_t address, Bytes offset, Bytes length);

  /// Every allocation is padded to a multiple of `alignment()`, so a
  /// request for `size` bytes consumes at most `size + alignment()`
  /// bytes of capacity (zero-byte requests consume exactly one unit).
  [[nodiscard]] Bytes alignment() const override { return alignment_; }

  /// Number of currently live (allocated, unfreed) blocks.
  [[nodiscard]] std::uint64_t live_blocks() const {
    return live_count_.load(std::memory_order_relaxed);
  }

  /// Highest `used()` value ever observed.
  [[nodiscard]] Bytes high_water() const { return high_water_.load(std::memory_order_relaxed); }

 private:
  std::string name_;
  std::uint64_t base_;
  Bytes capacity_;
  Bytes alignment_;

  /// Leaf lock (rank table: docs/threading.md). One per tier heap,
  /// never held across heaps or while calling out.
  mutable common::RankedMutex mu_{common::lockdep::LockRank::kArenaHeap, "arena_heap"};
  std::uint64_t cursor_ ECOHMEM_GUARDED_BY(mu_);                 ///< bump pointer
  std::map<std::uint64_t, Bytes> live_ ECOHMEM_GUARDED_BY(mu_);  ///< address -> size
  std::map<std::uint64_t, Bytes> free_ ECOHMEM_GUARDED_BY(mu_);  ///< address -> size, coalesced

  std::atomic<Bytes> used_{0};
  std::atomic<Bytes> high_water_{0};
  std::atomic<std::uint64_t> live_count_{0};
};

}  // namespace ecohmem::flexmalloc
