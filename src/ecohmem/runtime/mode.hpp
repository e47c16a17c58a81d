#pragma once

/// \file mode.hpp
/// Execution modes: how allocations map to tiers and how LLC misses turn
/// into tier traffic and latency.
///
/// Modes provided here:
///   - AppDirectMode: app-direct placement through FlexMalloc (the
///     ecoHMEM production path; also used for manual/ProfDP placements),
///   - MemoryModeExec: the memory-mode baseline (DRAM as cache of PMem),
///   - FixedTierMode: everything in one tier (ProfDP differential runs).
/// The kernel-tiering baseline lives in baselines/ as another subclass.
///
/// Modes are driven by the engine's one replay thread and need no
/// synchronization of their own.

#include <string>
#include <unordered_map>
#include <vector>

#include "ecohmem/common/expected.hpp"
#include "ecohmem/flexmalloc/flexmalloc.hpp"
#include "ecohmem/memsim/analytic_cache.hpp"
#include "ecohmem/memsim/dram_cache.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/runtime/workload.hpp"

namespace ecohmem::runtime {

/// A live object as seen by a mode during traffic resolution.
struct LiveObjectRef {
  std::size_t object = 0;
  const ObjectSpec* spec = nullptr;
  std::uint64_t address = 0;
  double kernel_footprint = 0.0;  ///< bytes this kernel touches
};

/// How one object's misses turn into tier traffic and load latency:
///   load_latency = fixed_latency_ns + sum_t latency_share[t] * read_lat(t)
struct ObjectTraffic {
  std::vector<double> read_bytes;     ///< per tier
  std::vector<double> write_bytes;    ///< per tier
  std::vector<double> latency_share;  ///< per tier, weights of read latency
  double fixed_latency_ns = 0.0;
};

/// Result of one attempted object migration (`migrate_object` /
/// `migrate_object_range`).
struct ObjectMigration {
  bool moved = false;          ///< false = target tier had no capacity
  std::uint64_t address = 0;   ///< new address when moved, else the original
  std::size_t from_tier = 0;   ///< engine tier the object came from
  Bytes bytes = 0;             ///< block bytes moved (padded size)
  Bytes offset = 0;            ///< object-relative start of the moved range
  bool partial = false;        ///< true for a sub-range (page-granular) move
};

class ExecutionMode {
 public:
  explicit ExecutionMode(const memsim::MemorySystem* system) : system_(system) {}
  virtual ~ExecutionMode() = default;

  ExecutionMode(const ExecutionMode&) = delete;
  ExecutionMode& operator=(const ExecutionMode&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Places a new object; returns its address.
  [[nodiscard]] virtual Expected<std::uint64_t> on_alloc(std::size_t object,
                                                         const ObjectSpec& spec,
                                                         const SiteSpec& site, Bytes size) = 0;

  /// Releases an object's storage.
  [[nodiscard]] virtual Status on_free(std::size_t object, std::uint64_t address) = 0;

  /// Converts per-object misses into per-tier traffic + latency recipe.
  /// `out` is sized by the caller to `objects.size()`, with per-tier
  /// vectors sized to the tier count and zeroed. Modes may append extra
  /// entries beyond `objects.size()` for background traffic (e.g. page
  /// migration); such entries contribute bandwidth but no load stalls.
  virtual void resolve(const std::vector<LiveObjectRef>& objects,
                       const std::vector<memsim::KernelObjectMisses>& misses,
                       std::vector<ObjectTraffic>& out) = 0;

  /// Incremental interposition overhead since the last call (ns).
  [[nodiscard]] virtual double take_alloc_overhead_ns() { return 0.0; }

  /// Aggregate DRAM-cache hit ratio so far (memory mode only).
  [[nodiscard]] virtual double dram_cache_hit_ratio() const { return 0.0; }

  /// Called after each kernel with its resolved duration; migration-based
  /// modes react here.
  virtual void after_kernel(Ns start, Ns end,
                            const std::vector<LiveObjectRef>& objects,
                            const std::vector<memsim::KernelObjectMisses>& misses) {
    (void)start;
    (void)end;
    (void)objects;
    (void)misses;
  }

  /// OOM fallback redirections (AppDirect reports FlexMalloc's counter).
  [[nodiscard]] virtual std::uint64_t oom_redirects() const { return 0; }

  /// --- Object migration (the online placement subsystem, docs/online.md).
  /// Modes that can move a live object between tiers opt in by
  /// overriding all four members; the engine refuses to run an online
  /// policy against a mode that keeps the default `false`. Migrations
  /// happen at kernel boundaries.

  /// Whether `migrate_object` is implemented.
  [[nodiscard]] virtual bool supports_object_migration() const { return false; }

  /// Moves the live object's block at `address` into engine tier
  /// `target_tier`. `moved == false` means the target had no capacity
  /// and the object is untouched (not an error); errors are reserved
  /// for unknown addresses/tiers.
  [[nodiscard]] virtual Expected<ObjectMigration> migrate_object(std::size_t object,
                                                                 std::uint64_t address,
                                                                 std::size_t target_tier);

  /// Sub-range (page-granular) form of `migrate_object`: moves only
  /// `[offset, offset + length)` of the object — always the prefix of
  /// its not-yet-migrated remainder, so `offset` must equal the bytes
  /// already resident in `target_tier`. A `length` reaching the
  /// object's end completes the migration and flips `object_tier` to
  /// `target_tier`. Modes that keep `supports_object_migration` false,
  /// or that cannot split blocks, return an error (the engine only
  /// calls this for modes that support it).
  [[nodiscard]] virtual Expected<ObjectMigration> migrate_object_range(std::size_t object,
                                                                       std::uint64_t address,
                                                                       std::size_t target_tier,
                                                                       Bytes offset,
                                                                       Bytes length);

  /// Engine tier the live object currently occupies.
  [[nodiscard]] virtual Expected<std::size_t> object_tier(std::size_t object) const;

  /// Bytes of `object` resident in engine tier `tier` through *partial*
  /// (sub-range) migrations only — 0 for objects that have never been
  /// split, whatever tier they live in. The planner adds this to its
  /// whole-object view to find each huge object's promotion remainder.
  [[nodiscard]] virtual Bytes partial_resident_bytes(std::size_t object,
                                                     std::size_t tier) const {
    (void)object;
    (void)tier;
    return 0;
  }

  /// Free capacity migrations may grow engine tier `tier` by.
  [[nodiscard]] virtual Bytes migration_headroom(std::size_t tier) const {
    (void)tier;
    return 0;
  }

  [[nodiscard]] const memsim::MemorySystem& system() const { return *system_; }

 protected:
  const memsim::MemorySystem* system_;
};

/// App-direct placement through a FlexMalloc instance (which owns the
/// matching against an Advisor report).
class AppDirectMode final : public ExecutionMode {
 public:
  AppDirectMode(const memsim::MemorySystem* system, flexmalloc::FlexMalloc* fm);

  [[nodiscard]] std::string name() const override { return "app-direct"; }
  [[nodiscard]] Expected<std::uint64_t> on_alloc(std::size_t object, const ObjectSpec& spec,
                                                 const SiteSpec& site, Bytes size) override;
  [[nodiscard]] Status on_free(std::size_t object, std::uint64_t address) override;
  void resolve(const std::vector<LiveObjectRef>& objects,
               const std::vector<memsim::KernelObjectMisses>& misses,
               std::vector<ObjectTraffic>& out) override;
  [[nodiscard]] double take_alloc_overhead_ns() override;
  [[nodiscard]] std::uint64_t oom_redirects() const override;

  /// Object migration through FlexMalloc's tier heaps (docs/online.md).
  [[nodiscard]] bool supports_object_migration() const override { return true; }
  [[nodiscard]] Expected<ObjectMigration> migrate_object(std::size_t object,
                                                         std::uint64_t address,
                                                         std::size_t target_tier) override;
  [[nodiscard]] Expected<ObjectMigration> migrate_object_range(std::size_t object,
                                                               std::uint64_t address,
                                                               std::size_t target_tier,
                                                               Bytes offset,
                                                               Bytes length) override;
  [[nodiscard]] Expected<std::size_t> object_tier(std::size_t object) const override;
  [[nodiscard]] Bytes partial_resident_bytes(std::size_t object,
                                             std::size_t tier) const override;
  [[nodiscard]] Bytes migration_headroom(std::size_t tier) const override;

  /// Tier the given workload object currently lives in.
  [[nodiscard]] Expected<std::size_t> tier_of(std::size_t object) const;

 private:
  /// One contiguous piece of a partially migrated object, in
  /// object-offset order. `length` is in object bytes; the last part
  /// additionally owns the home block's alignment padding.
  struct Fragment {
    std::uint64_t address = 0;
    Bytes offset = 0;             ///< object-relative start
    Bytes length = 0;             ///< object bytes this part covers
    std::size_t engine_tier = 0;  ///< engine tier the part resides in
  };

  /// FlexMalloc tier index backing engine tier `tier`, if any.
  [[nodiscard]] Expected<std::size_t> fm_tier_for(std::size_t tier) const;

  /// Fragment list of `object`, or nullptr when it was never split.
  [[nodiscard]] const std::vector<Fragment>* fragments_of(std::size_t object) const;

  flexmalloc::FlexMalloc* fm_;
  std::vector<std::size_t> object_tier_;   // engine tier index per object
  std::vector<std::size_t> fm_to_engine_;  // FlexMalloc tier idx -> engine tier idx
  double overhead_taken_ns_ = 0.0;

  /// Objects split by sub-range migration -> their fragments.
  std::unordered_map<std::size_t, std::vector<Fragment>> fragments_;
};

/// Memory mode: DRAM caches the PMem address space (§II).
class MemoryModeExec final : public ExecutionMode {
 public:
  /// `dram_tier`/`pmem_tier`: engine tier indices of the cache and the
  /// backing store.
  MemoryModeExec(const memsim::MemorySystem* system, std::size_t dram_tier,
                 std::size_t pmem_tier, memsim::DramCacheModel model);

  [[nodiscard]] std::string name() const override { return "memory-mode"; }
  [[nodiscard]] Expected<std::uint64_t> on_alloc(std::size_t object, const ObjectSpec& spec,
                                                 const SiteSpec& site, Bytes size) override;
  [[nodiscard]] Status on_free(std::size_t object, std::uint64_t address) override;
  void resolve(const std::vector<LiveObjectRef>& objects,
               const std::vector<memsim::KernelObjectMisses>& misses,
               std::vector<ObjectTraffic>& out) override;
  [[nodiscard]] double dram_cache_hit_ratio() const override;

 private:
  std::size_t dram_tier_;
  std::size_t pmem_tier_;
  memsim::DramCacheModel model_;
  std::uint64_t next_address_ = 1ull << 40;  ///< bump address source
  double hits_weighted_ = 0.0;
  double requests_weighted_ = 0.0;
};

/// Everything in one tier (ProfDP differential profiling runs).
class FixedTierMode final : public ExecutionMode {
 public:
  FixedTierMode(const memsim::MemorySystem* system, std::size_t tier);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Expected<std::uint64_t> on_alloc(std::size_t object, const ObjectSpec& spec,
                                                 const SiteSpec& site, Bytes size) override;
  [[nodiscard]] Status on_free(std::size_t object, std::uint64_t address) override;
  void resolve(const std::vector<LiveObjectRef>& objects,
               const std::vector<memsim::KernelObjectMisses>& misses,
               std::vector<ObjectTraffic>& out) override;

 private:
  std::size_t tier_;
  std::uint64_t next_address_ = 1ull << 40;  ///< bump address source
};

}  // namespace ecohmem::runtime
