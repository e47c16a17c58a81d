#include "ecohmem/flexmalloc/flexmalloc.hpp"

namespace ecohmem::flexmalloc {

namespace {
/// Non-overlapping VA ranges per tier: tier i owns [ (i+1)<<44, (i+2)<<44 ).
std::uint64_t heap_base(std::size_t tier_index) {
  return (static_cast<std::uint64_t>(tier_index) + 1) << 44;
}

/// Relaxed monotonic-max update (peak trackers under concurrency).
void atomic_max(std::atomic<Bytes>& target, Bytes candidate) {
  Bytes current = target.load(std::memory_order_relaxed);
  while (candidate > current &&
         !target.compare_exchange_weak(current, candidate, std::memory_order_relaxed)) {
  }
}
}  // namespace

FlexMalloc::FlexMalloc(FlexMalloc&& other) noexcept
    : heaps_(std::move(other.heaps_)),
      tier_stats_(std::move(other.tier_stats_)),
      matcher_(std::move(other.matcher_)),
      fallback_(other.fallback_),
      oom_redirects_(other.oom_redirects_.load(std::memory_order_relaxed)),
      migrations_(other.migrations_.load(std::memory_order_relaxed)),
      migrated_bytes_(other.migrated_bytes_.load(std::memory_order_relaxed)),
      migration_refusals_(other.migration_refusals_.load(std::memory_order_relaxed)) {}

FlexMalloc& FlexMalloc::operator=(FlexMalloc&& other) noexcept {
  if (this == &other) return *this;
  heaps_ = std::move(other.heaps_);
  tier_stats_ = std::move(other.tier_stats_);
  matcher_ = std::move(other.matcher_);
  fallback_ = other.fallback_;
  oom_redirects_.store(other.oom_redirects_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  migrations_.store(other.migrations_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  migrated_bytes_.store(other.migrated_bytes_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  migration_refusals_.store(other.migration_refusals_.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  return *this;
}

Expected<FlexMalloc> FlexMalloc::create(std::vector<HeapSpec> heaps, const ParsedReport& report,
                                        const bom::SymbolTable* symbols,
                                        MatcherOptions matcher_options) {
  if (heaps.empty()) return unexpected("FlexMalloc needs at least one heap");

  FlexMalloc fm;
  bool fallback_found = false;
  for (std::size_t i = 0; i < heaps.size(); ++i) {
    const HeapSpec& spec = heaps[i];
    if (spec.capacity == 0) return unexpected("heap '" + spec.tier + "' has zero capacity");
    fm.heaps_.push_back(
        std::make_unique<ArenaHeap>(spec.tier, heap_base(i), spec.capacity));
    fm.tier_stats_.push_back(std::make_unique<AtomicTierStats>());
    fm.tier_stats_.back()->tier = spec.tier;
    if (spec.tier == report.fallback_tier) {
      fm.fallback_ = i;
      fallback_found = true;
    }
  }
  if (!report.fallback_tier.empty() && !fallback_found) {
    return unexpected("report fallback tier '" + report.fallback_tier + "' has no heap");
  }
  if (report.fallback_tier.empty()) {
    // No fallback named in the report: use the largest heap, which is the
    // sensible default the paper describes ("usually the largest").
    std::size_t largest = 0;
    for (std::size_t i = 1; i < fm.heaps_.size(); ++i) {
      if (fm.heaps_[i]->capacity() > fm.heaps_[largest]->capacity()) largest = i;
    }
    fm.fallback_ = largest;
  }

  // Validate that every report tier has a heap before building the index.
  for (const auto& entry : report.entries) {
    bool known = false;
    for (const auto& h : fm.heaps_) {
      if (h->name() == entry.tier) {
        known = true;
        break;
      }
    }
    if (!known) return unexpected("report names unknown tier '" + entry.tier + "'");
  }

  auto matcher = CallStackMatcher::create(report, symbols, matcher_options);
  if (!matcher) return unexpected(matcher.error());
  fm.matcher_ = std::move(*matcher);
  return fm;
}

Expected<std::size_t> FlexMalloc::tier_index(std::string_view name) const {
  for (std::size_t i = 0; i < heaps_.size(); ++i) {
    if (heaps_[i]->name() == name) return i;
  }
  return unexpected("unknown tier: '" + std::string(name) + "'");
}

Expected<Allocation> FlexMalloc::malloc(const bom::CallStack& stack, Bytes size) {
  const MatchResult match = matcher_.match(stack);

  std::size_t target = fallback_;
  if (match.matched()) {
    if (auto idx = tier_index(*match.tier)) target = *idx;
  }

  Allocation out;
  out.matched = match.matched();
  out.tier_index = target;

  auto addr = heaps_[target]->allocate(size);
  if (!addr && target != fallback_) {
    // Designated tier is full: redirect to the fallback subsystem (§IV-C).
    // The designated heap's lock is already released here, so redirect
    // never holds two heap locks at once.
    target = fallback_;
    out.redirected = true;
    oom_redirects_.fetch_add(1, std::memory_order_relaxed);
    addr = heaps_[target]->allocate(size);
  }
  if (!addr) return unexpected(addr.error());

  out.address = *addr;
  out.tier_index = target;
  auto& stats = *tier_stats_[target];
  stats.allocations.fetch_add(1, std::memory_order_relaxed);
  stats.bytes.fetch_add(size, std::memory_order_relaxed);
  // Peak tracking is a best-effort observation under concurrency: the
  // heap's own used() is exact, the stats high-water may miss a peak
  // that another thread's free erases between our two reads.
  atomic_max(stats.high_water, heaps_[target]->used());
  return out;
}

Status FlexMalloc::free(std::uint64_t address) {
  for (auto& heap : heaps_) {
    if (heap->owns(address)) {
      auto freed = heap->deallocate(address);
      if (!freed) return unexpected(freed.error());
      return {};
    }
  }
  return unexpected("free of address not owned by any heap");
}

Expected<Allocation> FlexMalloc::realloc(const bom::CallStack& stack, std::uint64_t address,
                                         Bytes new_size) {
  if (address != 0) {
    if (Status s = free(address); !s) return unexpected(s.error());
  }
  return malloc(stack, new_size);
}

Expected<MigrationOutcome> FlexMalloc::migrate(std::uint64_t address, std::size_t target_tier) {
  if (target_tier >= heaps_.size()) {
    return unexpected("migrate: unknown target tier index " + std::to_string(target_tier));
  }
  std::size_t source = heaps_.size();
  for (std::size_t i = 0; i < heaps_.size(); ++i) {
    if (heaps_[i]->owns(address)) {
      source = i;
      break;
    }
  }
  if (source == heaps_.size()) {
    return unexpected("migrate: address not owned by any heap");
  }
  if (source == target_tier) {
    return unexpected("migrate: block already lives in tier '" + heaps_[source]->name() + "'");
  }

  // `owns` also answers true for freed addresses inside the heap's used
  // range; the size lookup is the live-block check.
  const auto size = heaps_[source]->block_size(address);
  if (!size) return unexpected("migrate: " + size.error());

  MigrationOutcome out;
  out.from_tier = source;
  out.bytes = *size;

  // Destination first, so a full target leaves the block where it is.
  // Each heap call takes only that heap's leaf lock; the transient
  // double-occupancy (both copies live) matches real migration.
  const auto moved_to = heaps_[target_tier]->allocate(*size);
  if (!moved_to) {
    migration_refusals_.fetch_add(1, std::memory_order_relaxed);
    out.moved = false;
    out.address = address;
    return out;
  }
  const auto freed = heaps_[source]->deallocate(address);
  if (!freed) {
    // Unreachable under the single-owner rule; roll the copy back so a
    // failure never leaks destination capacity.
    (void)heaps_[target_tier]->deallocate(*moved_to);
    return unexpected("migrate: source release failed: " + freed.error());
  }

  out.moved = true;
  out.address = *moved_to;
  migrations_.fetch_add(1, std::memory_order_relaxed);
  migrated_bytes_.fetch_add(*size, std::memory_order_relaxed);
  atomic_max(tier_stats_[target_tier]->high_water, heaps_[target_tier]->used());
  return out;
}

Expected<MigrationOutcome> FlexMalloc::migrate(std::uint64_t address, std::size_t target_tier,
                                               Bytes offset, Bytes length) {
  if (target_tier >= heaps_.size()) {
    return unexpected("migrate: unknown target tier index " + std::to_string(target_tier));
  }
  std::size_t source = heaps_.size();
  for (std::size_t i = 0; i < heaps_.size(); ++i) {
    if (heaps_[i]->owns(address)) {
      source = i;
      break;
    }
  }
  if (source == heaps_.size()) {
    return unexpected("migrate: address not owned by any heap");
  }
  if (source == target_tier) {
    return unexpected("migrate: block already lives in tier '" + heaps_[source]->name() + "'");
  }
  const auto size = heaps_[source]->block_size(address);
  if (!size) return unexpected("migrate: " + size.error());
  if (length == 0 || offset > *size || length > *size - offset) {
    return unexpected("migrate: sub-range [" + std::to_string(offset) + ", " +
                      std::to_string(offset + length) + ") outside block of " +
                      std::to_string(*size) + " bytes");
  }
  // A tail remnant smaller than one alignment unit is exactly the
  // block's padding (blocks are alignment-padded) and could never be
  // released on its own; absorb it into the moved range so chunk-sized
  // requests against the end of a padded block stay releasable.
  if (*size - offset - length < heaps_[source]->alignment()) length = *size - offset;
  // The whole block is a plain migration — no split needed.
  if (offset == 0 && length == *size) return migrate(address, target_tier);

  MigrationOutcome out;
  out.from_tier = source;
  out.bytes = length;

  // Destination first (same contract as the whole-block form): a full
  // target refuses and leaves the source block untouched.
  const auto moved_to = heaps_[target_tier]->allocate(length);
  if (!moved_to) {
    migration_refusals_.fetch_add(1, std::memory_order_relaxed);
    out.moved = false;
    out.address = address;
    return out;
  }
  const auto freed = heaps_[source]->release_range(address, offset, length);
  if (!freed) {
    // Misaligned or raced sub-range; roll the copy back so a failure
    // never leaks destination capacity.
    (void)heaps_[target_tier]->deallocate(*moved_to);
    return unexpected("migrate: source sub-range release failed: " + freed.error());
  }

  out.moved = true;
  out.address = *moved_to;
  migrations_.fetch_add(1, std::memory_order_relaxed);
  migrated_bytes_.fetch_add(length, std::memory_order_relaxed);
  atomic_max(tier_stats_[target_tier]->high_water, heaps_[target_tier]->used());
  return out;
}

std::vector<TierStats> FlexMalloc::stats() const {
  std::vector<TierStats> out;
  out.reserve(tier_stats_.size());
  for (const auto& s : tier_stats_) {
    TierStats t;
    t.tier = s->tier;
    t.allocations = s->allocations.load(std::memory_order_relaxed);
    t.bytes = s->bytes.load(std::memory_order_relaxed);
    t.high_water = s->high_water.load(std::memory_order_relaxed);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace ecohmem::flexmalloc
