#include "ecohmem/runtime/mode.hpp"

#include <algorithm>

namespace ecohmem::runtime {

// Default migration surface: modes without object-migration support
// answer every call with a clear error (the engine checks
// `supports_object_migration` first, so reaching these is a bug).

Expected<ObjectMigration> ExecutionMode::migrate_object(std::size_t object,
                                                        std::uint64_t address,
                                                        std::size_t target_tier) {
  (void)object;
  (void)address;
  (void)target_tier;
  return unexpected("execution mode '" + name() + "' does not support object migration");
}

Expected<ObjectMigration> ExecutionMode::migrate_object_range(std::size_t object,
                                                              std::uint64_t address,
                                                              std::size_t target_tier,
                                                              Bytes offset, Bytes length) {
  (void)object;
  (void)address;
  (void)target_tier;
  (void)offset;
  (void)length;
  return unexpected("execution mode '" + name() + "' does not support sub-range migration");
}

Expected<std::size_t> ExecutionMode::object_tier(std::size_t object) const {
  (void)object;
  return unexpected("execution mode '" + name() + "' does not track per-object tiers");
}

// ---------------------------------------------------------------- AppDirect

AppDirectMode::AppDirectMode(const memsim::MemorySystem* system, flexmalloc::FlexMalloc* fm)
    : ExecutionMode(system), fm_(fm) {
  // FlexMalloc tier order may differ from the engine's; build the map once.
  fm_to_engine_.resize(fm_->tier_count(), 0);
  for (std::size_t i = 0; i < fm_->tier_count(); ++i) {
    if (auto idx = system_->tier_index(fm_->tier_name(i))) fm_to_engine_[i] = *idx;
  }
}

Expected<std::uint64_t> AppDirectMode::on_alloc(std::size_t object, const ObjectSpec& spec,
                                                const SiteSpec& site, Bytes size) {
  (void)spec;
  auto allocation = fm_->malloc(site.stack, size);
  if (!allocation) return unexpected(allocation.error());

  if (object_tier_.size() <= object) object_tier_.resize(object + 1, 0);
  object_tier_[object] = fm_to_engine_.at(allocation->tier_index);
  return allocation->address;
}

Status AppDirectMode::on_free(std::size_t object, std::uint64_t address) {
  // A sub-range-migrated object owns several blocks.
  const auto it = fragments_.find(object);
  if (it == fragments_.end()) return fm_->free(address);
  const std::vector<Fragment> parts = std::move(it->second);
  fragments_.erase(it);
  for (const Fragment& part : parts) {
    if (Status s = fm_->free(part.address); !s) return s;
  }
  return {};
}

const std::vector<AppDirectMode::Fragment>* AppDirectMode::fragments_of(
    std::size_t object) const {
  const auto it = fragments_.find(object);
  return it != fragments_.end() ? &it->second : nullptr;
}

void AppDirectMode::resolve(const std::vector<LiveObjectRef>& objects,
                            const std::vector<memsim::KernelObjectMisses>& misses,
                            std::vector<ObjectTraffic>& out) {
  const double line = static_cast<double>(kCacheLine);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (const auto* parts = fragments_of(objects[i].object)) {
      // Split a fragmented object's traffic across its resident tiers
      // in proportion to bytes resident there — the model's view of an
      // object whose hot chunks moved while the rest stayed behind.
      Bytes total = 0;
      for (const Fragment& part : *parts) total += part.length;
      if (total == 0) continue;
      for (const Fragment& part : *parts) {
        const double frac = static_cast<double>(part.length) / static_cast<double>(total);
        out[i].read_bytes[part.engine_tier] += misses[i].read_lines() * line * frac;
        out[i].write_bytes[part.engine_tier] += misses[i].store_misses * line * frac;
        out[i].latency_share[part.engine_tier] += frac;
      }
      continue;
    }
    const std::size_t tier = object_tier_.at(objects[i].object);
    out[i].read_bytes[tier] += misses[i].read_lines() * line;
    out[i].write_bytes[tier] += misses[i].store_misses * line;
    out[i].latency_share[tier] = 1.0;
  }
}

double AppDirectMode::take_alloc_overhead_ns() {
  const double total = fm_->matching_cost_ns();
  const double delta = total - overhead_taken_ns_;
  overhead_taken_ns_ = total;
  return delta;
}

std::uint64_t AppDirectMode::oom_redirects() const { return fm_->oom_redirects(); }

Expected<std::size_t> AppDirectMode::fm_tier_for(std::size_t tier) const {
  for (std::size_t i = 0; i < fm_to_engine_.size(); ++i) {
    if (fm_to_engine_[i] == tier) return i;
  }
  return unexpected("no FlexMalloc heap backs engine tier " + std::to_string(tier));
}

Expected<ObjectMigration> AppDirectMode::migrate_object(std::size_t object,
                                                        std::uint64_t address,
                                                        std::size_t target_tier) {
  const auto fm_tier = fm_tier_for(target_tier);
  if (!fm_tier) return unexpected(fm_tier.error());

  // A fragmented object (earlier sub-range moves) migrates all of its
  // blocks. Whole-object moves only target uniform residents (the
  // planner's victims), so every part lives in the same source tier.
  if (const auto it = fragments_.find(object); it != fragments_.end()) {
    std::vector<Fragment>& parts = it->second;
    ObjectMigration m;
    m.from_tier = object_tier_.at(object);
    for (const Fragment& part : parts) {
      if (part.engine_tier != m.from_tier) {
        return unexpected("migrate_object: fragmented object " + std::to_string(object) +
                          " is not tier-uniform; sub-range moves must complete first");
      }
      m.bytes += part.length;
    }

    // All-or-nothing capacity pre-check so a refusal never leaves the
    // object half-moved; one alignment pad per part bounds the padding.
    const auto& heap = fm_->heap(*fm_tier);
    const Bytes used = heap.used();
    const Bytes free_bytes = heap.capacity() > used ? heap.capacity() - used : 0;
    Bytes needed = 0;
    for (const Fragment& part : parts) needed += part.length + heap.alignment();
    if (needed > free_bytes) {
      m.moved = false;
      m.address = address;
      return m;
    }
    for (Fragment& part : parts) {
      const auto outcome = fm_->migrate(part.address, *fm_tier);
      if (!outcome) return unexpected(outcome.error());
      if (!outcome->moved) {
        return unexpected("migrate_object: fragment move refused after capacity check");
      }
      part.address = outcome->address;
      part.engine_tier = target_tier;
    }
    object_tier_.at(object) = target_tier;
    m.moved = true;
    m.address = parts.front().address;
    return m;
  }

  const auto outcome = fm_->migrate(address, *fm_tier);
  if (!outcome) return unexpected(outcome.error());

  ObjectMigration m;
  m.moved = outcome->moved;
  m.address = outcome->address;
  m.from_tier = fm_to_engine_.at(outcome->from_tier);
  m.bytes = outcome->bytes;
  if (m.moved) object_tier_.at(object) = target_tier;
  return m;
}

Expected<ObjectMigration> AppDirectMode::migrate_object_range(std::size_t object,
                                                              std::uint64_t address,
                                                              std::size_t target_tier,
                                                              Bytes offset, Bytes length) {
  const auto fm_tier = fm_tier_for(target_tier);
  if (!fm_tier) return unexpected(fm_tier.error());
  if (length == 0) return unexpected("migrate_object_range: empty range");

  std::vector<Fragment> parts;
  bool had_entry = false;
  if (const auto it = fragments_.find(object); it != fragments_.end()) {
    parts = it->second;
    had_entry = true;
  }

  // Locate the part containing the range: the home block for an unsplit
  // object, else the fragment covering `offset`.
  Fragment source;
  if (!had_entry) {
    source.address = address;
    source.offset = 0;
    source.length = offset + length;  // lower bound; fixed up below from the block
    source.engine_tier = object_tier_.at(object);
    const auto fm_source = fm_tier_for(source.engine_tier);
    if (!fm_source) return unexpected(fm_source.error());
    const auto block = fm_->heap(*fm_source).block_size(address);
    if (!block) return unexpected("migrate_object_range: " + block.error());
    source.length = *block;
  } else {
    bool found = false;
    for (const Fragment& part : parts) {
      if (offset >= part.offset && offset < part.offset + part.length) {
        source = part;
        found = true;
        break;
      }
    }
    if (!found) {
      return unexpected("migrate_object_range: offset " + std::to_string(offset) +
                        " is not inside any fragment of object " + std::to_string(object));
    }
  }
  if (source.engine_tier == target_tier) {
    return unexpected("migrate_object_range: range already resides in the target tier");
  }
  // The planner sizes ranges from byte totals, not fragment layout; a
  // request reaching past the source fragment (an object split, fully
  // promoted, displaced and now re-promoted) clamps to the fragment end —
  // the next evaluation continues from the advanced resident count.
  if (offset + length > source.offset + source.length) {
    length = source.offset + source.length - offset;
  }

  const Bytes block_rel = offset - source.offset;
  const bool whole_part = block_rel == 0 && length == source.length;
  const auto outcome = whole_part
                           ? fm_->migrate(source.address, *fm_tier)
                           : fm_->migrate(source.address, *fm_tier, block_rel, length);
  if (!outcome) return unexpected(outcome.error());

  ObjectMigration m;
  m.moved = outcome->moved;
  m.address = outcome->address;
  m.from_tier = source.engine_tier;
  m.bytes = outcome->bytes;
  m.offset = offset;
  m.partial = true;
  if (!m.moved) return m;

  // Rewrite the fragment list: the moved range becomes its own part,
  // remnants (if any) keep their home addresses.
  if (!had_entry) parts = {source};
  std::vector<Fragment> next;
  next.reserve(parts.size() + 2);
  bool uniform = true;
  for (const Fragment& part : parts) {
    if (part.offset != source.offset) {
      next.push_back(part);
      uniform = uniform && part.engine_tier == target_tier;
      continue;
    }
    if (block_rel > 0) {
      next.push_back(Fragment{part.address, part.offset, block_rel, part.engine_tier});
      uniform = false;
    }
    next.push_back(Fragment{outcome->address, offset, length, target_tier});
    if (block_rel + length < part.length) {
      next.push_back(Fragment{part.address + block_rel + length, offset + length,
                              part.length - block_rel - length, part.engine_tier});
      uniform = false;
    }
  }
  std::sort(next.begin(), next.end(),
            [](const Fragment& a, const Fragment& b) { return a.offset < b.offset; });
  fragments_[object] = std::move(next);

  // Once every byte lives in the target tier the object is an ordinary
  // resident again (e.g. eligible as a displacement victim).
  if (uniform) object_tier_.at(object) = target_tier;
  return m;
}

Bytes AppDirectMode::partial_resident_bytes(std::size_t object, std::size_t tier) const {
  const auto it = fragments_.find(object);
  if (it == fragments_.end()) return 0;
  Bytes total = 0;
  for (const Fragment& part : it->second) {
    if (part.engine_tier == tier) total += part.length;
  }
  return total;
}

Expected<std::size_t> AppDirectMode::object_tier(std::size_t object) const {
  return tier_of(object);
}

Bytes AppDirectMode::migration_headroom(std::size_t tier) const {
  const auto fm_tier = fm_tier_for(tier);
  if (!fm_tier) return 0;
  const auto& heap = fm_->heap(*fm_tier);
  const Bytes capacity = heap.capacity();
  const Bytes used = heap.used();
  return capacity > used ? capacity - used : 0;
}

Expected<std::size_t> AppDirectMode::tier_of(std::size_t object) const {
  if (object >= object_tier_.size()) return unexpected("object never allocated");
  return object_tier_[object];
}

// --------------------------------------------------------------- MemoryMode

MemoryModeExec::MemoryModeExec(const memsim::MemorySystem* system, std::size_t dram_tier,
                               std::size_t pmem_tier, memsim::DramCacheModel model)
    : ExecutionMode(system), dram_tier_(dram_tier), pmem_tier_(pmem_tier), model_(model) {}

Expected<std::uint64_t> MemoryModeExec::on_alloc(std::size_t object, const ObjectSpec& spec,
                                                 const SiteSpec& site, Bytes size) {
  (void)object;
  (void)spec;
  (void)site;
  const std::uint64_t address = next_address_;
  next_address_ += (size + kCacheLine - 1) / kCacheLine * kCacheLine;
  return address;
}

Status MemoryModeExec::on_free(std::size_t object, std::uint64_t address) {
  (void)object;
  (void)address;
  return {};
}

void MemoryModeExec::resolve(const std::vector<LiveObjectRef>& objects,
                             const std::vector<memsim::KernelObjectMisses>& misses,
                             std::vector<ObjectTraffic>& out) {
  std::vector<memsim::DramCacheTraffic> traffic(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    traffic[i].load_misses = misses[i].read_lines();
    traffic[i].store_misses = misses[i].store_misses;
    traffic[i].footprint = objects[i].kernel_footprint;
    traffic[i].locality = objects[i].spec->dram_cache_locality;
  }
  const memsim::DramCacheOutcome outcome = model_.evaluate(traffic);

  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto& o = outcome.per_object[i];
    out[i].read_bytes[dram_tier_] += o.dram_read_bytes;
    out[i].write_bytes[dram_tier_] += o.dram_write_bytes;
    out[i].read_bytes[pmem_tier_] += o.pmem_read_bytes;
    out[i].write_bytes[pmem_tier_] += o.pmem_write_bytes;
    out[i].latency_share[dram_tier_] = o.hit_ratio;
    out[i].latency_share[pmem_tier_] = 1.0 - o.hit_ratio;
    out[i].fixed_latency_ns = (1.0 - o.hit_ratio) * model_.miss_overhead_ns();

    const double requests = misses[i].load_misses + misses[i].store_misses;
    hits_weighted_ += o.hit_ratio * requests;
    requests_weighted_ += requests;
  }
}

double MemoryModeExec::dram_cache_hit_ratio() const {
  return requests_weighted_ > 0.0 ? hits_weighted_ / requests_weighted_ : 0.0;
}

// ---------------------------------------------------------------- FixedTier

FixedTierMode::FixedTierMode(const memsim::MemorySystem* system, std::size_t tier)
    : ExecutionMode(system), tier_(tier) {}

std::string FixedTierMode::name() const {
  return "all-" + system_->tier(tier_).name();
}

Expected<std::uint64_t> FixedTierMode::on_alloc(std::size_t object, const ObjectSpec& spec,
                                                const SiteSpec& site, Bytes size) {
  (void)object;
  (void)spec;
  (void)site;
  const std::uint64_t address = next_address_;
  next_address_ += (size + kCacheLine - 1) / kCacheLine * kCacheLine;
  return address;
}

Status FixedTierMode::on_free(std::size_t object, std::uint64_t address) {
  (void)object;
  (void)address;
  return {};
}

void FixedTierMode::resolve(const std::vector<LiveObjectRef>& objects,
                            const std::vector<memsim::KernelObjectMisses>& misses,
                            std::vector<ObjectTraffic>& out) {
  const double line = static_cast<double>(kCacheLine);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    out[i].read_bytes[tier_] += misses[i].read_lines() * line;
    out[i].write_bytes[tier_] += misses[i].store_misses * line;
    out[i].latency_share[tier_] = 1.0;
  }
}

}  // namespace ecohmem::runtime
