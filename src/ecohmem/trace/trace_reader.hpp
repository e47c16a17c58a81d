#pragma once

/// \file trace_reader.hpp
/// Zero-copy and streaming access to on-disk traces.
///
/// `TraceReader` mmaps a trace file (falling back to a private in-memory
/// copy for unseekable inputs) and exposes the v3 block index: each
/// block is independently decodable, so blocks can be decoded on demand
/// or out of order; `read_all()` decodes them in file order into one
/// event vector. v1/v2 traces are presented as a single virtual block,
/// so every caller works on every version.
///
/// `TraceStreamer` is the bounded-memory path for consumers that never
/// need the whole trace at once (ecohmem-timeline): it keeps only the
/// header tables, the block index, and one 256 KiB read buffer resident
/// regardless of trace size, re-reading the file on each pass.
///
/// Thread safety: after construction, `TraceReader`'s accessors,
/// `decode_block*` and `read_all` are const and safe to call from any
/// number of threads concurrently (the mapping is immutable).

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ecohmem/bom/module_table.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/trace/events.hpp"
#include "ecohmem/trace/salvage.hpp"
#include "ecohmem/trace/trace_file.hpp"

namespace ecohmem::trace {

/// How a trace file is opened.
struct TraceOpenOptions {
  /// Fail-soft mode: instead of rejecting a corrupt/truncated trace at
  /// the first structural error, recover every independently decodable
  /// block and account for the rest in `manifest()` (salvage.hpp). The
  /// header tables must still decode — without them nothing is
  /// recoverable. Off by default: strict reads stay strict.
  bool salvage = false;
};

class TraceReader {
 public:
  /// Opens and validates a trace file: header decoded eagerly, v3 footer
  /// index decoded and strictly validated (chained offsets, counts
  /// summing to the header total, non-decreasing timestamps). The file
  /// is mmapped read-only when possible. With `options.salvage`,
  /// validation relaxes to per-block recovery (see `manifest()`).
  static Expected<TraceReader> open(const std::string& path, TraceOpenOptions options = {});

  /// Reads a trace from a stream that may not be seekable (a pipe): the
  /// bytes are copied into a private buffer, everything else behaves
  /// like `open`. A stream that goes bad mid-read is an error, not EOF.
  static Expected<TraceReader> from_stream(std::istream& in, TraceOpenOptions options = {});

  TraceReader(TraceReader&&) noexcept;
  TraceReader& operator=(TraceReader&&) noexcept;
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;
  ~TraceReader();

  [[nodiscard]] std::uint32_t version() const;
  /// True for the v3 indexed format (random-access blocks).
  [[nodiscard]] bool indexed() const;
  /// True when the file is mmapped (zero-copy); false when it was read
  /// into a private buffer.
  [[nodiscard]] bool mapped() const;
  [[nodiscard]] double sample_rate_hz() const;
  [[nodiscard]] const bom::ModuleTable& modules() const;
  [[nodiscard]] const StackTable& stacks() const;
  [[nodiscard]] const FunctionTable& functions() const;
  [[nodiscard]] std::uint64_t event_count() const;
  [[nodiscard]] std::uint64_t byte_size() const;

  [[nodiscard]] std::size_t block_count() const;
  [[nodiscard]] const TraceBlockInfo& block(std::size_t i) const;

  /// Decodes block `i` into `out`, which must have room for
  /// `block(i).event_count` events. Safe to call concurrently for
  /// distinct (or even the same) blocks. Errors carry file offsets.
  [[nodiscard]] Status decode_block_into(std::size_t i, Event* out) const;

  /// Convenience: resizes `out` and decodes into it.
  [[nodiscard]] Status decode_block(std::size_t i, std::vector<Event>& out) const;

  /// Materializes the whole trace (tables copied), decoding every block
  /// in file order; in salvage mode, every block recovered at open
  /// time. The bundle's `coverage` reflects the salvage manifest.
  [[nodiscard]] Expected<TraceBundle> read_all() const;

  /// Salvage accounting for this open. `manifest().salvaged` is false
  /// for strict opens (the other fields are then meaningless).
  [[nodiscard]] const SalvageManifest& manifest() const;

 private:
  TraceReader();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Bounded-memory sequential reader: only the header tables, the block
/// index, and one fixed-size read chunk stay resident, independent of
/// how many events the trace holds. Each `for_each` call re-reads the
/// file front to back, so multi-pass consumers work on a cold file
/// handle instead of a materialized `Trace`.
class TraceStreamer {
 public:
  static Expected<TraceStreamer> open(const std::string& path, TraceOpenOptions options = {});

  TraceStreamer(TraceStreamer&&) noexcept;
  TraceStreamer& operator=(TraceStreamer&&) noexcept;
  TraceStreamer(const TraceStreamer&) = delete;
  TraceStreamer& operator=(const TraceStreamer&) = delete;
  ~TraceStreamer();

  [[nodiscard]] std::uint32_t version() const;
  [[nodiscard]] double sample_rate_hz() const;
  [[nodiscard]] const bom::ModuleTable& modules() const;
  [[nodiscard]] const StackTable& stacks() const;
  [[nodiscard]] const FunctionTable& functions() const;
  [[nodiscard]] std::uint64_t event_count() const;

  /// Streams every event, in order, through `fn`. Decodes from a
  /// bounded chunk buffer; never materializes more than one event. In
  /// salvage mode only the blocks recovered at open time are streamed.
  [[nodiscard]] Status for_each(const std::function<void(const Event&)>& fn) const;

  /// Salvage accounting for this open (see TraceReader::manifest).
  [[nodiscard]] const SalvageManifest& manifest() const;

 private:
  TraceStreamer();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ecohmem::trace
