#include "ecohmem/trace/trace_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <utility>

#include "ecohmem/trace/codec.hpp"

namespace ecohmem::trace {

namespace {

/// Reads a whole stream into memory. A stream that goes bad mid-read
/// (I/O error, exception from the stream buffer) is reported as an
/// error — `gcount() == 0` alone cannot distinguish EOF from failure,
/// so the loop's exit condition must be double-checked with `bad()`.
Expected<std::string> slurp_stream(std::istream& in) {
  std::string bytes;
  char chunk[256 * 1024];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    return unexpected("stream read error after " + std::to_string(bytes.size()) + " bytes");
  }
  return bytes;
}

/// Reads the whole file behind an already-open descriptor. Used by the
/// mmap fallback so the fallback sees the very same file `fstat` saw
/// (re-opening by path would race a concurrent rename/replace).
Expected<std::string> slurp_fd(int fd, std::size_t size_hint) {
  std::string bytes;
  bytes.reserve(size_hint);
  if (::lseek(fd, 0, SEEK_SET) < 0) return unexpected("cannot seek trace fd");
  char chunk[256 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return unexpected("read error after " + std::to_string(bytes.size()) + " bytes");
    }
    bytes.append(chunk, static_cast<std::size_t>(n));
  }
  return bytes;
}

/// Salvage probe over in-memory bytes (mmap or private copy). The probe
/// span is bounded by the file end, not the block end, so an event that
/// overruns its block is detected the same way the stream source
/// detects it (by offset, not by a short read).
class ByteSalvageSource final : public SalvageSource {
 public:
  ByteSalvageSource(const unsigned char* data, std::size_t size, std::uint32_t stack_count)
      : data_(data), size_(size), stack_count_(stack_count) {}

  Probe probe(std::uint64_t begin, std::uint64_t end, std::uint64_t max_events,
              bool plain) override {
    if (begin > size_) begin = size_;
    codec::ByteReader src(data_ + begin, size_ - static_cast<std::size_t>(begin), begin);
    return probe_events(src, end, max_events, plain, stack_count_);
  }

  Probe probe_compressed(std::uint64_t begin, std::uint64_t end,
                         std::uint64_t max_events) override {
    if (begin > size_) begin = size_;
    codec::ByteReader src(data_ + begin, size_ - static_cast<std::size_t>(begin), begin);
    return probe_compressed_events(src, end, max_events, stack_count_);
  }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::uint32_t stack_count_;
};

/// Salvage probe over a seekable stream (TraceStreamer). Must classify
/// identical bytes identically to ByteSalvageSource — the corruption
/// sweep cross-checks the two manifests.
class StreamSalvageSource final : public SalvageSource {
 public:
  StreamSalvageSource(std::istream& in, std::uint32_t stack_count)
      : in_(&in), stack_count_(stack_count) {}

  Probe probe(std::uint64_t begin, std::uint64_t end, std::uint64_t max_events,
              bool plain) override {
    in_->clear();
    in_->seekg(static_cast<std::streamoff>(begin));
    if (!in_->good()) {
      Probe p;
      p.ok = false;
      p.end_offset = begin;
      p.error_offset = begin;
      p.error = "cannot seek to offset " + std::to_string(begin);
      return p;
    }
    codec::ChunkedStreamReader src(*in_, begin);
    return probe_events(src, end, max_events, plain, stack_count_);
  }

  Probe probe_compressed(std::uint64_t begin, std::uint64_t end,
                         std::uint64_t max_events) override {
    in_->clear();
    in_->seekg(static_cast<std::streamoff>(begin));
    if (!in_->good()) {
      Probe p;
      p.ok = false;
      p.end_offset = begin;
      p.error_offset = begin;
      p.error = "cannot seek to offset " + std::to_string(begin);
      return p;
    }
    codec::ChunkedStreamReader src(*in_, begin);
    return probe_compressed_events(src, end, max_events, stack_count_);
  }

 private:
  std::istream* in_;
  std::uint32_t stack_count_;
};

}  // namespace

// --------------------------------------------------------------------------
// TraceReader

struct TraceReader::Impl {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  bool is_mmap = false;
  std::string owned;  ///< backing storage when not mmapped
  codec::HeaderInfo header;
  std::vector<TraceBlockInfo> blocks;
  std::uint64_t events_end = 0;  ///< one past the last event byte
  SalvageManifest manifest;      ///< meaningful only when manifest.salvaged

  ~Impl() {
    if (is_mmap && data != nullptr) {
      ::munmap(const_cast<unsigned char*>(static_cast<const unsigned char*>(data)), size);
    }
  }

  /// Decodes + validates the header and (for v3) the footer index;
  /// builds the block table. Called once from open/from_stream. In
  /// salvage mode the block table holds only the recoverable blocks and
  /// the header count is rewritten to the recovered total, so every
  /// downstream accessor works unchanged on a damaged file.
  Status init(bool salvage) {
    codec::ByteReader r(data, size, 0);
    auto header_or = codec::decode_header(r);
    if (!header_or.has_value()) return unexpected(header_or.error());
    header = std::move(*header_or);

    if (salvage) {
      ByteSalvageSource source(data, size, static_cast<std::uint32_t>(header.stacks.size()));
      const Expected<codec::IndexInfo> index =
          header.version == codec::kVersionIndexed
              ? codec::decode_index(data, size)
              : Expected<codec::IndexInfo>(unexpected("not a v3 trace"));
      SalvagePlan plan = build_salvage_plan(source, header, size, index);
      manifest = std::move(plan.manifest);
      blocks = std::move(plan.blocks);
      events_end = header.events_offset + manifest.kept_bytes;
      header.event_count = manifest.events_recovered;
      return {};
    }

    // Every encoded event is at least 2 bytes, so a count the file could
    // not physically hold is rejected before anything is allocated.
    if (header.event_count > size / 2 + 1) {
      return unexpected("trace declares " + std::to_string(header.event_count) +
                        " events but the file only holds " + std::to_string(size) + " bytes");
    }

    if (header.version == codec::kVersionIndexed) {
      auto index = codec::decode_index(data, size);
      if (!index.has_value()) return unexpected(index.error());
      if (Status s = codec::validate_index(*index, header.events_offset, header.event_count);
          !s.ok()) {
        return s;
      }
      events_end = index->footer_offset;
      blocks.reserve(index->entries.size());
      std::uint64_t first_index = 0;
      for (std::size_t i = 0; i < index->entries.size(); ++i) {
        const codec::IndexEntry& e = index->entries[i];
        const std::uint64_t end =
            i + 1 < index->entries.size() ? index->entries[i + 1].offset : index->footer_offset;
        TraceBlockInfo b;
        b.file_offset = e.offset;
        b.byte_size = end - e.offset;
        b.event_count = e.count & codec::kBlockCountMask;
        b.compressed = (e.count & codec::kBlockCompressedFlag) != 0;
        b.first_event_index = first_index;
        b.first_time = e.first_time;
        // Every event costs at least one body byte in either encoding
        // (tag byte / tag-column byte), so a count the span cannot hold
        // is index damage — reject before decode_block allocates for it.
        if (b.event_count > b.byte_size) {
          return unexpected("v3 index block " + std::to_string(i) + " declares " +
                            std::to_string(b.event_count) + " events in " +
                            std::to_string(b.byte_size) + " bytes at offset " +
                            std::to_string(e.offset));
        }
        blocks.push_back(b);
        first_index += b.event_count;
      }
      return {};
    }

    // v1/v2: one virtual block spanning the whole event section (the
    // events are one continuous stream, decodable only front to back).
    events_end = size;
    if (header.event_count > 0) {
      TraceBlockInfo b;
      b.file_offset = header.events_offset;
      b.byte_size = size - std::min<std::uint64_t>(header.events_offset, size);
      b.event_count = header.event_count;
      b.first_event_index = 0;
      blocks.push_back(b);
    }
    return {};
  }
};

TraceReader::TraceReader() : impl_(std::make_unique<Impl>()) {}
TraceReader::TraceReader(TraceReader&&) noexcept = default;
TraceReader& TraceReader::operator=(TraceReader&&) noexcept = default;
TraceReader::~TraceReader() = default;

Expected<TraceReader> TraceReader::open(const std::string& path, TraceOpenOptions options) {
  TraceReader reader;
  Impl& impl = *reader.impl_;

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return unexpected("cannot open trace: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return unexpected("cannot stat trace: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  bool mapped = false;
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      // Re-stat after mapping: a writer truncating the file between
      // fstat and mmap (or still truncating it now) would leave pages
      // past the new EOF that SIGBUS on first touch. A shrunk file is
      // an error up front, not a crash at decode time.
      struct stat st2 {};
      if (::fstat(fd, &st2) != 0 || static_cast<std::size_t>(st2.st_size) < size) {
        ::munmap(map, size);
        ::close(fd);
        return unexpected("trace shrank while opening (concurrent truncation): " + path);
      }
      impl.data = static_cast<const unsigned char*>(map);
      impl.size = size;
      impl.is_mmap = true;
      mapped = true;
    }
  }
  if (!mapped) {
    // mmap unavailable (or empty file): fall back to a private copy,
    // read through the descriptor we already validated — re-opening by
    // path could hand us a different file.
    auto bytes = slurp_fd(fd, size);
    if (!bytes.has_value()) {
      ::close(fd);
      return unexpected("cannot read trace " + path + ": " + bytes.error());
    }
    impl.owned = std::move(*bytes);
    impl.data = reinterpret_cast<const unsigned char*>(impl.owned.data());
    impl.size = impl.owned.size();
  }
  ::close(fd);

  if (Status s = impl.init(options.salvage); !s.ok()) return unexpected(s.error());
  return reader;
}

Expected<TraceReader> TraceReader::from_stream(std::istream& in, TraceOpenOptions options) {
  TraceReader reader;
  Impl& impl = *reader.impl_;
  auto bytes = slurp_stream(in);
  if (!bytes.has_value()) return unexpected("cannot read trace stream: " + bytes.error());
  impl.owned = std::move(*bytes);
  impl.data = reinterpret_cast<const unsigned char*>(impl.owned.data());
  impl.size = impl.owned.size();
  if (Status s = impl.init(options.salvage); !s.ok()) return unexpected(s.error());
  return reader;
}

std::uint32_t TraceReader::version() const { return impl_->header.version; }
bool TraceReader::indexed() const { return impl_->header.version == codec::kVersionIndexed; }
bool TraceReader::mapped() const { return impl_->is_mmap; }
double TraceReader::sample_rate_hz() const { return impl_->header.sample_rate_hz; }
const bom::ModuleTable& TraceReader::modules() const { return impl_->header.modules; }
const StackTable& TraceReader::stacks() const { return impl_->header.stacks; }
const FunctionTable& TraceReader::functions() const { return impl_->header.functions; }
std::uint64_t TraceReader::event_count() const { return impl_->header.event_count; }
std::uint64_t TraceReader::byte_size() const { return impl_->size; }
std::size_t TraceReader::block_count() const { return impl_->blocks.size(); }
const TraceBlockInfo& TraceReader::block(std::size_t i) const { return impl_->blocks.at(i); }
const SalvageManifest& TraceReader::manifest() const { return impl_->manifest; }

Status TraceReader::decode_block_into(std::size_t i, Event* out) const {
  const Impl& impl = *impl_;
  const TraceBlockInfo& b = impl.blocks.at(i);
  codec::ByteReader br(impl.data + b.file_offset, static_cast<std::size_t>(b.byte_size),
                       b.file_offset);
  const auto stack_count = static_cast<std::uint32_t>(impl.header.stacks.size());

  if (impl.header.version == codec::kVersionPlain) {
    for (std::uint64_t j = 0; j < b.event_count; ++j) {
      if (Status s = codec::decode_event_plain(br, stack_count, out[j]); !s.ok()) return s;
    }
    return {};
  }

  if (b.compressed) {
    std::uint64_t body_events = 0;
    if (Status s =
            codec::decode_compressed_block_into(br, stack_count, b.event_count, body_events, out);
        !s.ok()) {
      return s;
    }
    if (body_events != b.event_count) {
      return unexpected("v3 index block " + std::to_string(i) + " declares " +
                        std::to_string(b.event_count) + " events but its compressed body holds " +
                        std::to_string(body_events) + " at offset " +
                        std::to_string(b.file_offset));
    }
  } else {
    Ns last_time = 0;
    if (Status s = codec::decode_compact_events(br, stack_count, last_time, out, b.event_count);
        !s.ok()) {
      return s;
    }
  }
  if (impl.header.version == codec::kVersionIndexed && b.event_count > 0 &&
      event_time(out[0]) != b.first_time) {
    return unexpected("v3 index block " + std::to_string(i) +
                      " first timestamp disagrees with its events at offset " +
                      std::to_string(b.file_offset));
  }
  // v3 blocks are exactly sized; v1/v2's virtual block may carry
  // trailing bytes (historically tolerated).
  if (impl.header.version == codec::kVersionIndexed && br.remaining() != 0) {
    return unexpected("v3 index block " + std::to_string(i) + " has " +
                      std::to_string(br.remaining()) + " undecoded bytes at offset " +
                      std::to_string(br.offset()));
  }
  return {};
}

Status TraceReader::decode_block(std::size_t i, std::vector<Event>& out) const {
  out.resize(static_cast<std::size_t>(impl_->blocks.at(i).event_count));
  return decode_block_into(i, out.data());
}

Expected<TraceBundle> TraceReader::read_all() const {
  const Impl& impl = *impl_;
  TraceBundle bundle;
  bundle.trace.stacks = impl.header.stacks;
  bundle.trace.functions = impl.header.functions;
  bundle.trace.sample_rate_hz = impl.header.sample_rate_hz;
  bundle.modules = impl.header.modules;
  bundle.coverage.events_seen = impl.header.event_count;
  bundle.coverage.events_declared =
      impl.manifest.salvaged ? impl.manifest.events_declared : impl.header.event_count;
  bundle.coverage.salvaged = impl.manifest.salvaged;
  bundle.trace.events.resize(static_cast<std::size_t>(impl.header.event_count));
  for (std::size_t b = 0; b < impl.blocks.size(); ++b) {
    if (Status s =
            decode_block_into(b, bundle.trace.events.data() + impl.blocks[b].first_event_index);
        !s.ok()) {
      return unexpected(s.error());
    }
  }
  return bundle;
}

// --------------------------------------------------------------------------
// TraceStreamer

struct TraceStreamer::Impl {
  std::string path;
  codec::HeaderInfo header;
  std::vector<codec::IndexEntry> entries;  ///< v3 block index (empty for v1/v2)
  std::uint64_t footer_offset = 0;         ///< one past the last event byte (v3 strict)
  std::vector<TraceBlockInfo> blocks;      ///< recovered blocks (salvage mode only)
  SalvageManifest manifest;                ///< meaningful only when manifest.salvaged
};

TraceStreamer::TraceStreamer() : impl_(std::make_unique<Impl>()) {}
TraceStreamer::TraceStreamer(TraceStreamer&&) noexcept = default;
TraceStreamer& TraceStreamer::operator=(TraceStreamer&&) noexcept = default;
TraceStreamer::~TraceStreamer() = default;

Expected<TraceStreamer> TraceStreamer::open(const std::string& path, TraceOpenOptions options) {
  TraceStreamer streamer;
  Impl& impl = *streamer.impl_;
  impl.path = path;

  std::ifstream in(path, std::ios::binary);
  if (!in) return unexpected("cannot open trace: " + path);
  codec::ChunkedStreamReader src(in);
  auto header_or = codec::decode_header(src);
  if (!header_or.has_value()) return unexpected(header_or.error());
  impl.header = std::move(*header_or);

  if (options.salvage) {
    // Fail-soft open: classify the file with the shared salvage planner
    // through a seekable probe stream, mirroring TraceReader exactly.
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return unexpected("cannot open trace: " + path);
    probe.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(probe.tellg());
    if (!probe.good()) return unexpected("cannot read trace size of " + path);
    const Expected<codec::IndexInfo> index =
        impl.header.version == codec::kVersionIndexed
            ? read_index_lenient(probe, file_size)
            : Expected<codec::IndexInfo>(unexpected("not a v3 trace"));
    StreamSalvageSource source(probe, static_cast<std::uint32_t>(impl.header.stacks.size()));
    SalvagePlan plan = build_salvage_plan(source, impl.header, file_size, index);
    impl.manifest = std::move(plan.manifest);
    impl.blocks = std::move(plan.blocks);
    impl.header.event_count = impl.manifest.events_recovered;
    return streamer;
  }

  if (impl.header.version == codec::kVersionIndexed) {
    // The index lives at the end of the file; read it through a seek
    // rather than scanning the event section.
    std::ifstream idx(path, std::ios::binary);
    idx.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(idx.tellg());
    if (!idx.good()) return unexpected("cannot read v3 index of " + path);
    if (impl.header.event_count > file_size / 2 + 1) {
      return unexpected("trace declares " + std::to_string(impl.header.event_count) +
                        " events but the file only holds " + std::to_string(file_size) +
                        " bytes");
    }
    if (file_size < codec::kTrailerBytes) {
      return unexpected("v3 trace too small for index trailer at offset " +
                        std::to_string(file_size));
    }
    std::string trailer(codec::kTrailerBytes, '\0');
    idx.seekg(static_cast<std::streamoff>(file_size - codec::kTrailerBytes));
    idx.read(trailer.data(), static_cast<std::streamsize>(trailer.size()));
    if (!idx.good()) {
      return codec::truncated_at("truncated v3 index trailer", file_size - codec::kTrailerBytes);
    }
    std::uint64_t entry_count = 0;
    std::uint64_t footer_offset = 0;
    std::memcpy(&entry_count, trailer.data(), 8);
    std::memcpy(&footer_offset, trailer.data() + 8, 8);
    if (std::memcmp(trailer.data() + 16, codec::kIndexMagic, sizeof(codec::kIndexMagic)) != 0) {
      return codec::truncated_at("missing v3 index trailer magic", file_size - 8);
    }
    const std::uint64_t trailer_offset = file_size - codec::kTrailerBytes;
    if (footer_offset > trailer_offset ||
        entry_count * codec::kIndexEntryBytes != trailer_offset - footer_offset) {
      return unexpected("v3 index claims " + std::to_string(entry_count) +
                        " entries but spans " + std::to_string(trailer_offset - footer_offset) +
                        " bytes at offset " + std::to_string(footer_offset));
    }
    std::string raw(static_cast<std::size_t>(trailer_offset - footer_offset), '\0');
    idx.seekg(static_cast<std::streamoff>(footer_offset));
    idx.read(raw.data(), static_cast<std::streamsize>(raw.size()));
    if (!idx.good() && !raw.empty()) {
      return codec::truncated_at("truncated v3 index", footer_offset);
    }
    codec::IndexInfo info;
    info.file_size = file_size;
    info.footer_offset = footer_offset;
    codec::ByteReader r(reinterpret_cast<const unsigned char*>(raw.data()), raw.size(),
                        footer_offset);
    for (std::uint64_t i = 0; i < entry_count; ++i) {
      codec::IndexEntry e;
      if (!r.get(e.offset) || !r.get(e.count) || !r.get(e.first_time)) {
        return codec::truncated_at("truncated v3 index entry", r.offset());
      }
      info.entries.push_back(e);
    }
    if (Status s =
            codec::validate_index(info, impl.header.events_offset, impl.header.event_count);
        !s.ok()) {
      return unexpected(s.error());
    }
    impl.entries = std::move(info.entries);
    impl.footer_offset = footer_offset;
  }
  return streamer;
}

std::uint32_t TraceStreamer::version() const { return impl_->header.version; }
double TraceStreamer::sample_rate_hz() const { return impl_->header.sample_rate_hz; }
const bom::ModuleTable& TraceStreamer::modules() const { return impl_->header.modules; }
const StackTable& TraceStreamer::stacks() const { return impl_->header.stacks; }
const FunctionTable& TraceStreamer::functions() const { return impl_->header.functions; }
std::uint64_t TraceStreamer::event_count() const { return impl_->header.event_count; }
const SalvageManifest& TraceStreamer::manifest() const { return impl_->manifest; }

Status TraceStreamer::for_each(const std::function<void(const Event&)>& fn) const {
  const Impl& impl = *impl_;
  std::ifstream in(impl.path, std::ios::binary);
  if (!in) return unexpected("cannot open trace: " + impl.path);

  if (impl.manifest.salvaged) {
    // Stream only the blocks recovered at open time, seeking over the
    // dropped regions. Each v2/v3 block decodes from a fresh delta base.
    const auto stacks = static_cast<std::uint32_t>(impl.header.stacks.size());
    const bool plain = impl.header.version == codec::kVersionPlain;
    Event ev;
    for (const TraceBlockInfo& b : impl.blocks) {
      in.clear();
      in.seekg(static_cast<std::streamoff>(b.file_offset));
      if (!in.good()) {
        return codec::truncated_at("cannot seek to salvaged block", b.file_offset);
      }
      codec::ChunkedStreamReader src(in, b.file_offset);
      if (b.compressed) {
        std::uint64_t body = 0;
        if (Status s = codec::decode_compressed_block(src, stacks, b.event_count, body,
                                                      [&fn](const Event& e) { fn(e); });
            !s.ok()) {
          return s;  // file changed since open
        }
        continue;
      }
      Ns last_time = 0;
      for (std::uint64_t j = 0; j < b.event_count; ++j) {
        const Status s = plain ? codec::decode_event_plain(src, stacks, ev)
                               : codec::decode_event_compact(src, stacks, last_time, ev);
        if (!s.ok()) return s;  // file changed since open
        fn(ev);
      }
    }
    return {};
  }

  in.seekg(static_cast<std::streamoff>(impl.header.events_offset));
  if (!in.good()) {
    return codec::truncated_at("truncated event stream", impl.header.events_offset);
  }
  const auto stack_count = static_cast<std::uint32_t>(impl.header.stacks.size());
  Event ev;

  if (impl.header.version == codec::kVersionIndexed) {
    // Blocks are read whole (their byte spans are exact by
    // validate_index) and decoded from memory so the batch fast path and
    // the compressed column codec both apply. Peak memory stays
    // proportional to the largest block, not the trace.
    std::vector<unsigned char> buf;
    std::vector<Event> scratch;
    for (std::size_t b = 0; b < impl.entries.size(); ++b) {
      const codec::IndexEntry& entry = impl.entries[b];
      const std::uint64_t count = entry.count & codec::kBlockCountMask;
      const std::uint64_t block_end =
          b + 1 < impl.entries.size() ? impl.entries[b + 1].offset : impl.footer_offset;
      buf.resize(static_cast<std::size_t>(block_end - entry.offset));
      in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(buf.size()));
      if (!in.good()) {
        return codec::truncated_at("truncated event stream", entry.offset);
      }
      codec::ByteReader br(buf.data(), buf.size(), entry.offset);
      if ((entry.count & codec::kBlockCompressedFlag) != 0) {
        bool first = true;
        std::uint64_t body = 0;
        Status first_time_error;
        Status s = codec::decode_compressed_block(
            br, stack_count, count, body, [&](const Event& e) {
              if (first) {
                first = false;
                if (event_time(e) != entry.first_time) {
                  first_time_error = unexpected(
                      "v3 index block " + std::to_string(b) +
                      " first timestamp disagrees with its events at offset " +
                      std::to_string(entry.offset));
                }
              }
              if (first_time_error.ok()) fn(e);
            });
        if (!first_time_error.ok()) return first_time_error;
        if (!s.ok()) return s;
        if (body != count) {
          return unexpected("v3 index block " + std::to_string(b) + " declares " +
                            std::to_string(count) + " events but its compressed body holds " +
                            std::to_string(body) + " at offset " + std::to_string(entry.offset));
        }
      } else {
        Ns last_time = 0;
        std::uint64_t done = 0;
        while (done < count) {
          const std::uint64_t chunk = std::min<std::uint64_t>(count - done, 16 * 1024);
          scratch.resize(static_cast<std::size_t>(chunk));
          if (Status s =
                  codec::decode_compact_events(br, stack_count, last_time, scratch.data(), chunk);
              !s.ok()) {
            return s;
          }
          if (done == 0 && event_time(scratch[0]) != entry.first_time) {
            return unexpected("v3 index block " + std::to_string(b) +
                              " first timestamp disagrees with its events at offset " +
                              std::to_string(entry.offset));
          }
          for (std::uint64_t j = 0; j < chunk; ++j) fn(scratch[static_cast<std::size_t>(j)]);
          done += chunk;
        }
      }
      if (br.remaining() != 0) {
        return unexpected("v3 index block " + std::to_string(b) + " has " +
                          std::to_string(br.remaining()) + " undecoded bytes at offset " +
                          std::to_string(br.offset()));
      }
    }
    return {};
  }

  codec::ChunkedStreamReader src(in, impl.header.events_offset);

  if (impl.header.version == codec::kVersionCompact) {
    Ns last_time = 0;
    for (std::uint64_t i = 0; i < impl.header.event_count; ++i) {
      if (Status s = codec::decode_event_compact(src, stack_count, last_time, ev); !s.ok()) {
        return s;
      }
      fn(ev);
    }
    return {};
  }

  for (std::uint64_t i = 0; i < impl.header.event_count; ++i) {
    if (Status s = codec::decode_event_plain(src, stack_count, ev); !s.ok()) return s;
    fn(ev);
  }
  return {};
}

}  // namespace ecohmem::trace
