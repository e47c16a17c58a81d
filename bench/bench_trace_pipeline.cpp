// Trace pipeline benchmark: write / read / aggregate throughput of the
// v2 compact stream format, the v3 indexed block format, and v3 with
// compressed (bit-packed columnar) blocks, on a >= 10M-event synthetic
// trace. Records BENCH_trace_pipeline.json.
//
// Aggregation runs the one analyzer fold two ways: one-shot analyze()
// over the decoded trace, and ingest in 4096-event slices followed by
// finalize (the serving layer's path). The one-shot fold times its
// ingest and its finalize apart. A second, long-span synthetic trace
// (the same generator with its time step stretched so that the trace
// covers >= 3000 bandwidth bins) makes finalize's per-window bandwidth
// averages visible; its ingest/finalize split is informational, with
// no bound. Identity contract: one-shot and sliced folds must give
// bit-identical analyses, on both traces ("identical": true; compared
// by the golden-test digest), and the compressed
// trace must decode to events bit-identical to the uncompressed one;
// any violation exits nonzero in every mode.
//
// Bounds, enforced at full size and recorded but not gated in smoke
// mode (a sub-second trace measures call overhead, not throughput):
//  - per-block decode: the v3 mmap block decode must be >= 2x the v2
//    bounded-buffer istream decode;
//  - aggregation: one-shot analyze() must fold >= kAggregateFloor
//    events/s on the synthetic trace;
//  - compressed read: <= 1.15x the uncompressed read wall time.
//
// Usage: bench_trace_pipeline [--events N] [--repeats R] [--out FILE] [--smoke]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "../tests/analyzer/analysis_digest.hpp"
#include "bench_common.hpp"
#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/analyzer/incremental.hpp"
#include "ecohmem/common/faultinject.hpp"
#include "ecohmem/trace/codec.hpp"
#include "ecohmem/trace/trace_file.hpp"
#include "ecohmem/trace/trace_reader.hpp"

using namespace ecohmem;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double mbs(std::uint64_t bytes, double ms) {
  return ms > 0.0 ? static_cast<double>(bytes) / 1e6 / (ms / 1e3) : 0.0;
}

/// Deterministic synthetic event stream (allocs/frees/samples/uncore),
/// delivered through a callback so the 10M-event write never materializes
/// an event vector.
/// `time_scale` stretches every time step, and so the trace's span.
template <typename Sink>
void synth_events(std::size_t n, std::uint64_t seed, trace::StackId s0, trace::StackId s1,
                  std::uint32_t fn, Ns time_scale, Sink&& sink) {
  std::uint64_t x = seed * 2654435761ull + 1;
  const auto rnd = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  Ns time = 0;
  std::uint64_t next_id = 1;
  std::uint64_t next_addr = 0x100000;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
  for (std::size_t i = 0; i < n; ++i) {
    time += (rnd() % 50) * time_scale;
    switch (rnd() % 8) {
      case 0:
      case 1: {
        const Bytes size = 64 + rnd() % 8192;
        sink(trace::Event{trace::AllocEvent{time, next_id, next_addr, size,
                                            (i % 2) != 0 ? s0 : s1, trace::AllocKind::kMalloc}});
        live.emplace_back(next_id, next_addr);
        next_addr += size + 64;
        ++next_id;
        break;
      }
      case 2:
        if (live.empty()) {
          sink(trace::Event{trace::MarkerEvent{time, fn, true}});
        } else {
          // Swap-and-pop keeps the generator O(1) per event (the live set
          // still grows to ~12% of n, which exercises the live-set lookup).
          const std::size_t k = rnd() % live.size();
          sink(trace::Event{trace::FreeEvent{time, live[k].first}});
          live[k] = live.back();
          live.pop_back();
        }
        break;
      case 3:
        sink(trace::Event{trace::UncoreBwEvent{time, 1000 + rnd() % 1000,
                                               static_cast<double>(rnd() % 100) * 0.25,
                                               static_cast<double>(rnd() % 50) * 0.25}});
        break;
      default:
        sink(trace::Event{
            trace::SampleEvent{time,
                               live.empty() ? 0x10 : live[rnd() % live.size()].second + rnd() % 64,
                               1.0 + static_cast<double>(rnd() % 8) * 0.5,
                               static_cast<double>(rnd() % 400), rnd() % 4 == 0, fn}});
    }
  }
}

/// Ingest slice of the sliced aggregation (the serving layer's v3
/// block size).
constexpr std::size_t kSliceEvents = 4096;

/// Aggregation floor on the 10M-event synthetic trace, events/s of
/// one-shot analyze(). On the 4-core, RelWithDebInfo, gcc 12 host that
/// recorded BENCH_trace_pipeline.json, the serial offline analyzer this
/// fold replaced ran at 1.01-1.55M events/s and the fold at 1.19-2.42M
/// (the spread is load from other tenants of the shared host); the floor
/// sits below both, so only a fall well under the old speed trips it.
constexpr double kAggregateFloor = 800e3;

/// Bandwidth bins the long-span trace must cover (the analyzer's
/// default 10 ms bins), so that object lifetimes span thousands of them.
constexpr std::size_t kLongSpanBins = 3000;

analyzer::AnalysisResult analyze_or_die(const trace::Trace& t) {
  auto result = analyzer::analyze(t);
  if (!result) std::exit((std::fprintf(stderr, "error: %s\n", result.error().c_str()), 1));
  return std::move(*result);
}

analyzer::AnalysisResult ingest_sliced_or_die(const trace::Trace& t) {
  analyzer::IncrementalAggregator inc(t.stacks, t.functions);
  for (std::size_t begin = 0; begin < t.events.size(); begin += kSliceEvents) {
    const std::size_t count = std::min(kSliceEvents, t.events.size() - begin);
    if (const auto s = inc.ingest(t.events.data() + begin, count); !s.ok()) {
      std::exit((std::fprintf(stderr, "error: %s\n", s.error().c_str()), 1));
    }
  }
  auto result = inc.finalize();
  if (!result) std::exit((std::fprintf(stderr, "error: %s\n", result.error().c_str()), 1));
  return std::move(*result);
}

/// Best-of ingest and finalize times of a one-shot fold.
struct FoldSplit {
  double ingest_ms = 0.0;
  double finalize_ms = 0.0;

  void keep_best(const FoldSplit& run, bool first) {
    if (first || run.ingest_ms < ingest_ms) ingest_ms = run.ingest_ms;
    if (first || run.finalize_ms < finalize_ms) finalize_ms = run.finalize_ms;
  }
};

/// One-shot fold of `t` — one ingest of every event, then finalize,
/// which is what analyze() does — with the two steps timed apart.
analyzer::AnalysisResult fold_timed(const trace::Trace& t, FoldSplit& split) {
  auto start = Clock::now();
  analyzer::IncrementalAggregator inc(t.stacks, t.functions);
  if (const auto s = inc.ingest(t.events); !s.ok()) {
    std::exit((std::fprintf(stderr, "error: %s\n", s.error().c_str()), 1));
  }
  split.ingest_ms = ms_since(start);
  start = Clock::now();
  auto result = inc.finalize();
  split.finalize_ms = ms_since(start);
  if (!result) std::exit((std::fprintf(stderr, "error: %s\n", result.error().c_str()), 1));
  return std::move(*result);
}

template <typename Fn>
double best_of(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    fn();
    const double ms = ms_since(start);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct SyntheticStats {
  std::uint64_t events = 0;
  std::uint64_t v2_bytes = 0;
  std::uint64_t v3_bytes = 0;
  std::uint64_t v3c_bytes = 0;
  double v2_write_ms = 0, v3_write_ms = 0, v3c_write_ms = 0;
  double v2_read_ms = 0, v3_read_serial_ms = 0;
  double v3c_read_ms = 0;
  double salvage_read_ms = 0;
  std::uint64_t salvage_recovered = 0, salvage_declared = 0;
  double v2_stream_decode_ms = 0, v3_block_decode_ms = 0, v3c_block_decode_ms = 0;
  double aggregate_ms = 0, aggregate_sliced_ms = 0;
  FoldSplit fold;
  bool aggregate_identical = false;
  bool read_identical = false;
  bool compressed_identical = false;
};

struct LongSpanStats {
  std::uint64_t events = 0;
  std::uint64_t bins = 0;
  std::uint64_t allocations = 0;  ///< summed alloc_count: one [alloc, free) window each
  FoldSplit fold;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_events = 10'000'000;
  int repeats = 3;
  std::string out_path = "BENCH_trace_pipeline.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke = true;
    } else if (i + 1 < argc) {
      const char* value = argv[++i];
      if (flag == "--events") n_events = static_cast<std::size_t>(std::atoll(value));
      if (flag == "--repeats") repeats = std::atoi(value);
      if (flag == "--out") out_path = value;
    }
  }
  if (smoke) {
    n_events = std::min<std::size_t>(n_events, 200'000);
    repeats = 1;
  }
  if (repeats < 1 || n_events == 0) {
    std::fprintf(stderr, "error: --repeats and --events must be >= 1\n");
    return 1;
  }

  bench::print_header("Trace pipeline: v2 stream vs v3 indexed blocks, one-shot vs sliced fold",
                      "indexed trace format + the analyzer fold (docs/trace_format.md)");
  std::printf("host cores: %u, repeats: %d (best-of), synthetic events: %zu%s\n\n",
              std::thread::hardware_concurrency(), repeats, n_events, smoke ? " [smoke]" : "");

  const std::string v2_path = "/tmp/bench_pipeline_v2.trc";
  const std::string v3_path = "/tmp/bench_pipeline_v3.trc";
  const std::string v3c_path = "/tmp/bench_pipeline_v3c.trc";

  // ---------------------------------------------------------- synthetic
  SyntheticStats syn;
  syn.events = n_events;

  trace::Trace header;
  header.sample_rate_hz = 1000.0;
  const trace::StackId s0 = header.stacks.intern(bom::CallStack{{{0, 0x10}}});
  const trace::StackId s1 = header.stacks.intern(bom::CallStack{{{0, 0x20}, {1, 0x8}}});
  const std::uint32_t fn = header.functions.intern("synth");
  bom::ModuleTable modules;
  modules.add_module("synth.x", 1 << 20, 0);
  modules.add_module("libsynth.so", 1 << 20, 0);

  // Both writers serialize the same pre-generated event vector, so the
  // timings compare codec+IO cost, not generator cost.
  trace::Trace full = header;
  full.events.reserve(n_events);
  synth_events(n_events, 5, s0, s1, fn, 1,
               [&full](const trace::Event& e) { full.events.push_back(e); });

  syn.v3_write_ms = best_of(repeats, [&] {
    auto writer =
        trace::TraceBlockWriter::create(v3_path, header.stacks, header.functions, modules, 1000.0);
    if (!writer) {
      std::fprintf(stderr, "error: %s\n", writer.error().c_str());
      std::exit(1);
    }
    Status status;
    for (const trace::Event& e : full.events) {
      status = writer->add(e);
      if (!status.ok()) break;
    }
    if (status.ok()) status = writer->finish();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.error().c_str());
      std::exit(1);
    }
  });
  {
    trace::TraceWriteOptions opt;
    opt.compact = true;
    syn.v2_write_ms = best_of(repeats, [&] {
      if (const auto s = trace::save_trace(v2_path, full, modules, opt); !s) {
        std::fprintf(stderr, "error: %s\n", s.error().c_str());
        std::exit(1);
      }
    });
  }
  syn.v3c_write_ms = best_of(repeats, [&] {
    auto writer = trace::TraceBlockWriter::create(v3c_path, header.stacks, header.functions,
                                                  modules, 1000.0, 64 * 1024, /*compress=*/true);
    if (!writer) {
      std::fprintf(stderr, "error: %s\n", writer.error().c_str());
      std::exit(1);
    }
    Status status;
    for (const trace::Event& e : full.events) {
      status = writer->add(e);
      if (!status.ok()) break;
    }
    if (status.ok()) status = writer->finish();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.error().c_str());
      std::exit(1);
    }
  });
  full = trace::Trace{};  // measured loads below re-read from disk

  const auto file_size = [](const std::string& path) -> std::uint64_t {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return 0;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return size > 0 ? static_cast<std::uint64_t>(size) : 0;
  };
  syn.v2_bytes = file_size(v2_path);
  syn.v3_bytes = file_size(v3_path);
  syn.v3c_bytes = file_size(v3c_path);

  // Read throughput: v2 bulk load, then v3 mmap against compressed v3.
  trace::TraceBundle v2_bundle;
  syn.v2_read_ms = best_of(repeats, [&] {
    auto loaded = trace::load_trace(v2_path);
    if (!loaded) {
      std::fprintf(stderr, "error: %s\n", loaded.error().c_str());
      std::exit(1);
    }
    v2_bundle = std::move(*loaded);
  });

  const auto reader = trace::TraceReader::open(v3_path);
  if (!reader) {
    std::fprintf(stderr, "error: %s\n", reader.error().c_str());
    return 1;
  }
  const std::size_t v2_events = v2_bundle.trace.events.size();
  v2_bundle = {};  // only its event count is compared; drop ~0.5 GB before the v3 reads

  // Compressed v3: same events through bit-packed columnar blocks (what
  // `ecohmem-profile --compress` writes). Reads must flow through the
  // same reader, and the decoded events must be bit-identical to the
  // uncompressed read (verified below by re-encoding both streams). The
  // compressed-read bound compares the two reads, so their repeats are
  // interleaved: timing all of one before all of the other
  // lets allocator and page-cache drift bias whichever runs second.
  const auto c_reader = trace::TraceReader::open(v3c_path);
  if (!c_reader) {
    std::fprintf(stderr, "error: %s\n", c_reader.error().c_str());
    return 1;
  }
  trace::TraceBundle v3_bundle;
  {
    trace::TraceBundle v3c_bundle;
    const auto read = [](const trace::TraceReader& from, trace::TraceBundle& dst) {
      const auto start = Clock::now();
      auto bundle = from.read_all();
      if (!bundle) std::exit((std::fprintf(stderr, "error: %s\n", bundle.error().c_str()), 1));
      dst = std::move(*bundle);
      return ms_since(start);
    };
    for (int r = 0; r < repeats; ++r) {
      const double plain_ms = read(*reader, v3_bundle);
      if (r == 0 || plain_ms < syn.v3_read_serial_ms) syn.v3_read_serial_ms = plain_ms;
      const double compressed_ms = read(*c_reader, v3c_bundle);
      if (r == 0 || compressed_ms < syn.v3c_read_ms) syn.v3c_read_ms = compressed_ms;
    }
    syn.read_identical = v2_events == v3_bundle.trace.events.size();
    syn.compressed_identical =
        v3c_bundle.trace.events.size() == v3_bundle.trace.events.size();
    if (syn.compressed_identical) {
      std::string ec, eu;
      Ns lc = 0, lu = 0;
      for (std::size_t i = 0; i < v3c_bundle.trace.events.size(); ++i) {
        ec.clear();
        eu.clear();
        trace::codec::encode_event_compact(ec, v3c_bundle.trace.events[i], lc);
        trace::codec::encode_event_compact(eu, v3_bundle.trace.events[i], lu);
        if (ec != eu) {
          syn.compressed_identical = false;
          break;
        }
      }
    }
  }

  // Salvage read throughput: a damaged copy of the v3 trace (one block
  // garbled mid-body) recovered fail-soft.
  const std::string salvage_path = "/tmp/bench_pipeline_v3_damaged.trc";
  {
    std::vector<unsigned char> buf(syn.v3_bytes);
    std::FILE* f = std::fopen(v3_path.c_str(), "rb");
    if (f == nullptr || std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
      std::fprintf(stderr, "error: cannot reread %s\n", v3_path.c_str());
      return 1;
    }
    std::fclose(f);
    const auto lm = faultinject::landmarks_v3(buf, reader->block(0).file_offset);
    faultinject::Fault fault;
    fault.kind = faultinject::FaultKind::kGarble;
    fault.offset = lm.block_offsets[lm.block_offsets.size() / 2] + 16;
    fault.length = 32;
    fault.seed = 17;
    const auto damaged = faultinject::apply(buf, fault);
    std::FILE* out_f = std::fopen(salvage_path.c_str(), "wb");
    if (out_f == nullptr ||
        std::fwrite(damaged.data(), 1, damaged.size(), out_f) != damaged.size()) {
      std::fprintf(stderr, "error: cannot write %s\n", salvage_path.c_str());
      return 1;
    }
    std::fclose(out_f);

    trace::TraceOpenOptions topt;
    topt.salvage = true;
    const auto salvage_reader = trace::TraceReader::open(salvage_path, topt);
    if (!salvage_reader) {
      std::fprintf(stderr, "error: %s\n", salvage_reader.error().c_str());
      return 1;
    }
    syn.salvage_recovered = salvage_reader->manifest().events_recovered;
    syn.salvage_declared = salvage_reader->manifest().events_declared;
    syn.salvage_read_ms = best_of(repeats, [&] {
      auto bundle = salvage_reader->read_all();
      if (!bundle) std::exit((std::fprintf(stderr, "error: %s\n", bundle.error().c_str()), 1));
    });
    if (syn.salvage_recovered == 0 || syn.salvage_recovered >= syn.salvage_declared) {
      std::fprintf(stderr, "error: salvage bench expected a partial recovery (%llu/%llu)\n",
                   static_cast<unsigned long long>(syn.salvage_recovered),
                   static_cast<unsigned long long>(syn.salvage_declared));
      return 1;
    }
  }

  // Per-block decode throughput: the pure decode paths with IO amortized
  // away — v3's mmap ByteReader against v2's bounded-buffer istream
  // reader.
  {
    std::vector<trace::Event> scratch;
    std::size_t max_block = 0;
    for (std::size_t b = 0; b < reader->block_count(); ++b) {
      max_block = std::max(max_block, static_cast<std::size_t>(reader->block(b).event_count));
    }
    for (std::size_t b = 0; b < c_reader->block_count(); ++b) {
      max_block = std::max(max_block, static_cast<std::size_t>(c_reader->block(b).event_count));
    }
    scratch.resize(max_block);
    syn.v3_block_decode_ms = best_of(repeats, [&] {
      for (std::size_t b = 0; b < reader->block_count(); ++b) {
        if (const auto s = reader->decode_block_into(b, scratch.data()); !s.ok()) {
          std::fprintf(stderr, "error: %s\n", s.error().c_str());
          std::exit(1);
        }
      }
    });
    syn.v3c_block_decode_ms = best_of(repeats, [&] {
      for (std::size_t b = 0; b < c_reader->block_count(); ++b) {
        if (const auto s = c_reader->decode_block_into(b, scratch.data()); !s.ok()) {
          std::fprintf(stderr, "error: %s\n", s.error().c_str());
          std::exit(1);
        }
      }
    });

    const auto streamer = trace::TraceStreamer::open(v2_path);
    if (!streamer) {
      std::fprintf(stderr, "error: %s\n", streamer.error().c_str());
      return 1;
    }
    syn.v2_stream_decode_ms = best_of(repeats, [&] {
      std::uint64_t seen = 0;
      if (const auto s = streamer->for_each([&seen](const trace::Event&) { ++seen; }); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.error().c_str());
        std::exit(1);
      }
      if (seen != n_events) std::exit((std::fprintf(stderr, "error: event miscount\n"), 1));
    });
  }

  // Aggregate: one-shot analyze() vs 4096-event slices of the same
  // fold over the same decoded trace. The timed repeats are
  // interleaved, after one untimed warm-up pair, so allocator or cache
  // drift cannot bias whichever side runs second.
  analyzer::AnalysisResult one_shot_result = analyze_or_die(v3_bundle.trace);
  analyzer::AnalysisResult sliced_result = ingest_sliced_or_die(v3_bundle.trace);
  const std::uint64_t analyze_digest = analyzer::testing::digest(one_shot_result);
  for (int r = 0; r < repeats; ++r) {
    FoldSplit split;
    one_shot_result = fold_timed(v3_bundle.trace, split);
    syn.fold.keep_best(split, r == 0);
    const double one_shot_ms = split.ingest_ms + split.finalize_ms;
    if (r == 0 || one_shot_ms < syn.aggregate_ms) syn.aggregate_ms = one_shot_ms;
    const auto start = Clock::now();
    sliced_result = ingest_sliced_or_die(v3_bundle.trace);
    const double sliced_ms = ms_since(start);
    if (r == 0 || sliced_ms < syn.aggregate_sliced_ms) syn.aggregate_sliced_ms = sliced_ms;
  }
  syn.aggregate_identical = analyzer::testing::digest(one_shot_result) == analyze_digest &&
                            analyzer::testing::digest(sliced_result) == analyze_digest;
  v3_bundle = {};
  one_shot_result = {};
  sliced_result = {};

  // Long-span trace: a fifth of the events (at least the smoke size),
  // with the time step stretched so the mean span reaches kLongSpanBins
  // bins plus a margin (the generator's mean step is 24.5 ns).
  LongSpanStats span;
  {
    trace::Trace long_span = header;
    span.events = std::max<std::size_t>(n_events / 5, std::min<std::size_t>(n_events, 200'000));
    const Ns bin_ns = analyzer::AnalyzerOptions{}.bw_bin_ns;
    const Ns time_scale = (kLongSpanBins + kLongSpanBins / 20) * bin_ns /
                              (static_cast<Ns>(span.events) * 49 / 2) + 1;
    long_span.events.reserve(span.events);
    synth_events(span.events, 6, s0, s1, fn, time_scale,
                 [&long_span](const trace::Event& e) { long_span.events.push_back(e); });
    analyzer::AnalysisResult long_result;
    for (int r = 0; r < repeats; ++r) {
      FoldSplit split;
      long_result = fold_timed(long_span, split);
      span.fold.keep_best(split, r == 0);
    }
    span.bins = long_result.system_bw.size();
    for (const auto& site : long_result.sites) span.allocations += site.alloc_count;
    span.identical = analyzer::testing::digest(long_result) ==
                     analyzer::testing::digest(ingest_sliced_or_die(long_span));
  }
  const double aggregate_events_per_s =
      syn.aggregate_ms > 0 ? static_cast<double>(n_events) / (syn.aggregate_ms / 1e3) : 0.0;

  std::printf("synthetic (%zu events): v2 %.1f MB, v3 %.1f MB, v3 compressed %.1f MB (%.2fx)\n",
              n_events, static_cast<double>(syn.v2_bytes) / 1e6,
              static_cast<double>(syn.v3_bytes) / 1e6, static_cast<double>(syn.v3c_bytes) / 1e6,
              syn.v3c_bytes > 0
                  ? static_cast<double>(syn.v3_bytes) / static_cast<double>(syn.v3c_bytes)
                  : 0.0);
  std::printf("  %-28s %10.1f ms %10.1f MB/s\n", "v2 write", syn.v2_write_ms,
              mbs(syn.v2_bytes, syn.v2_write_ms));
  std::printf("  %-28s %10.1f ms %10.1f MB/s\n", "v3 write (streamed)", syn.v3_write_ms,
              mbs(syn.v3_bytes, syn.v3_write_ms));
  std::printf("  %-28s %10.1f ms %10.1f MB/s\n", "v3 write (compressed)", syn.v3c_write_ms,
              mbs(syn.v3c_bytes, syn.v3c_write_ms));
  std::printf("  %-28s %10.1f ms %10.1f MB/s\n", "v2 read", syn.v2_read_ms,
              mbs(syn.v2_bytes, syn.v2_read_ms));
  std::printf("  %-28s %10.1f ms %10.1f MB/s\n", "v3 read", syn.v3_read_serial_ms,
              mbs(syn.v3_bytes, syn.v3_read_serial_ms));
  std::printf("  %-28s %10.1f ms %10.1f MB/s  (%.1f MB/s plain-equiv, identical: %s)\n",
              "v3 read (compressed)", syn.v3c_read_ms, mbs(syn.v3c_bytes, syn.v3c_read_ms),
              mbs(syn.v3_bytes, syn.v3c_read_ms), syn.compressed_identical ? "yes" : "NO");
  std::printf("  %-28s %10.1f ms %10.1f MB/s  (%.1f%% coverage)\n", "v3 salvage read (damaged)",
              syn.salvage_read_ms, mbs(syn.v3_bytes, syn.salvage_read_ms),
              syn.salvage_declared > 0 ? 100.0 * static_cast<double>(syn.salvage_recovered) /
                                             static_cast<double>(syn.salvage_declared)
                                       : 0.0);
  std::printf("  %-28s %10.1f ms %10.1f MB/s\n", "v2 istream decode",
              syn.v2_stream_decode_ms, mbs(syn.v2_bytes, syn.v2_stream_decode_ms));
  std::printf("  %-28s %10.1f ms %10.1f MB/s\n", "v3 per-block mmap decode",
              syn.v3_block_decode_ms, mbs(syn.v3_bytes, syn.v3_block_decode_ms));
  std::printf("  %-28s %10.1f ms %10.1f MB/s  (%.1f MB/s plain-equiv)\n",
              "v3c per-block mmap decode", syn.v3c_block_decode_ms,
              mbs(syn.v3c_bytes, syn.v3c_block_decode_ms),
              mbs(syn.v3_bytes, syn.v3c_block_decode_ms));
  std::printf("  %-28s %10.1f ms %10.2f M events/s\n", "aggregate (one-shot)",
              syn.aggregate_ms, aggregate_events_per_s / 1e6);
  std::printf("  %-28s %10.1f ms  (identical: %s)\n", "aggregate (4096-event slices)",
              syn.aggregate_sliced_ms, syn.aggregate_identical ? "yes" : "NO");
  std::printf("  %-28s %10.1f ms\n", "  one-shot ingest", syn.fold.ingest_ms);
  std::printf("  %-28s %10.1f ms\n\n", "  one-shot finalize", syn.fold.finalize_ms);
  std::printf("long-span synthetic (%llu events, %llu bins, %llu allocations):\n",
              static_cast<unsigned long long>(span.events),
              static_cast<unsigned long long>(span.bins),
              static_cast<unsigned long long>(span.allocations));
  std::printf("  %-28s %10.1f ms\n", "one-shot ingest", span.fold.ingest_ms);
  std::printf("  %-28s %10.1f ms  (sliced identical: %s)\n\n", "one-shot finalize",
              span.fold.finalize_ms, span.identical ? "yes" : "NO");

  const bool all_identical = syn.aggregate_identical && syn.read_identical &&
                             syn.compressed_identical && span.identical;

  // ----------------------------------------------------------- verdicts
  const unsigned hw = std::thread::hardware_concurrency();
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  const double per_block_decode_speedup =
      syn.v2_stream_decode_ms > 0 && syn.v3_block_decode_ms > 0
          ? mbs(syn.v3_bytes, syn.v3_block_decode_ms) / mbs(syn.v2_bytes, syn.v2_stream_decode_ms)
          : 0.0;
  // Smoke mode records the bounds but does not gate on them (see the
  // header); bit-identity is enforced in both modes.
  const bool decode_speedup_raw = per_block_decode_speedup >= 2.0;
  const bool decode_speedup_ok = smoke || decode_speedup_raw;
  const bool aggregate_floor_raw = aggregate_events_per_s >= kAggregateFloor;
  const bool aggregate_floor_ok = smoke || aggregate_floor_raw;
  // Compression bound: reading the compressed trace must cost at most
  // 15% more wall time than the uncompressed one.  It reads ~1.6x fewer
  // bytes, so anywhere below that the format is a strict win once real
  // IO (not a warm page cache) is in the path; observed ratios on the
  // dev box range 0.70x-1.11x run to run, so the bound leaves headroom
  // for scheduler noise without masking a real decode regression.
  const bool compressed_raw =
      syn.v3c_read_ms > 0 && syn.v3c_read_ms <= syn.v3_read_serial_ms * 1.15;
  const bool compressed_ok = smoke || compressed_raw;
  std::printf("\nper-block decode speedup %.2fx (>= 2x): %s (%u cores)\n",
              per_block_decode_speedup,
              decode_speedup_raw  ? "met"
              : decode_speedup_ok ? "not met (informational in smoke mode)"
                                  : "VIOLATED",
              hw);
  std::printf("aggregate floor (>= %.2f M events/s one-shot): %s\n", kAggregateFloor / 1e6,
              aggregate_floor_raw  ? "met"
              : aggregate_floor_ok ? "not met (informational in smoke mode)"
                                   : "VIOLATED");
  std::printf("compressed read bound (<= 1.15x uncompressed wall time): %s\n",
              compressed_raw  ? "met"
              : compressed_ok ? "not met (informational in smoke mode)"
                              : "VIOLATED");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"trace_pipeline\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"repeats\": %d,\n", repeats);
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(out, "  \"compiler\": \"%s\",\n", compiler);
  std::fprintf(out, "  \"build_type\": \"%s\",\n", ECOHMEM_BUILD_TYPE);
  std::fprintf(out, "  \"git\": \"%s\",\n", ECOHMEM_GIT_DESCRIBE);
  std::fprintf(out, "  \"synthetic\": {\n");
  std::fprintf(out, "    \"events\": %llu,\n", static_cast<unsigned long long>(syn.events));
  std::fprintf(out, "    \"v2_bytes\": %llu,\n", static_cast<unsigned long long>(syn.v2_bytes));
  std::fprintf(out, "    \"v3_bytes\": %llu,\n", static_cast<unsigned long long>(syn.v3_bytes));
  std::fprintf(out, "    \"v3_compressed_bytes\": %llu,\n",
               static_cast<unsigned long long>(syn.v3c_bytes));
  std::fprintf(out, "    \"compression_ratio\": %.3f,\n",
               syn.v3c_bytes > 0
                   ? static_cast<double>(syn.v3_bytes) / static_cast<double>(syn.v3c_bytes)
                   : 0.0);
  std::fprintf(out, "    \"v2_write_ms\": %.3f, \"v2_write_mbs\": %.1f,\n", syn.v2_write_ms,
               mbs(syn.v2_bytes, syn.v2_write_ms));
  std::fprintf(out, "    \"v3_write_ms\": %.3f, \"v3_write_mbs\": %.1f,\n", syn.v3_write_ms,
               mbs(syn.v3_bytes, syn.v3_write_ms));
  std::fprintf(out, "    \"v3_compressed_write_ms\": %.3f, \"v3_compressed_write_mbs\": %.1f,\n",
               syn.v3c_write_ms, mbs(syn.v3c_bytes, syn.v3c_write_ms));
  std::fprintf(out, "    \"v2_read_ms\": %.3f, \"v2_read_mbs\": %.1f,\n", syn.v2_read_ms,
               mbs(syn.v2_bytes, syn.v2_read_ms));
  std::fprintf(out, "    \"v3_read_serial_ms\": %.3f, \"v3_read_serial_mbs\": %.1f,\n",
               syn.v3_read_serial_ms, mbs(syn.v3_bytes, syn.v3_read_serial_ms));
  std::fprintf(out, "    \"v3_compressed_read_ms\": %.3f, \"compressed_read_mbs\": %.1f,\n",
               syn.v3c_read_ms, mbs(syn.v3c_bytes, syn.v3c_read_ms));
  std::fprintf(out, "    \"compressed_read_plain_equiv_mbs\": %.1f,\n",
               mbs(syn.v3_bytes, syn.v3c_read_ms));
  std::fprintf(out, "    \"salvage_read_ms\": %.3f, \"salvage_read_mbs\": %.1f,\n",
               syn.salvage_read_ms, mbs(syn.v3_bytes, syn.salvage_read_ms));
  std::fprintf(out, "    \"salvage_events_recovered\": %llu,\n",
               static_cast<unsigned long long>(syn.salvage_recovered));
  std::fprintf(out, "    \"salvage_events_declared\": %llu,\n",
               static_cast<unsigned long long>(syn.salvage_declared));
  std::fprintf(out, "    \"v2_stream_decode_ms\": %.3f, \"v2_stream_decode_mbs\": %.1f,\n",
               syn.v2_stream_decode_ms, mbs(syn.v2_bytes, syn.v2_stream_decode_ms));
  std::fprintf(out, "    \"v3_block_decode_ms\": %.3f, \"v3_block_decode_mbs\": %.1f,\n",
               syn.v3_block_decode_ms, mbs(syn.v3_bytes, syn.v3_block_decode_ms));
  std::fprintf(out, "    \"v3_batch_decode_mbs\": %.1f,\n",
               mbs(syn.v3_bytes, syn.v3_block_decode_ms));
  std::fprintf(out,
               "    \"v3_compressed_block_decode_ms\": %.3f, "
               "\"v3_compressed_block_decode_mbs\": %.1f,\n",
               syn.v3c_block_decode_ms, mbs(syn.v3c_bytes, syn.v3c_block_decode_ms));
  std::fprintf(out, "    \"v3_compressed_block_decode_plain_equiv_mbs\": %.1f,\n",
               mbs(syn.v3_bytes, syn.v3c_block_decode_ms));
  std::fprintf(out, "    \"aggregate_ms\": %.3f,\n", syn.aggregate_ms);
  std::fprintf(out, "    \"aggregate_sliced_ms\": %.3f,\n", syn.aggregate_sliced_ms);
  std::fprintf(out, "    \"ingest_ms\": %.3f,\n", syn.fold.ingest_ms);
  std::fprintf(out, "    \"finalize_ms\": %.3f,\n", syn.fold.finalize_ms);
  std::fprintf(out, "    \"aggregate_events_per_s\": %.0f,\n", aggregate_events_per_s);
  std::fprintf(out, "    \"per_block_decode_speedup\": %.3f,\n", per_block_decode_speedup);
  std::fprintf(out, "    \"compressed_identical\": %s,\n",
               syn.compressed_identical ? "true" : "false");
  std::fprintf(out, "    \"identical\": %s\n", syn.aggregate_identical ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"long_span\": {\n");
  std::fprintf(out, "    \"events\": %llu,\n", static_cast<unsigned long long>(span.events));
  std::fprintf(out, "    \"bins\": %llu,\n", static_cast<unsigned long long>(span.bins));
  std::fprintf(out, "    \"allocations\": %llu,\n",
               static_cast<unsigned long long>(span.allocations));
  std::fprintf(out, "    \"ingest_ms\": %.3f,\n", span.fold.ingest_ms);
  std::fprintf(out, "    \"finalize_ms\": %.3f,\n", span.fold.finalize_ms);
  std::fprintf(out, "    \"identical\": %s\n", span.identical ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"bounds_enforced\": %s,\n", smoke ? "false" : "true");
  std::fprintf(out, "  \"decode_speedup_bound_met\": %s,\n", decode_speedup_ok ? "true" : "false");
  std::fprintf(out, "  \"aggregate_floor_events_per_s\": %.0f,\n", kAggregateFloor);
  std::fprintf(out, "  \"aggregate_floor_met\": %s,\n", aggregate_floor_ok ? "true" : "false");
  std::fprintf(out, "  \"compressed_read_bound_met\": %s\n", compressed_ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
  std::remove(v3c_path.c_str());
  std::remove(salvage_path.c_str());
  return all_identical && decode_speedup_ok && aggregate_floor_ok && compressed_ok ? 0 : 1;
}
