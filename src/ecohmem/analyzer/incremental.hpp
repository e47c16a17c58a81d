#pragma once

/// \file incremental.hpp
/// The analyzer's one fold: trace events in, per-site records out,
/// slice by slice.
///
/// `IncrementalAggregator` folds a time-ordered event stream in slices
/// of any size and can produce, at any point, the `AnalysisResult` of
/// every event ingested so far. `analyze()` (aggregator.hpp) is this
/// fold over a whole trace in one slice, and the serving layer feeds it
/// v3-block-sized slices between placement queries — so the result is
/// **bit-identical** for every way of cutting the stream into slices
/// (tests/serve/test_serve_session.cpp, pinned against golden digests
/// by tests/analyzer/test_analysis_golden.cpp).
///
/// Slicing cannot change a result because every order-sensitive
/// floating-point fold runs in stream order, whatever the slice cuts:
///
///  * Two bandwidth meters run side by side — one folding uncore
///    readings, one folding the PEBS-sample fallback. Uncore readings
///    are authoritative whenever the stream has any, which a prefix
///    cannot know in advance, so the sample fold runs until the first
///    uncore reading (after which it can never be chosen) and the
///    choice is made at finalize time.
///  * Per-allocation bandwidth (`alloc_time_system_bw_gbs`) reads the
///    meter over a window that may include *future* traffic, so those
///    folds are deferred: ingestion records (site, window start) pairs
///    in allocation order and finalize replays them against the
///    finished meter.
///  * Everything else — the alloc/free replay of the live set, sample
///    attribution against it, per-site and per-function weight folds —
///    happens as each event arrives.
///
/// `finalize()` is dominated by bandwidth averages: one per deferred
/// allocation window and one per [alloc, free) window of every object
/// (the execution-time system bandwidth of paper §VII), each over up to
/// every bin of the timeline. They run as one batched window pass
/// through a `memsim::WindowAverager` built once per call, in
/// fixed-size chunks: the allocation windows in allocation order, each
/// site's closed windows in close order, then the objects still live in
/// ascending address order. The averager returns the same doubles a
/// per-window loop would, and finalize folds them in that order, so the
/// batching changes no bit of the result. Its scratch is bounded by the
/// chunk size, never by a site or the whole trace.
///
/// finalize reads the accumulators in place — no copy of the per-site
/// state, no sort of any window list — and builds each result record
/// from the site's small fields; the windows themselves stay private to
/// the fold.
///
/// Not thread-safe: the serving layer serializes access through the
/// session store lock (docs/threading.md). `finalize()` is const and
/// non-destructive, so ingestion can continue after a snapshot.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ecohmem/analyzer/aggregator.hpp"
#include "ecohmem/common/expected.hpp"
#include "ecohmem/trace/events.hpp"
#include "ecohmem/trace/trace_file.hpp"

namespace ecohmem::analyzer {

/// Folds a time-ordered event stream into analyzer state, slice by
/// slice. Construct with the trace's header tables (the caller keeps
/// them alive — the serving session owns both), `ingest()` each slice,
/// `finalize()` whenever a consistent `AnalysisResult` is needed.
class IncrementalAggregator {
 public:
  /// `stacks`/`functions` are the trace header tables events refer
  /// into; both must outlive the aggregator.
  IncrementalAggregator(const trace::StackTable& stacks, const trace::FunctionTable& functions,
                        AnalyzerOptions options = {});
  ~IncrementalAggregator();

  /// Folds the next slice of the event stream, continuing where the
  /// previous call stopped. Fails on malformed streams (alloc with an
  /// invalid stack id, free of an unknown object, double free); a
  /// failure is sticky — the aggregator is poisoned and every later
  /// `ingest()`/`finalize()` reports the first error.
  Status ingest(const trace::Event* events, std::size_t count);

  /// Convenience overload over a vector slice.
  Status ingest(const std::vector<trace::Event>& events) {
    return ingest(events.data(), events.size());
  }

  /// Events folded so far (across all `ingest()` calls).
  [[nodiscard]] std::uint64_t events_ingested() const;

  /// First ingest error, empty while healthy.
  [[nodiscard]] const std::string& error() const;

  /// Produces the analysis of everything ingested so far. Non-destructive:
  /// it only reads the accumulators, so ingestion may continue
  /// afterwards. `coverage` stamps the result (empty = the ingested
  /// events are the whole trace).
  [[nodiscard]] Expected<AnalysisResult> finalize(trace::TraceCoverage coverage = {}) const;

 private:
  struct State;  ///< accumulators, live set and meters (incremental.cpp)
  std::unique_ptr<State> state_;
};

}  // namespace ecohmem::analyzer
