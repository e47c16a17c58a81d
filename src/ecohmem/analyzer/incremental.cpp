#include "ecohmem/analyzer/incremental.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>
#include <variant>

#include "ecohmem/memsim/bandwidth_meter.hpp"

namespace ecohmem::analyzer {

namespace {

/// Accumulator per allocation site.
struct SiteAccum {
  SiteRecord record;            ///< the fields that survive into the result
  Bytes live_bytes = 0;         ///< currently live footprint of this site
  double latency_weight = 0.0;  ///< weights of latency-carrying samples
  double latency_sum = 0.0;     ///< weight * latency
  /// Closed [alloc, free) windows in close order, for finalize's
  /// execution-time bandwidth average (which can see future traffic).
  std::vector<LiveWindow> closed;
};

/// Accumulator per traced function (Table VII inputs).
struct FunctionAccum {
  double samples = 0.0;      ///< weighted load samples
  double latency_sum = 0.0;  ///< weight * latency
  /// Any sample names the function, store-only ones included: such a
  /// function is reported with zero load samples.
  bool touched = false;
};

/// One live allocation.
struct LiveObject {
  std::uint64_t start = 0;
  Bytes size = 0;
  Ns alloc_time = 0;
  std::uint32_t site = 0;  ///< index into State::sites
};

/// The live set, ordered by start address. Every sample asks it for the
/// nearest live start at or below its address, so it is kept as sorted
/// chunks of at most kChunk objects plus the first start of each chunk
/// — two short binary searches over contiguous memory instead of a
/// walk down a node tree.
class LiveSet {
 public:
  /// The object with the greatest start <= `addr`, or nullptr.
  [[nodiscard]] const LiveObject* floor(std::uint64_t addr) const {
    const auto f = std::upper_bound(firsts_.begin(), firsts_.end(), addr);
    if (f == firsts_.begin()) return nullptr;
    const Chunk& ch = chunks_[static_cast<std::size_t>(f - firsts_.begin()) - 1];
    // The chunk's first start is <= addr, so the search lands past it.
    return &*(std::ranges::upper_bound(ch, addr, {}, &LiveObject::start) - 1);
  }

  /// Makes `obj` the object live at its start, replacing any object
  /// already live there.
  void assign(const LiveObject& obj) {
    if (chunks_.empty()) {
      chunks_.emplace_back();
      firsts_.push_back(obj.start);
    }
    const std::size_t c = chunk_of(obj.start);
    Chunk& ch = chunks_[c];
    const auto it = std::ranges::lower_bound(ch, obj.start, {}, &LiveObject::start);
    if (it != ch.end() && it->start == obj.start) {
      *it = obj;
      return;
    }
    ch.insert(it, obj);
    firsts_[c] = ch.front().start;
    if (ch.size() > kChunk) {
      Chunk upper(ch.begin() + kChunk / 2, ch.end());
      ch.resize(kChunk / 2);
      firsts_.insert(firsts_.begin() + static_cast<std::ptrdiff_t>(c) + 1, upper.front().start);
      chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c) + 1, std::move(upper));
    }
  }

  /// Removes the object live at exactly `start` into `out`; false when
  /// none is.
  bool take(std::uint64_t start, LiveObject& out) {
    if (chunks_.empty()) return false;
    const std::size_t c = chunk_of(start);
    Chunk& ch = chunks_[c];
    const auto it = std::ranges::lower_bound(ch, start, {}, &LiveObject::start);
    if (it == ch.end() || it->start != start) return false;
    out = *it;
    ch.erase(it);
    // A chunk that shrinks below a quarter folds into its successor
    // when both fit in one, so frees in arbitrary order cannot leave a
    // long tail of near-empty chunks.
    const std::size_t next = c + 1;
    if (ch.empty() || (ch.size() < kChunk / 4 && next < chunks_.size() &&
                       ch.size() + chunks_[next].size() <= kChunk)) {
      if (!ch.empty()) {
        chunks_[next].insert(chunks_[next].begin(), ch.begin(), ch.end());
        firsts_[next] = ch.front().start;
      }
      chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(c));
      firsts_.erase(firsts_.begin() + static_cast<std::ptrdiff_t>(c));
    } else {
      firsts_[c] = ch.front().start;
    }
    return true;
  }

  /// Visits every live object in ascending start order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Chunk& ch : chunks_) {
      for (const LiveObject& obj : ch) fn(obj);
    }
  }

 private:
  static constexpr std::size_t kChunk = 512;
  using Chunk = std::vector<LiveObject>;  ///< ascending starts

  /// The chunk `start` belongs in: the last one whose first start is
  /// <= `start`, or the first chunk.
  [[nodiscard]] std::size_t chunk_of(std::uint64_t start) const {
    const auto f = std::upper_bound(firsts_.begin(), firsts_.end(), start);
    return f == firsts_.begin() ? 0 : static_cast<std::size_t>(f - firsts_.begin()) - 1;
  }

  std::vector<Chunk> chunks_;
  std::vector<std::uint64_t> firsts_;  ///< chunks_[i].front().start
};

constexpr std::uint32_t kNoSite = std::numeric_limits<std::uint32_t>::max();

}  // namespace

struct IncrementalAggregator::State {
  State(const trace::StackTable& stack_table, const trace::FunctionTable& function_table,
        AnalyzerOptions opts)
      : stacks(&stack_table),
        functions(&function_table),
        options(opts),
        uncore_meter(1, opts.bw_bin_ns),
        sample_meter(1, opts.bw_bin_ns),
        site_of_stack(stack_table.size(), kNoSite),
        function_accum(function_table.size()) {}

  Status alloc(const trace::AllocEvent& a);
  Status free(const trace::FreeEvent& f);
  void sample(const trace::SampleEvent& s);

  const trace::StackTable* stacks;
  const trace::FunctionTable* functions;
  AnalyzerOptions options;

  memsim::BandwidthMeter uncore_meter;  ///< fold of uncore readings only
  memsim::BandwidthMeter sample_meter;  ///< fold of the sample fallback, until uncore shows up
  bool has_uncore = false;

  std::uint64_t n_events = 0;
  Ns last_time = 0;
  double unattributed = 0.0;
  std::string error;  ///< sticky first failure

  LiveSet live;
  std::unordered_map<std::uint64_t, std::uint64_t> object_address;  ///< id -> addr

  /// Sites in first-allocation order; `site_of_stack` maps a stack id
  /// to its index here (kNoSite until the stack allocates).
  std::vector<SiteAccum> sites;
  std::vector<std::uint32_t> site_of_stack;

  /// Functions by id for ids inside the function table; ids past it
  /// (trace-stack-ids only warns about them) spill into an ordered map.
  std::vector<FunctionAccum> function_accum;
  std::map<std::uint32_t, FunctionAccum> function_overflow;

  /// Deferred alloc-window bandwidth folds: (site index, window start)
  /// in allocation order. Grows with the allocation count, not the
  /// event count.
  std::vector<std::pair<std::uint32_t, Ns>> alloc_bw_pending;
};

Status IncrementalAggregator::State::alloc(const trace::AllocEvent& a) {
  if (a.stack == trace::kInvalidStack || a.stack >= stacks->size()) {
    return unexpected("alloc event with invalid stack id");
  }
  // The stack table may have grown since construction.
  if (a.stack >= site_of_stack.size()) site_of_stack.resize(stacks->size(), kNoSite);
  std::uint32_t& site = site_of_stack[a.stack];
  if (site == kNoSite) {
    site = static_cast<std::uint32_t>(sites.size());
    SiteAccum& fresh = sites.emplace_back();
    fresh.record.stack = a.stack;
    fresh.record.callstack = stacks->stack(a.stack);
    fresh.record.first_alloc = a.time;
  }
  // Address reuse while live: the previous object drops out of the
  // live set (its id still resolves to the address).
  live.assign(LiveObject{a.address, a.size, a.time, site});
  object_address[a.object_id] = a.address;

  SiteAccum& acc = sites[site];
  ++acc.record.alloc_count;
  acc.record.max_size = std::max(acc.record.max_size, a.size);
  acc.live_bytes += a.size;
  acc.record.peak_live_bytes = std::max(acc.record.peak_live_bytes, acc.live_bytes);

  // The alloc-window bandwidth average can see future traffic; defer
  // the fold to finalize() (in allocation order).
  const Ns w0 = a.time > options.alloc_window_ns ? a.time - options.alloc_window_ns / 2 : 0;
  alloc_bw_pending.emplace_back(site, w0);
  return {};
}

Status IncrementalAggregator::State::free(const trace::FreeEvent& f) {
  const auto addr_it = object_address.find(f.object_id);
  if (addr_it == object_address.end()) {
    return unexpected("free event for unknown object id " + std::to_string(f.object_id));
  }
  LiveObject obj;
  if (!live.take(addr_it->second, obj)) {
    return unexpected("double free of object id " + std::to_string(f.object_id));
  }
  SiteAccum& acc = sites[obj.site];
  acc.live_bytes = acc.live_bytes >= obj.size ? acc.live_bytes - obj.size : 0;
  acc.closed.push_back(LiveWindow{obj.alloc_time, f.time});
  acc.record.last_free = std::max(acc.record.last_free, f.time);
  acc.record.total_lifetime_ns +=
      static_cast<double>(f.time > obj.alloc_time ? f.time - obj.alloc_time : 0);
  object_address.erase(addr_it);
  return {};
}

void IncrementalAggregator::State::sample(const trace::SampleEvent& s) {
  if (!has_uncore) {
    sample_meter.add(0, s.time, s.time + 1, s.weight * static_cast<double>(kCacheLine));
  }

  // Function attribution happens regardless of object resolution.
  FunctionAccum& fn = s.function_id < function_accum.size() ? function_accum[s.function_id]
                                                            : function_overflow[s.function_id];
  fn.touched = true;
  if (!s.is_store) {
    fn.samples += s.weight;
    fn.latency_sum += s.weight * s.latency_ns;
  }

  // Nearest live start at or below the address; only that single
  // candidate is containment-checked.
  const LiveObject* obj = live.floor(s.address);
  if (obj == nullptr || s.address >= obj->start + obj->size) {
    unattributed += s.weight;
    return;
  }
  SiteAccum& acc = sites[obj->site];
  if (s.is_store) {
    acc.record.store_misses += s.weight;
    acc.record.has_writes = true;
  } else {
    acc.record.load_misses += s.weight;
    acc.latency_weight += s.weight;
    acc.latency_sum += s.weight * s.latency_ns;
  }
}

IncrementalAggregator::IncrementalAggregator(const trace::StackTable& stacks,
                                             const trace::FunctionTable& functions,
                                             AnalyzerOptions options)
    : state_(std::make_unique<State>(stacks, functions, options)) {}

IncrementalAggregator::~IncrementalAggregator() = default;

std::uint64_t IncrementalAggregator::events_ingested() const { return state_->n_events; }

const std::string& IncrementalAggregator::error() const { return state_->error; }

Status IncrementalAggregator::ingest(const trace::Event* events, std::size_t count) {
  State& st = *state_;
  if (!st.error.empty()) return unexpected(st.error);

  for (std::size_t k = 0; k < count; ++k) {
    const trace::Event& event = events[k];
    Status status;
    if (const auto* s = std::get_if<trace::SampleEvent>(&event)) {
      st.sample(*s);
    } else if (const auto* a = std::get_if<trace::AllocEvent>(&event)) {
      status = st.alloc(*a);
    } else if (const auto* f = std::get_if<trace::FreeEvent>(&event)) {
      status = st.free(*f);
    } else if (const auto* u = std::get_if<trace::UncoreBwEvent>(&event)) {
      st.has_uncore = true;
      const Ns t0 = u->time > u->period_ns ? u->time - u->period_ns : 0;
      st.uncore_meter.add(0, t0, u->time,
                          (u->read_gbs + u->write_gbs) * static_cast<double>(u->period_ns));
    }
    // Markers only carry a timestamp here.
    if (!status.ok()) {
      st.error = status.error();
      return status;
    }
    st.last_time = std::max(st.last_time, trace::event_time(event));
    ++st.n_events;
  }
  return {};
}

Expected<AnalysisResult> IncrementalAggregator::finalize(trace::TraceCoverage coverage) const {
  const State& st = *state_;
  if (!st.error.empty()) return unexpected(st.error);

  AnalysisResult result;
  result.coverage = coverage;
  if (result.coverage.empty()) {
    result.coverage.events_seen = st.n_events;
    result.coverage.events_declared = st.n_events;
  }
  result.trace_end = st.last_time;
  result.unattributed_samples = st.unattributed;

  // Uncore readings (which see prefetch fills) are authoritative; a
  // stream without them falls back to traffic reconstructed from the
  // PEBS samples.
  const memsim::BandwidthMeter& bw_meter = st.has_uncore ? st.uncore_meter : st.sample_meter;
  result.system_bw = bw_meter.series(0);
  result.observed_peak_bw_gbs = bw_meter.peak_gbs(0);

  // The result records start as the sites' ingested fields, indexed
  // like `st.sites` until the output sort; the folds below finish them
  // without touching the state, so ingestion can continue afterwards.
  result.sites.reserve(st.sites.size());
  for (const SiteAccum& acc : st.sites) result.sites.push_back(acc.record);

  // Bandwidth averages go through one batched averager, in chunks of
  // at most kWindowChunk windows, so its scratch stays bounded however
  // many windows a trace or a site has. `average_windows` averages
  // `window(k)` for k = 0..n-1 and hands each result to `fold(k, avg)`
  // in order k = 0..n-1.
  constexpr std::size_t kWindowChunk = 4096;
  memsim::WindowAverager averager(bw_meter, 0);
  std::vector<memsim::TimeWindow> windows;
  std::vector<double> averages;
  const auto average_windows = [&](std::size_t n, const auto& window, const auto& fold) {
    for (std::size_t c = 0; c < n; c += kWindowChunk) {
      const std::size_t m = std::min(kWindowChunk, n - c);
      windows.resize(m);
      for (std::size_t k = 0; k < m; ++k) windows[k] = window(c + k);
      averages.resize(m);
      averager.average_gbs(windows, averages);
      for (std::size_t k = 0; k < m; ++k) fold(c + k, averages[k]);
    }
  };
  const auto exec_window = [](const LiveWindow& w) {
    return memsim::TimeWindow{w.start, std::max(w.end, w.start + 1)};
  };

  // Deferred alloc-window folds, in allocation order.
  std::vector<double> alloc_bw_sum(st.sites.size(), 0.0);
  const auto& pending = st.alloc_bw_pending;
  average_windows(
      pending.size(),
      [&](std::size_t k) {
        return memsim::TimeWindow{pending[k].second, pending[k].second + st.options.alloc_window_ns};
      },
      [&](std::size_t k, double avg) { alloc_bw_sum[pending[k].first] += avg; });

  // Execution-time system bandwidth: the duration-weighted mean of the
  // averages over each site's windows, folded in window order — its
  // closed windows in close order, then its objects still live in
  // ascending address order.
  struct ExecFold {
    double weighted = 0.0;
    double total_dur = 0.0;
    void add(double avg, const LiveWindow& w) {
      const double dur = static_cast<double>(w.duration());
      weighted += avg * dur;
      total_dur += dur;
    }
  };
  std::vector<ExecFold> exec(st.sites.size());
  for (std::size_t s = 0; s < st.sites.size(); ++s) {
    const std::vector<LiveWindow>& closed = st.sites[s].closed;
    average_windows(
        closed.size(), [&](std::size_t k) { return exec_window(closed[k]); },
        [&](std::size_t k, double avg) { exec[s].add(avg, closed[k]); });
  }

  // Objects still live: their windows close at the last event time.
  // One pass over the live set in ascending address order, cut into
  // chunks of the averager's batch size.
  std::vector<std::pair<std::uint32_t, LiveWindow>> live_chunk;  // (site, window)
  const auto fold_live_chunk = [&] {
    average_windows(
        live_chunk.size(), [&](std::size_t k) { return exec_window(live_chunk[k].second); },
        [&](std::size_t k, double avg) {
          const auto& [site, w] = live_chunk[k];
          exec[site].add(avg, w);
          SiteRecord& r = result.sites[site];
          r.last_free = std::max(r.last_free, w.end);
          r.total_lifetime_ns += static_cast<double>(w.duration());
        });
    live_chunk.clear();
  };
  st.live.for_each([&](const LiveObject& obj) {
    live_chunk.emplace_back(obj.site, LiveWindow{obj.alloc_time, st.last_time});
    if (live_chunk.size() == kWindowChunk) fold_live_chunk();
  });
  fold_live_chunk();

  // Derived per-site metrics.
  for (std::size_t s = 0; s < st.sites.size(); ++s) {
    const SiteAccum& acc = st.sites[s];
    SiteRecord& r = result.sites[s];
    r.mean_lifetime_ns = r.total_lifetime_ns / static_cast<double>(r.alloc_count);
    r.alloc_time_system_bw_gbs = alloc_bw_sum[s] / static_cast<double>(r.alloc_count);
    if (acc.latency_weight > 0.0) {
      r.avg_load_latency_ns = acc.latency_sum / acc.latency_weight;
    }
    if (r.total_lifetime_ns > 0.0) {
      r.exec_bw_gbs = (r.load_misses + r.store_misses) * static_cast<double>(kCacheLine) /
                      r.total_lifetime_ns;
    }
    r.exec_time_system_bw_gbs =
        exec[s].total_dur > 0.0 ? exec[s].weighted / exec[s].total_dur : 0.0;
  }

  // Deterministic output order: by first allocation, then stack id.
  std::sort(result.sites.begin(), result.sites.end(), [](const SiteRecord& a, const SiteRecord& b) {
    return a.first_alloc != b.first_alloc ? a.first_alloc < b.first_alloc : a.stack < b.stack;
  });

  // Function profiles in id order (table ids, then overflow ids, which
  // are all past the table), so ties between equal names — the "?"
  // placeholder for out-of-table ids — break deterministically.
  const auto add_function = [&](std::uint32_t id, const FunctionAccum& acc) {
    FunctionProfile fp;
    fp.name = id < st.functions->size() ? st.functions->name(id) : "?";
    fp.load_samples = acc.samples;
    fp.avg_load_latency_ns = acc.samples > 0.0 ? acc.latency_sum / acc.samples : 0.0;
    result.functions.push_back(std::move(fp));
  };
  for (std::size_t id = 0; id < st.function_accum.size(); ++id) {
    if (st.function_accum[id].touched) {
      add_function(static_cast<std::uint32_t>(id), st.function_accum[id]);
    }
  }
  for (const auto& [id, acc] : st.function_overflow) add_function(id, acc);
  std::stable_sort(result.functions.begin(), result.functions.end(),
                   [](const FunctionProfile& a, const FunctionProfile& b) {
                     return a.name < b.name;
                   });
  return result;
}

}  // namespace ecohmem::analyzer
