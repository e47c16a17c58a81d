#pragma once

/// \file harness.hpp
/// Measurement plumbing shared by the three workloads: timing, the
/// median/tail statistics the results are reported with, the span
/// recorder of the traced run, and the per-run result record.
///
/// Every timing is taken from outside the library, around a call into
/// one of its public entry points, so the benchmark measures any version
/// of the pipeline without touching it.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty set.
[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile of a sample set that still has at least
/// `kTailBeyond` samples strictly above it. When no percentile above the
/// median qualifies (about 20 samples or fewer) the maximum is reported
/// instead, with `beyond` 0, so a tail is never below the median and
/// never better than what was observed.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in [0, 100]
  std::size_t beyond = 0;   ///< samples strictly above `value`
  std::size_t samples = 0;
};
inline constexpr std::size_t kTailBeyond = 10;
[[nodiscard]] Tail tail(std::vector<double> values);

/// One timed call into a layer. All spans of one pass carry that pass's
/// id; `parent` is 0 for the pass's root span.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t pass = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span and counter store for the traced run. Disabled, every
/// call is a branch on a constant flag and records nothing.
///
/// Spans nest per thread: a span opened while another is open on the
/// same thread becomes its child. A span begun on another thread names
/// its parent explicitly.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: ends when destroyed.
  class Scope {
   public:
    Scope(Scope&& other) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope();
    [[nodiscard]] std::uint64_t id() const { return id_; }
    [[nodiscard]] std::uint64_t pass() const { return pass_; }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::uint64_t id, std::uint64_t pass)
        : tracer_(tracer), id_(id), pass_(pass) {}
    Tracer* tracer_ = nullptr;
    std::uint64_t id_ = 0;
    std::uint64_t pass_ = 0;
  };

  /// Opens the root span of pass `pass`.
  [[nodiscard]] Scope pass(std::uint64_t pass, const char* name);
  /// Opens a child of the innermost span open on this thread.
  [[nodiscard]] Scope span(const char* name);
  /// Opens a child of `parent`, which may be open on another thread.
  [[nodiscard]] Scope span(const char* name, const Scope& parent);

  /// Adds `value` to counter `name` of the pass of the innermost span
  /// open on this thread.
  void count(const std::string& name, double value);

  /// Completed spans, in completion order.
  [[nodiscard]] std::vector<Span> spans() const;
  /// pass -> counter name -> value.
  [[nodiscard]] std::map<std::uint64_t, std::map<std::string, double>> counters() const;

 private:
  void finish(std::uint64_t id);
  Scope open(const char* name, std::uint64_t parent, std::uint64_t pass);

  const bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;                      // guarded by mu_
  std::map<std::uint64_t, Span> open_;             // guarded by mu_
  std::vector<Span> done_;                         // guarded by mu_
  std::map<std::uint64_t, std::map<std::string, double>> counters_;  // guarded by mu_
};

/// Self time of each span: its duration minus the part of it that its
/// children cover. Indexed like `spans`.
[[nodiscard]] std::vector<double> self_ms(const std::vector<Span>& spans);

/// Per-layer figures of a traced run: for every span name, the median
/// over passes of that pass's summed self time; for every counter, the
/// median over passes of its value. Keys are `<span name>_ms` and the
/// counter names.
[[nodiscard]] std::map<std::string, double> layer_medians(const Tracer& tracer);

/// What one run of one workload reports.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// name -> (value, unit), in print order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Human-readable lines printed before the result (the workload's own
  /// figures under their own names: pipeline_s, sim_speedup, ...).
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Counts one operation; a failed one also marks the run incorrect and
  /// records why.
  void attempt(bool ok, const std::string& what = {});
};

/// `s` as a JSON string literal.
[[nodiscard]] std::string json_string(const std::string& s);

/// Writes the completed spans of `tracer`, one JSON object per line
/// (id, parent, pass, name, start/end relative to the first span, self
/// time). Returns false when the file could not be written.
[[nodiscard]] bool write_spans(const std::string& path, const Tracer& tracer);

/// Formats like printf into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Peak resident set of this process, from getrusage, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace pipebench
