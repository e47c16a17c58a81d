#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <utility>

namespace pipebench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  t.value = values.back();
  t.percentile = 100.0;
  if (n <= kTailBeyond) return t;
  // The sample at rank n-1-kTailBeyond has kTailBeyond samples after it;
  // ties with it are not "beyond", so step down past them.
  std::size_t rank = n - 1 - kTailBeyond;
  while (rank > 0 && values[rank] == values[rank + 1]) --rank;
  // Below the median it would not be a tail: then only the maximum is.
  if (values[rank] == values[rank + 1] || 2 * (rank + 1) <= n) return t;
  t.value = values[rank];
  t.beyond = n - 1 - rank;
  t.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return t;
}

namespace {

struct OpenRef {
  std::uint64_t id;
  std::uint64_t pass;
};

thread_local std::vector<OpenRef> t_open;

}  // namespace

Tracer::Scope::Scope(Scope&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)), id_(other.id_), pass_(other.pass_) {}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->finish(id_);
}

Tracer::Scope Tracer::open(const char* name, std::uint64_t parent, std::uint64_t pass) {
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    Span& s = open_[id];
    s.id = id;
    s.parent = parent;
    s.pass = pass;
    s.name = name;
    s.start = Clock::now();
  }
  t_open.push_back({id, pass});
  return Scope(this, id, pass);
}

Tracer::Scope Tracer::pass(std::uint64_t pass, const char* name) {
  if (!enabled_) return Scope(nullptr, 0, pass);
  return open(name, 0, pass);
}

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) return Scope(nullptr, 0, 0);
  const OpenRef parent = t_open.empty() ? OpenRef{0, 0} : t_open.back();
  return open(name, parent.id, parent.pass);
}

Tracer::Scope Tracer::span(const char* name, const Scope& parent) {
  if (!enabled_) return Scope(nullptr, 0, parent.pass());
  return open(name, parent.id(), parent.pass());
}

void Tracer::finish(std::uint64_t id) {
  const auto end = Clock::now();
  // Scopes are RAII objects, so on one thread they close innermost
  // first; the id is still searched for so a moved scope cannot pop a
  // sibling.
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->id == id) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end = end;
  done_.push_back(std::move(it->second));
  open_.erase(it);
}

void Tracer::count(const std::string& name, double value) {
  if (!enabled_) return;
  const std::uint64_t pass = t_open.empty() ? 0 : t_open.back().pass;
  const std::lock_guard<std::mutex> lock(mu_);
  counters_[pass][name] += value;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

std::map<std::uint64_t, std::map<std::string, double>> Tracer::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent: children
    // on other threads may overlap each other.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (const std::size_t c : children[i]) {
      const auto from = std::max(spans[c].start, s.start);
      const auto to = std::min(spans[c].end, s.end);
      if (from < to) cover.emplace_back(from, to);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    for (std::size_t k = 0; k < cover.size();) {
      auto from = cover[k].first;
      auto to = cover[k].second;
      for (++k; k < cover.size() && cover[k].first <= to; ++k) to = std::max(to, cover[k].second);
      covered += ms_between(from, to);
    }
    out[i] = std::max(0.0, ms_between(s.start, s.end) - covered);
  }
  return out;
}

std::map<std::string, double> layer_medians(const Tracer& tracer) {
  const auto spans = tracer.spans();
  const auto self = self_ms(spans);
  std::map<std::string, std::map<std::uint64_t, double>> per_pass;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    per_pass[spans[i].name + "_ms"][spans[i].pass] += self[i];
  }
  for (const auto& [pass, counters] : tracer.counters()) {
    for (const auto& [name, value] : counters) per_pass[name][pass] += value;
  }
  std::map<std::string, double> out;
  for (const auto& [name, passes] : per_pass) {
    std::vector<double> values;
    values.reserve(passes.size());
    for (const auto& [pass, value] : passes) values.push_back(value);
    out[name] = median(std::move(values));
  }
  return out;
}

void RunResult::attempt(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  if (!what.empty()) notes.push_back("FAILED: " + what);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += format("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool write_spans(const std::string& path, const Tracer& tracer) {
  const auto spans = tracer.spans();
  if (spans.empty()) return true;
  const auto self = self_ms(spans);
  Clock::time_point origin = spans.front().start;
  for (const auto& s : spans) origin = std::min(origin, s.start);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << format("{\"id\": %llu, \"parent\": %llu, \"pass\": %llu, \"name\": %s, "
                  "\"start_ms\": %.6f, \"end_ms\": %.6f, \"self_ms\": %.6f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.pass), json_string(s.name).c_str(),
                  ms_between(origin, s.start), ms_between(origin, s.end), self[i]);
  }
  return out.good();
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace pipebench
