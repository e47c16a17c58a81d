// serve-stream: an in-process placement daemon fed the way a profiled
// run would feed it. One pass = one session: a connection streams the
// seeded events in fixed-size blocks as a closed loop (the next block
// goes after BLOCK_OK; BUSY is retried after the server's hint), while a
// second connection sends a QUERY_PLACEMENT at a fixed time into the
// session whatever the ingest side is doing (open loop), timed from when
// it was due. The pass ends with a final query whose report must equal
// the offline advisor's.
//
// Why this workload: it runs the analyzer contract through the serve
// path's incremental aggregator, and puts writes (ingest) beside reads (a
// snapshot plus an Advisor run per query), so a fold change that speeds
// ingest but slows finalize or queue drain shows up as query latency.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "ecohmem/serve/client.hpp"
#include "ecohmem/serve/protocol.hpp"
#include "ecohmem/serve/server.hpp"
#include "ecohmem/trace/codec.hpp"
#include "gen.hpp"
#include "workloads.hpp"

namespace pipebench {

using namespace ecohmem;

namespace {

constexpr std::size_t kBlockEvents = 4096;
/// When the session's open-loop query is due, after its first block. The
/// ingest queue fills within about 25 ms and the stream keeps it full for
/// about 100 ms, so the query always meets a full backlog.
constexpr std::chrono::milliseconds kQueryDue{50};
/// How often the ingest queue depth is polled.
constexpr std::chrono::milliseconds kStatsPeriod{10};
/// BUSY retries per block before the block counts as failed.
constexpr std::size_t kMaxBusyRetries = 1000;

GenOptions gen_options(const RunConfig& config) {
  GenOptions options;
  options.seed = derive_seed(config.seed, 3);
  options.events = config.small ? 8'000 : 1'000'000;
  options.sites = config.small ? 100 : 2'000;
  return options;
}

/// A server running on its own thread; stopped and joined by `stop()`
/// or on destruction.
class Daemon {
 public:
  static Expected<std::unique_ptr<Daemon>> start(const std::string& socket_path) {
    serve::ServerOptions options;
    options.socket_path = socket_path;
    auto server = serve::Server::create(std::move(options));
    if (!server) return unexpected(server.error());
    return std::unique_ptr<Daemon>(new Daemon(std::move(*server)));
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { (void)stop(); }

  /// Drains the server and returns what its loop returned.
  [[nodiscard]] Status stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
    return status_;
  }

 private:
  explicit Daemon(std::unique_ptr<serve::Server> server) : server_(std::move(server)) {
    thread_ = std::thread([this] { status_ = server_->run(); });
  }
  std::unique_ptr<serve::Server> server_;
  Status status_;
  std::thread thread_;  // started last, after the members it uses
};

struct Input {
  Generated gen;
  std::vector<std::vector<trace::Event>> blocks;
  std::vector<std::size_t> block_wire_bytes;  ///< INGEST_BLOCK frame size per block
};

Input make_input(const GenOptions& options) {
  Input in;
  in.gen = generate(options);
  const auto& events = in.gen.trace.events;
  for (std::size_t off = 0; off < events.size(); off += kBlockEvents) {
    const std::size_t n = std::min(kBlockEvents, events.size() - off);
    in.blocks.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(off),
                           events.begin() + static_cast<std::ptrdiff_t>(off + n));
    serve::IngestBlock msg;
    msg.block_seq = in.blocks.size() - 1;
    msg.event_count = n;
    Ns last_time = 0;
    for (const auto& e : in.blocks.back()) {
      trace::codec::encode_event_compact(msg.block, e, last_time);
    }
    std::string payload;
    serve::encode_ingest_block(payload, msg);
    std::string frame;
    serve::append_frame(frame, serve::FrameType::kIngestBlock, payload);
    in.block_wire_bytes.push_back(frame.size());
  }
  return in;
}

/// Everything measured across the run's sessions.
struct Measured {
  std::vector<double> session_ms;
  std::vector<double> query_ms;        ///< from due time
  std::vector<double> late_ms;         ///< how late each query was sent
  std::vector<double> block_rtt_ms;    ///< one per ingest attempt
  std::vector<double> ingest_rate;     ///< events/s per session
  std::vector<double> wire_mb;         ///< per session
  std::uint64_t attempts = 0;
  std::uint64_t busy = 0;
  std::uint32_t queue_depth_max = 0;
};

/// The open-loop side of one session, on its own thread and an already
/// attached connection: one QUERY_PLACEMENT at its due time whatever the
/// ingest side is doing, timed from that due time. Failures are returned
/// for the main thread to count.
void open_loop_query(serve::Client& client, const advisor::AdvisorConfig& config,
                     Tracer& tracer, const Tracer::Scope& root, Clock::time_point due,
                     Measured& m, std::vector<std::string>& errors, std::uint64_t& answered) {
  std::this_thread::sleep_until(due);
  m.late_ms.push_back(ms_since(due));
  auto span = tracer.span("serve.query", root);
  const auto report = client.query(config, /*bandwidth_aware=*/true);
  if (!report) {
    errors.push_back("query: " + report.error());
    return;
  }
  m.query_ms.push_back(ms_since(due));
  ++answered;
}

/// Polls STATS on a third connection until `done`, keeping the deepest
/// ingest queue seen. On its own connection so that a slow STATS reply
/// never delays the scheduled query.
void poll_queue(serve::Client& client, const std::atomic<bool>& done, Measured& m,
                std::vector<std::string>& errors) {
  while (!done.load(std::memory_order_acquire)) {
    const auto stats = client.stats();
    if (!stats) {
      errors.push_back("stats: " + stats.error());
      return;
    }
    m.queue_depth_max = std::max(m.queue_depth_max, stats->queue_depth);
    std::this_thread::sleep_for(kStatsPeriod);
  }
}

/// One session. Returns the final report text, or nullopt after
/// recording the failure.
std::optional<serve::Report> run_session(const std::string& socket_path, const Input& in,
                                         const advisor::AdvisorConfig& config,
                                         std::uint64_t pass, Tracer& tracer, RunResult& result,
                                         Measured& m) {
  auto root = tracer.pass(pass, "pass");
  auto client = serve::Client::connect(socket_path);
  result.attempt(client.has_value(), client ? "" : "connect: " + client.error());
  if (!client) return std::nullopt;
  const auto& t = in.gen.trace;
  const auto hello =
      client->hello_create(t.stacks, t.functions, in.gen.modules, t.sample_rate_hz);
  result.attempt(hello.ok(), hello ? "" : "hello: " + hello.error());
  if (!hello) return std::nullopt;

  // The query and STATS connections attach before the stream starts, so
  // the query goes out exactly on schedule.
  std::vector<serve::Client> side;
  for (const char* what : {"query", "stats"}) {
    auto c = serve::Client::connect(socket_path);
    const Status attached = c ? c->hello_attach(client->session_id())
                              : Status(unexpected(c.error()));
    result.attempt(attached.ok(),
                   attached ? "" : std::string(what) + " attach: " + attached.error());
    if (!attached) return std::nullopt;
    side.push_back(std::move(*c));
  }

  std::vector<std::string> errors;
  std::vector<std::string> poll_errors;
  std::uint64_t answered = 0;
  std::atomic<bool> done{false};
  const auto ingest_start = Clock::now();
  std::thread querier([&] {
    open_loop_query(side[0], config, tracer, root, ingest_start + kQueryDue, m, errors,
                    answered);
  });
  std::thread poller([&] { poll_queue(side[1], done, m, poll_errors); });
  double wire = 0.0;
  bool ingested = true;
  for (std::size_t b = 0; b < in.blocks.size() && ingested; ++b) {
    for (std::size_t tries = 0;; ++tries) {
      auto span = tracer.span("serve.ingest_block");
      const auto sent = Clock::now();
      const auto outcome = client->ingest_block_once(in.blocks[b]);
      m.block_rtt_ms.push_back(ms_since(sent));
      ++m.attempts;
      wire += static_cast<double>(in.block_wire_bytes[b]);
      if (!outcome) {
        result.attempt(false, "ingest: " + outcome.error());
        ingested = false;
        break;
      }
      if (*outcome == serve::Client::Ingest::kAccepted) {
        result.attempt(true);
        break;
      }
      ++m.busy;
      if (tries == kMaxBusyRetries) {
        result.attempt(false, "ingest: BUSY retries exhausted");
        ingested = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(client->last_busy().retry_hint_ms));
    }
  }
  const double ingest_ms = ms_since(ingest_start);
  std::optional<serve::Report> final_report;
  if (ingested) {
    auto span = tracer.span("serve.final_query");
    auto report = client->query(config, /*bandwidth_aware=*/true);
    result.attempt(report.has_value(), report ? "" : "final query: " + report.error());
    if (report) final_report = std::move(*report);
  }
  const double session_ms = ms_since(ingest_start);
  querier.join();
  done.store(true, std::memory_order_release);
  poller.join();
  errors.insert(errors.end(), poll_errors.begin(), poll_errors.end());
  for (std::uint64_t q = 0; q < answered; ++q) result.attempt(true);
  for (const auto& e : errors) result.attempt(false, e);
  for (auto& c : side) {
    const auto side_bye = c.bye();
    result.attempt(side_bye.ok(), side_bye ? "" : "bye: " + side_bye.error());
  }
  const auto bye = client->bye(/*close_session=*/true);
  result.attempt(bye.ok(), bye ? "" : "bye: " + bye.error());
  if (!final_report) return std::nullopt;

  m.session_ms.push_back(session_ms);
  m.ingest_rate.push_back(static_cast<double>(t.events.size()) / (ingest_ms / 1e3));
  m.wire_mb.push_back(wire / 1e6);
  return final_report;
}

}  // namespace

RunResult run_serve_stream(const RunConfig& config) {
  RunResult result;
  const GenOptions gen = gen_options(config);
  const std::string socket_path =
      config.scratch + "/serve-" + std::to_string(::getpid()) + ".sock";
  Tracer traced(true);
  Tracer untraced(false);

  std::optional<Input> input;
  std::unique_ptr<Daemon> daemon;
  std::string setup_error;
  const double setup_s = timed_setup(
      config.small ? 1 : 5, 1,
      [&] {
        input = make_input(gen);
        auto started = Daemon::start(socket_path);
        if (started) {
          daemon = std::move(*started);
        } else {
          setup_error = started.error();
        }
      },
      [&] {
        daemon.reset();
        input.reset();
      });
  result.attempt(daemon != nullptr, "server start: " + setup_error);
  const auto advisor_config = load_advisor_config(config.root);
  result.attempt(advisor_config.has_value(),
                 advisor_config ? "" : "advisor config: " + advisor_config.error());
  if (!daemon || !advisor_config) return result;
  const auto& events = input->gen.trace;
  result.notes.push_back(format("stream: %zu events in %zu blocks, %zu call stacks",
                                events.events.size(), input->blocks.size(),
                                events.stacks.size()));

  // Reference: offline analyze + advise on the same events. In the
  // traced run its spans give the analyzer and advisor figures.
  std::string reference;
  {
    Tracer& tracer = config.trace ? traced : untraced;
    auto root = tracer.pass(kSetupPass, "reference");
    Expected<analyzer::AnalysisResult> analysis = unexpected("not analyzed");
    {
      auto span = tracer.span("analyzer.analyze");
      analysis = analyzer::analyze(events);
    }
    if (analysis) count_analysis(tracer, events, *analysis);
    auto report = analysis ? advise(*analysis, *advisor_config, input->gen.modules, tracer)
                           : Expected<std::string>(unexpected(analysis.error()));
    result.attempt(report.has_value(), report ? "" : "reference: " + report.error());
    if (!report) return result;
    reference = std::move(*report);
  }

  Measured m;
  std::vector<double> traced_ms;
  const std::size_t min_passes = config.trace ? 2 : 1;
  const std::size_t max_passes = config.small ? min_passes : SIZE_MAX;
  const auto measure_start = Clock::now();
  for (std::uint64_t pass = 1; pass <= max_passes; ++pass) {
    if (pass > min_passes && ms_since(measure_start) >= config.seconds * 1e3) break;
    Tracer& tracer = config.trace && pass % 2 == 1 ? traced : untraced;
    const std::size_t before = m.session_ms.size();
    const auto report =
        run_session(socket_path, *input, *advisor_config, pass, tracer, result, m);
    if (!report) continue;
    result.attempt(report->text == reference &&
                       report->events_analyzed == events.events.size(),
                   "final served report differs from offline analyze + advise");
    if (tracer.enabled() && m.session_ms.size() > before) {
      traced_ms.push_back(m.session_ms.back());
      m.session_ms.pop_back();
    }
  }
  const auto stopped = daemon->stop();
  result.attempt(stopped.ok(), stopped ? "" : "server: " + stopped.error());

  const Tail query_tail = tail(m.query_ms);
  const double turnaround_s = median(m.session_ms) / 1e3;
  result.notes.push_back(format("ingest_events_per_s %.1f events/s (median of %zu sessions)",
                                median(m.ingest_rate), m.ingest_rate.size()));
  result.notes.push_back(format("query_ms_p50 %.4f ms, query_ms_tail %.4f ms at p%.1f "
                                "(%zu samples beyond, %zu samples)",
                                median(m.query_ms), query_tail.value, query_tail.percentile,
                                query_tail.beyond, query_tail.samples));
  if (config.trace) {
    save_spans(config, traced, result);
    const Tail rtt_tail = tail(m.block_rtt_ms);
    add_layer_metrics(
        result, traced, traced_ms, m.session_ms,
        {{"serve.block_rtt_ms_p50", median(m.block_rtt_ms)},
         {"serve.block_rtt_ms_tail", rtt_tail.value},
         {"serve.busy_ratio",
          m.attempts > 0 ? static_cast<double>(m.busy) / static_cast<double>(m.attempts) : 0.0},
         {"serve.queue_depth_max", static_cast<double>(m.queue_depth_max)},
         {"serve.wire_mb", median(m.wire_mb)},
         {"serve.ingest_events_per_s", median(m.ingest_rate)},
         {"bench.generator_late_ms", median(m.late_ms)}});
  } else {
    result.metric("setup_s", setup_s, "s");
    result.metric("turnaround_s", turnaround_s, "s");
    result.metric("report_ms_p50", median(m.query_ms), "ms");
    result.metric("report_ms_tail", query_tail.value, "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  return result;
}

}  // namespace pipebench
