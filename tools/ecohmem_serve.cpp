// ecohmem-serve — the placement-as-a-service daemon and its loopback
// client (docs/serving.md is the wire-protocol spec, docs/cli.md the
// flag reference).
//
// Server mode (--listen) runs the multi-tenant advisor daemon on a
// unix-domain socket until SIGTERM/SIGINT, then drains gracefully.
// Client mode (--connect) opens one session: ingest a recorded trace,
// query a placement report, fetch the per-site CSV, print counters.
//
// Usage:
//   ecohmem-serve --listen <socket> [--max-sessions N] [--queue-blocks N]
//                 [--max-frame-bytes N]
//   ecohmem-serve --connect <socket> (--ingest <trace.trc> | --attach ID)
//                 [--block-events N] [--query <report.txt>]
//                 [--config <advisor.ini>] [--dram-limit 12GB]
//                 [--store-coef 0.125] [--bandwidth-aware]
//                 [--peak-pmem-bw GBS] [--csv <sites.csv>] [--stats]
//                 [--bye-close]
//
// Flag/usage errors exit 2; runtime failures exit 1. A client query
// against a fully ingested trace is byte-identical to
// `ecohmem-advisor --trace ... --out ...` on the same config.

#include <csignal>

#include <cstdio>
#include <fstream>

#include "cli_common.hpp"
#include "ecohmem/serve/client.hpp"
#include "ecohmem/serve/server.hpp"
#include "ecohmem/trace/trace_reader.hpp"

using namespace ecohmem;

namespace {

serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();  // async-signal-safe
}

int run_server(const cli::Args& args) {
  const auto max_sessions = args.get_int_in_range("max-sessions", 256, 1, 1 << 20);
  if (!max_sessions) return cli::fail_usage(max_sessions.error());
  const auto queue_blocks = args.get_int_in_range("queue-blocks", 64, 1, 1 << 20);
  if (!queue_blocks) return cli::fail_usage(queue_blocks.error());
  const auto max_frame = args.get_int_in_range("max-frame-bytes",
                                               serve::kDefaultMaxFrameBytes, 64, 1 << 30);
  if (!max_frame) return cli::fail_usage(max_frame.error());

  serve::ServerOptions options;
  options.socket_path = args.get("listen");
  options.max_sessions = static_cast<std::size_t>(*max_sessions);
  options.queue_blocks = static_cast<std::size_t>(*queue_blocks);
  options.max_frame_bytes = static_cast<std::uint32_t>(*max_frame);
  auto server = serve::Server::create(std::move(options));
  if (!server) return cli::fail(server.error());

  g_server = server->get();
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  std::printf("listening on %s\n", (*server)->socket_path().c_str());
  std::fflush(stdout);
  const auto status = (*server)->run();
  g_server = nullptr;
  if (!status.ok()) return cli::fail(status.error());
  std::printf("drained, socket unlinked\n");
  return 0;
}

int write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !(out << text) || !out.flush()) {
    return cli::fail("cannot write " + path);
  }
  return 0;
}

int run_client(const cli::Args& args) {
  const auto attach_id = args.get_int_in_range("attach", 0, 1, (1ll << 62));
  if (!attach_id) return cli::fail_usage(attach_id.error());
  const auto block_events = args.get_int_in_range("block-events", 4096, 1, 1 << 24);
  if (!block_events) return cli::fail_usage(block_events.error());
  if (!args.has("attach") && !args.has("ingest")) {
    return cli::fail_usage("client mode needs --ingest <trace> (new session) or --attach ID");
  }

  auto client = serve::Client::connect(args.get("connect"));
  if (!client) return cli::fail(client.error());

  if (args.has("attach")) {
    if (const auto s = client->hello_attach(static_cast<std::uint64_t>(*attach_id)); !s.ok()) {
      return cli::fail(s.error());
    }
  }

  if (args.has("ingest")) {
    auto reader = trace::TraceReader::open(args.get("ingest"));
    if (!reader) return cli::fail_load(args.get("ingest"), reader.error());
    const auto bundle = reader->read_all();
    if (!bundle) return cli::fail_load(args.get("ingest"), bundle.error());
    if (!args.has("attach")) {
      const auto s = client->hello_create(bundle->trace.stacks, bundle->trace.functions,
                                          bundle->modules, bundle->trace.sample_rate_hz);
      if (!s.ok()) return cli::fail(s.error());
    }
    const auto s = client->ingest_events(bundle->trace.events,
                                         static_cast<std::size_t>(*block_events));
    if (!s.ok()) return cli::fail(s.error());
  }

  std::printf("session %llu\n", static_cast<unsigned long long>(client->session_id()));

  if (args.has("query")) {
    advisor::AdvisorConfig config;
    if (args.has("config")) {
      const auto file = Config::load(args.get("config"));
      if (!file) return cli::fail(file.error());
      auto parsed = advisor::AdvisorConfig::from_config(*file);
      if (!parsed) return cli::fail(parsed.error());
      config = std::move(*parsed);
    } else {
      config = advisor::AdvisorConfig::dram_pmem(args.get_bytes("dram-limit", 12ull << 30),
                                                 args.get_double("store-coef", 0.0));
    }
    auto report = client->query(config, args.has("bandwidth-aware"),
                                args.get_double("peak-pmem-bw", 0.0));
    if (!report) return cli::fail(report.error());
    if (const int rc = write_text(args.get("query"), report->text); rc != 0) return rc;
    std::printf("report at epoch %llu (%llu events) -> %s\n",
                static_cast<unsigned long long>(report->epoch),
                static_cast<unsigned long long>(report->events_analyzed),
                args.get("query").c_str());
  }

  if (args.has("csv")) {
    auto snap = client->snapshot_csv();
    if (!snap) return cli::fail(snap.error());
    if (const int rc = write_text(args.get("csv"), snap->csv); rc != 0) return rc;
    std::printf("site csv at epoch %llu -> %s\n",
                static_cast<unsigned long long>(snap->epoch), args.get("csv").c_str());
  }

  if (args.has("stats")) {
    auto stats = client->stats();
    if (!stats) return cli::fail(stats.error());
    std::printf("session %llu: epoch %llu, blocks %llu accepted / %llu dropped, "
                "events %llu/%llu, queue %u, clients %u%s%s\n",
                static_cast<unsigned long long>(stats->session_id),
                static_cast<unsigned long long>(stats->epoch),
                static_cast<unsigned long long>(stats->blocks_accepted),
                static_cast<unsigned long long>(stats->blocks_dropped),
                static_cast<unsigned long long>(stats->events_seen),
                static_cast<unsigned long long>(stats->events_declared),
                stats->queue_depth, stats->attached_clients,
                stats->poisoned != 0 ? ", poisoned: " : "",
                stats->poisoned != 0 ? stats->error.c_str() : "");
  }

  if (const auto s = client->bye(args.has("bye-close")); !s.ok()) return cli::fail(s.error());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv, {"bandwidth-aware", "stats", "bye-close", "help"});
  if (args.has("help")) {
    std::printf(
        "usage: ecohmem-serve --listen <socket> [--max-sessions N] [--queue-blocks N]\n"
        "                     [--max-frame-bytes N]\n"
        "       ecohmem-serve --connect <socket> (--ingest <trace.trc> | --attach ID)\n"
        "                     [--block-events N] [--query <report.txt>]\n"
        "                     [--config <advisor.ini>] [--dram-limit 12GB]\n"
        "                     [--store-coef 0.125] [--bandwidth-aware]\n"
        "                     [--peak-pmem-bw GBS] [--csv <sites.csv>] [--stats]\n"
        "                     [--bye-close]\n"
        "  Server mode drains gracefully on SIGTERM/SIGINT. The wire protocol\n"
        "  is specified in docs/serving.md.\n");
    return 0;
  }
  if (args.has("listen") == args.has("connect")) {
    return cli::fail_usage("pass exactly one of --listen <socket> (server) or "
                           "--connect <socket> (client); see --help");
  }
  const std::string mode_flag = args.has("listen") ? "listen" : "connect";
  if (const auto s = cli::validate_socket_path(mode_flag, args.get(mode_flag)); !s.ok()) {
    return cli::fail_usage(s.error());
  }
  return args.has("listen") ? run_server(args) : run_client(args);
}
