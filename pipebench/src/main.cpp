// pipebench: the pipeline benchmark's measuring program. Normally run
// through run.py, which builds it and validates its result line.
//
//   pipebench --workload app-pipeline|trace-advise|serve-stream
//             --seed N --seconds S --trace 0|1
//             [--root DIR] [--scratch DIR] [--spans FILE]
//             [--git HASH] [--source HASH]
//
// Prints host facts and the workload's own figures, then, as the last
// line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. End-to-end metrics with
// --trace 0. With --trace 1, every per-layer figure the run measured,
// by value only: run.py picks the declared ones and adds their units.
// Exit status 0 when the run completed (its correctness is in the
// JSON), 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

using namespace pipebench;

namespace {

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: pipebench --workload app-pipeline|trace-advise|serve-stream --seed N\n"
               "                 --seconds S --trace 0|1 [--root DIR] [--scratch DIR]\n"
               "                 [--spans FILE] [--git HASH] [--source HASH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  std::string git = "unknown";
  std::string source = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("--seed expects an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0.0)) {
        return usage("--seconds expects a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace expects 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--root") {
      config.root = value;
    } else if (flag == "--scratch") {
      config.scratch = value;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else if (flag == "--git") {
      git = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");

  RunResult (*run)(const RunConfig&) = nullptr;
  if (workload == "app-pipeline") run = run_app_pipeline;
  if (workload == "trace-advise") run = run_trace_advise;
  if (workload == "serve-stream") run = run_serve_stream;
  if (run == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  std::printf("# host nproc=%u compiler=\"%s\" build=%s git=%s source=%s\n",
              std::thread::hardware_concurrency(), compiler().c_str(), PIPEBENCH_BUILD_TYPE,
              git.c_str(), source.c_str());
  std::printf("# run workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, config.trace ? 1 : 0);
  std::fflush(stdout);

  const RunResult result = run(config);

  for (const auto& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const auto& [name, metric] : result.metrics) {
    std::printf("# %-28s %.6g %s\n", name.c_str(), metric.first, metric.second.c_str());
  }
  std::string json =
      format("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                            result.correct ? "true" : "false",
                            static_cast<unsigned long long>(result.attempted),
                            static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, metric] = result.metrics[i];
    json += format("%s%s: {\"value\": %.17g", i == 0 ? "" : ", ", json_string(name).c_str(),
                   metric.first);
    json += metric.second.empty() ? "}" : ", \"unit\": " + json_string(metric.second) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}
