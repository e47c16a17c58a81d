#pragma once

/// \file engine.hpp
/// The execution engine: replays a workload under an execution mode and
/// produces run metrics.
///
/// Per kernel step the engine solves a fixed point (DESIGN.md §5, D1):
/// the step duration T determines per-tier bandwidth demand, which
/// determines access latency via the tier curves, which determines stall
/// time, which determines T. Damped iteration converges in a handful of
/// rounds. Bandwidth ceilings additionally bound T from below
/// (a step cannot move more bytes than the tiers can deliver).
///
/// Stall model: load misses stall the pipeline for latency/MLP each
/// (MLP = overlapped outstanding misses, a workload property); store
/// traffic stalls through store-buffer backpressure with a configurable
/// weight — small for DRAM, but significant when PMem write bandwidth
/// saturates (§V's motivation for store-aware heuristics).
///
/// Replay is serial: one thread walks the steps in program order. With
/// an online policy attached, the engine samples each kernel's misses,
/// plans migrations at kernel boundaries and applies them at the next
/// one (docs/online.md).

#include "ecohmem/common/expected.hpp"
#include "ecohmem/memsim/analytic_cache.hpp"
#include "ecohmem/memsim/tier.hpp"
#include "ecohmem/runtime/metrics.hpp"
#include "ecohmem/runtime/mode.hpp"
#include "ecohmem/runtime/observer.hpp"
#include "ecohmem/runtime/workload.hpp"

namespace ecohmem::online {
struct OnlinePolicyConfig;
}  // namespace ecohmem::online

namespace ecohmem::runtime {

struct GuidanceSeed;

struct EngineOptions {
  /// Total LLC capacity available to the job (two sockets on the paper's
  /// node).
  Bytes llc_bytes = 2ull * 36 * 1024 * 1024;

  /// Bandwidth timeline bin width.
  Ns bw_bin_ns = 10'000'000;  // 10 ms

  /// Store-stall weight (fraction of write latency that reaches the
  /// pipeline through store-buffer backpressure; writes mostly drain in
  /// the background, so bandwidth floors — not store stalls — carry most
  /// of the write cost).
  double store_stall_weight = 0.05;

  int max_fixed_point_iters = 100;
  double convergence = 1e-7;

  /// Optional observation hook (profiler).
  ExecutionObserver* observer = nullptr;

  /// Opt-in online placement (docs/online.md): the engine samples each
  /// kernel's misses, tracks per-object hotness, and applies the
  /// policy's promote/demote migrations at kernel boundaries, charging
  /// their cost into the clock and the bandwidth meters. Requires a
  /// mode with `supports_object_migration()` and no observer attached
  /// (profiling runs and online placement are mutually exclusive). The
  /// pointed-to config must outlive the run.
  const online::OnlinePolicyConfig* online_policy = nullptr;

  /// Optional guidance seeding for the online policy (`--from-report`,
  /// docs/online.md): per-site tier guidance matched from an Advisor
  /// report. Objects born at fast-guided sites start with mature
  /// hotness history, and live fast-guided objects stranded in slow
  /// tiers are queued for promotion at the first policy evaluation.
  /// Ignored without `online_policy`; must outlive the run.
  const GuidanceSeed* guidance = nullptr;
};

class ExecutionEngine {
 public:
  ExecutionEngine(const memsim::MemorySystem* system, EngineOptions options = {});

  /// Replays `workload` under `mode`. Fails on inconsistent workloads,
  /// unrecoverable allocation failures (fallback tier exhausted), or an
  /// unsupported online-placement configuration.
  [[nodiscard]] Expected<RunMetrics> run(const Workload& workload, ExecutionMode& mode);

  [[nodiscard]] const EngineOptions& options() const { return options_; }

 private:

  const memsim::MemorySystem* system_;
  EngineOptions options_;
};

/// Convenience: solve one kernel's duration given per-tier byte totals and
/// the latency recipe. Exposed for unit tests of the fixed point.
struct KernelSolution {
  double duration_ns = 0.0;
  double load_stall_ns = 0.0;
  double store_stall_ns = 0.0;
  double bw_floor_ns = 0.0;
  std::vector<double> tier_read_latency_ns;   ///< converged per-tier values
  std::vector<double> tier_write_latency_ns;
  std::vector<double> object_load_latency_ns;  ///< per object
  int iterations = 0;
};

[[nodiscard]] KernelSolution solve_kernel_fixed_point(
    const memsim::MemorySystem& system, const std::vector<ObjectTraffic>& traffic,
    const std::vector<memsim::KernelObjectMisses>& misses, double compute_ns, double mlp,
    const EngineOptions& options);

}  // namespace ecohmem::runtime
