// The three closed-loop workloads.  One client thread issues each request
// only after the previous one completed; the pools the library runs
// internally use worker_count() lanes.
//
// Every workload reports every end-to-end metric, so every workload runs
// every request class; what sets them apart is how the run's time is split
// between the classes:
//
//   serve rounds    one small flap batch, then every PoP resolves its
//                   active-call destinations (a slice of reads), then a
//                   batch of call setups: the read side of the lazy FIB
//                   refresh (resolve_rate, call_p90_us).
//   flap blocks     batches of route flaps on upstream sessions, each
//                   converged and followed by the first read at every PoP:
//                   the write side of the same FIB cache (flap_p50_ms,
//                   flap_p99_ms).
//   failover pass   every PoP link and two upstream sessions failed and
//                   repaired, one event per update (failover_p50_ms).
//                   The same fixed pass in every workload, spread evenly
//                   over the run.
//   campaign rounds Fig-9-style streaming sessions, Fig-12-style probe
//                   trains, and a week of hourly traffic-engineering passes
//                   (sessions_per_s, probe_rounds_per_s, te_passes_per_s).
//
//   serve_paper     read-mostly: half the time outside the failover pass
//                   goes to serve rounds, a quarter each to flaps and
//                   campaigns.
//   churn_paper     write-heavy: half to flap blocks, a quarter each to
//                   serve rounds and campaigns.
//   campaign_paper  measurement: half to campaign rounds, a quarter each to
//                   serve rounds and flaps.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What a workload measured.  In a traced run each request class
/// alternates traced and untraced blocks; `end_to_end` always comes from
/// untraced requests and `end_to_end_traced` from the traced ones.
struct Outcome {
  std::uint64_t attempted = 0;  ///< verified operations issued
  std::uint64_t failed = 0;     ///< operations whose verification failed
  std::uint64_t answers_checked = 0;
  std::uint64_t answers_wrong = 0;
  Report end_to_end;
  Report end_to_end_traced;
  Report per_layer;
  /// Tracing overhead on the request latency of the workload's main class:
  /// traced median over untraced median, minus one, in percent.
  double overhead_pct = 0.0;
  std::vector<std::pair<std::string, double>> notes;  ///< artifact-only diagnostics
};

[[nodiscard]] bool known_workload(std::string_view name) noexcept;
/// Sets the world up kSetupRepeats times (setup_world) and runs a share of
/// the workload on each world built.
[[nodiscard]] Outcome run_workload(World& world, const RunConfig& config, Tracer& tracer);
/// The end-to-end metric a span's layer feeds, for the per-layer table.
[[nodiscard]] std::string feeds_of(const std::string& span);

}  // namespace perfbench
