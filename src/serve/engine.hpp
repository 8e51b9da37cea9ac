// serve::Engine — the serving-mode SLO harness.
//
// One long-lived run: a churn thread streams an UpdateTrace into the BGP
// fabric, batch by batch, while N resolver threads concurrently probe the
// viewpoint FIBs and record per-probe resolution latency into HDR-style
// obs::LatencyRecorder shards.  Resolvers call egress_pop the whole time and
// are never blocked: a lookup is one acquire load of the viewpoint's live
// FIB plus a probe, and the FIB is published by the convergence that ends
// each fault and each batch.  The run yields two ladders — resolve latency
// (ns, every probe) and publish latency (µs, from a batch's first applied
// event to the end of the convergence that made it live).
//
// A publish brings each viewpoint's standby FIB copy up to date before
// swapping it in, and the standby is the copy the previous publish retired.
// So after every call that can publish, the churn thread waits until each
// resolver has finished the probe it was in (a per-resolver quiescent
// counter, odd while a probe is in flight): from then on no reader holds a
// retired copy, and the next publish may rewrite it.  A resolver sleeping
// between paced probes is already quiescent.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "core/vns_network.hpp"
#include "obs/latency.hpp"
#include "serve/update_trace.hpp"

namespace vns::serve {

struct EngineConfig {
  int resolver_threads = 4;
  /// Total dwell budget in seconds, spread evenly across the trace's
  /// batches; pacing only — the schedule itself is event-count driven, so
  /// the fabric trajectory is identical whatever the duration.
  double duration_s = 0.0;
  /// Per-resolver probe rate; 0 probes unthrottled.
  double qps = 0.0;
  std::uint64_t seed = 1;  ///< resolver target/viewpoint pick stream
  /// Emit a JSONL heartbeat every N batches to `heartbeat_out` (0 = off).
  std::uint64_t heartbeat_every = 4;
  std::ostream* heartbeat_out = nullptr;
};

/// Everything one serving run measured — the `slo` block of the bench JSON.
struct SloReport {
  obs::LatencySnapshot resolve_ns;  ///< every probe's egress_pop latency
  /// Per batch with an applied event: µs from its first applied event to
  /// the end of the convergence that published it.
  obs::LatencySnapshot publish_us;
  std::uint64_t probes = 0;
  std::uint64_t batches = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t fib_patches = 0;        ///< FIB copies caught up by patch
  std::uint64_t fib_full_rebuilds = 0;  ///< ... by from-scratch compile
  double wall_seconds = 0.0;

  /// One JSON object (no trailing newline) — embedded as `"slo": {...}`.
  [[nodiscard]] std::string to_json() const;
};

class Engine {
 public:
  Engine(core::VnsNetwork& vns, EngineConfig config)
      : vns_(vns), config_(std::move(config)) {}

  /// Applies the trace batch-by-batch under resolver load and returns the
  /// merged report.  The fabric ends in the same state as a single-threaded
  /// replay of the same trace (latency samples are wall-clock and differ).
  SloReport run(const UpdateTrace& trace);

 private:
  /// Applies one event; true when it changed the network.  Fault events
  /// converge (and so publish) before returning.
  bool apply(const UpdateEvent& event);

  core::VnsNetwork& vns_;
  EngineConfig config_;
};

/// Canonical rendering of the full fabric state (every Loc-RIB plus every
/// per-neighbor export table, sorted) — the byte-comparison anchor of the
/// record→replay determinism contract.
[[nodiscard]] std::string dump_fabric_state(const bgp::Fabric& fabric);

}  // namespace vns::serve
