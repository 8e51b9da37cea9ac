// The single-AS BGP fabric: owns the routers, the IGP topology, the external
// neighbor registry, and a deterministic FIFO message bus between them.
//
// The VNS overlay is "organized as a single Autonomous System" (§3.1); this
// class is that AS's control plane.  External neighbors (upstream transit
// providers and settlement-free peers attached at each PoP) are modelled as
// announcement sources and export sinks: the topo module decides what they
// announce, and the fabric records what VNS would announce back to them.
//
// The fabric is event-driven: after initial convergence, links, sessions and
// whole routers can fail and be restored (`fail_link` / `fail_session` /
// `fail_router` and their `restore_*` counterparts).  Each fault injects the
// resulting withdraw/update storm into the same FIFO; the caller decides
// when to `run_to_convergence`, so a schedule of faults replayed in the same
// order always produces the same message sequence and the same final state.
// Messages in flight toward a session that went down are dropped at delivery
// time, exactly as a TCP session teardown discards undelivered updates.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/igp.hpp"
#include "bgp/router.hpp"
#include "bgp/types.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace vns::bgp {

/// Fixed shard fan-out of the convergence engine.  Deliberately independent
/// of the thread knob: the shard walk order defines the frontier merge order,
/// so changing it would change traces.  64 keeps shards busy well past the
/// thread counts the contract is tested at (1..8) at negligible merge cost.
inline constexpr std::size_t kConvergenceShards = 64;

/// Per-fabric cumulative convergence-engine statistics (reset never; the
/// fabric is built once per world).  `shard_limit` is the fixed shard count —
/// it never varies with the thread knob, because the shard walk order defines
/// the deterministic frontier merge.
struct ConvergenceStats {
  std::uint64_t runs = 0;        ///< run_to_convergence calls that found work
  std::uint64_t messages = 0;    ///< messages consumed (delivered + dropped)
  std::uint64_t batches = 0;     ///< frontier iterations across all runs
  std::uint64_t shard_limit = 0;      ///< compile-time shard count
  std::uint64_t max_batch_messages = 0;   ///< largest single batch
  std::uint64_t max_shards_occupied = 0;  ///< peak non-empty shards in a batch
  std::uint64_t occupied_shard_sum = 0;   ///< Σ non-empty shards per batch
  double seconds = 0.0;          ///< wall-clock inside run_to_convergence

  [[nodiscard]] double messages_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(messages) / seconds : 0.0;
  }
  [[nodiscard]] double mean_shard_occupancy() const noexcept {
    return batches > 0 ? static_cast<double>(occupied_shard_sum) /
                             static_cast<double>(batches)
                       : 0.0;
  }
};

class Fabric {
 public:
  explicit Fabric(net::Asn local_asn) : local_asn_(local_asn) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] net::Asn local_asn() const noexcept { return local_asn_; }

  // --- topology construction ----------------------------------------------
  RouterId add_router(std::string name);
  [[nodiscard]] Router& router(RouterId id) { return *routers_.at(id); }
  [[nodiscard]] const Router& router(RouterId id) const { return *routers_.at(id); }
  [[nodiscard]] std::size_t router_count() const noexcept { return routers_.size(); }

  /// Aggregate RIB-arena accounting across every router in the fabric
  /// (bytes reserved in bump chunks, live bytes, freelist reuse counts).
  [[nodiscard]] util::Arena::Stats rib_arena_stats() const noexcept {
    util::Arena::Stats total;
    for (const auto& router : routers_) total += router->rib_arena_stats();
    return total;
  }

  [[nodiscard]] IgpTopology& igp() noexcept { return igp_; }
  [[nodiscard]] const IgpTopology& igp() const noexcept { return igp_; }
  /// Adds an IGP link; metric typically derives from link delay.
  void add_igp_link(RouterId a, RouterId b, IgpMetric metric) { igp_.add_link(a, b, metric); }

  /// Full iBGP peering between two ordinary routers.
  void add_ibgp_session(RouterId a, RouterId b);
  /// RR-client session: `rr` reflects routes learned from `client`.
  void add_rr_client_session(RouterId rr, RouterId client);

  NeighborId add_neighbor(RouterId attached_to, net::Asn asn, NeighborKind kind,
                          std::string name);
  [[nodiscard]] const NeighborInfo& neighbor(NeighborId id) const { return neighbors_.at(id); }
  [[nodiscard]] std::size_t neighbor_count() const noexcept { return neighbors_.size(); }

  // --- driving the control plane -------------------------------------------
  /// External neighbor announces a prefix to the router it attaches to.
  /// Throws std::logic_error when the session is down.
  void announce(NeighborId from, const net::Ipv4Prefix& prefix, Attributes attrs);
  /// Same, from an already-interned handle: a caller fanning one attribute
  /// set out over many prefixes/sessions (feed_attachment_routes) interns
  /// once and every delivered update shares the same immutable node.
  void announce(NeighborId from, const net::Ipv4Prefix& prefix, const AttrRef& attrs);
  void withdraw(NeighborId from, const net::Ipv4Prefix& prefix);
  /// A router originates a prefix locally (VNS anycast/service prefixes).
  void originate(RouterId at, const net::Ipv4Prefix& prefix, Attributes attrs);

  /// Re-applies import policies everywhere (route-refresh), e.g. after
  /// installing the geo policy on the RR; caller then runs convergence.
  void refresh_policies();

  // --- failure injection ----------------------------------------------------
  /// Fails the IGP link a–b and triggers the IGP-change hook on every live
  /// router with its pre-change SPF distance row, so each re-runs exactly
  /// the decisions the change can move (hot-potato re-tie-breaks, next-hop
  /// reachability re-checks).  Returns false when no such link is up.
  bool fail_link(RouterId a, RouterId b);
  /// Brings a failed IGP link back with its original metric.
  bool restore_link(RouterId a, RouterId b);
  /// Tears down the iBGP session a<->b: both sides flush the session's RIBs
  /// and re-decide the prefixes it contributed.  In-flight messages on the
  /// session are discarded.  Returns false when the session is unknown or
  /// already down.
  bool fail_session(RouterId a, RouterId b);
  bool restore_session(RouterId a, RouterId b);
  /// Tears down an eBGP session: the border router flushes the neighbor's
  /// routes, and everything exported to the neighbor dies with the session.
  bool fail_session(NeighborId neighbor_id);
  /// Re-opens an eBGP session: VNS re-advertises its exports; the *caller*
  /// replays the neighbor's announcements (a restored peer re-sends its
  /// table — the fabric does not remember it on the neighbor's behalf).
  bool restore_session(NeighborId neighbor_id);
  /// Whole-router outage: every session and IGP link of the router goes
  /// down.  restore_router brings back exactly what fail_router took down,
  /// so independently failed links/sessions stay down.
  void fail_router(RouterId id);
  void restore_router(RouterId id);
  [[nodiscard]] bool router_is_down(RouterId id) const { return router_down_.at(id); }

  /// Processes queued updates until quiescent, as a sequence of frontier
  /// batches: each iteration takes everything currently queued, partitions
  /// it by prefix hash into a fixed number of shards, processes the shards
  /// across the fabric's thread pool (per-prefix RIB updates are
  /// independent; per-router delivery serializes on the router's mutex), and
  /// merges the emitted frontier in stable shard-then-sequence order into
  /// the next batch.  The shard count and merge order never depend on the
  /// thread knob, so results — Loc-RIBs, exports, traces — are bit-identical
  /// for any `set_threads` value, including 1 (which runs the same batch
  /// algorithm inline).  Returns the number of messages consumed; throws
  /// std::runtime_error (with diagnostics: messages delivered, queue depth,
  /// hottest queued prefixes) if the next batch would exceed `max_messages`
  /// (a non-converging configuration).  The budget check is batch-atomic —
  /// a batch either runs in full or not at all — so budget exhaustion is
  /// also identical for every thread count.  Every successful return, even
  /// one that processed no message, ends by calling the on-converged
  /// callback; a run that throws does not call it.
  std::size_t run_to_convergence(std::size_t max_messages = 20'000'000);

  /// The post-convergence hook: the owner of the fabric's data plane
  /// (core::VnsNetwork) publishes its FIBs from here, so any caller of
  /// run_to_convergence — the network's own mutators or code driving the
  /// fabric directly — leaves the published FIBs at the converged state.
  /// One callback per fabric; an internal API, not a configuration knob.
  void set_on_converged(std::function<void()> callback) {
    on_converged_ = std::move(callback);
  }

  /// Convergence worker-lane count: `requested` resolves through
  /// util::resolve_thread_count (>0 as-is, else VNS_THREADS, else hardware).
  /// Purely a throughput knob — see run_to_convergence for the determinism
  /// contract.
  void set_threads(int requested);
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  [[nodiscard]] bool converged() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t messages_delivered() const noexcept { return delivered_; }
  /// Messages discarded in flight because their target session was down.
  [[nodiscard]] std::size_t messages_dropped() const noexcept { return dropped_; }
  /// Cumulative engine statistics across this fabric's convergence runs.
  [[nodiscard]] const ConvergenceStats& convergence_stats() const noexcept {
    return convergence_stats_;
  }

  // --- observability --------------------------------------------------------
  /// Attaches (or detaches, with nullptr) a trace sink.  The fabric stamps
  /// every recorded event with its logical clock — one tick per external
  /// announce/withdraw/originate, per fault operation, and per convergence
  /// *batch* (every message of one frontier iteration shares a tick; a
  /// per-message clock would depend on shard interleaving) — so traces are
  /// reproducible byte-for-byte for any thread count.  Every event's
  /// queue_depth is stamped *after* the triggering emissions are enqueued
  /// (announce/withdraw/fault events used to under-report by stamping
  /// first), replayed in deterministic merge order for batched deliveries.
  /// With no sink attached the only cost is a null check per event site.
  void set_trace(obs::TraceSink* sink) noexcept { trace_ = sink; }
  [[nodiscard]] obs::TraceSink* trace() const noexcept { return trace_; }
  [[nodiscard]] std::uint64_t logical_time() const noexcept { return logical_time_; }

  /// A consumer's view of the RIB-delta log (see rib_deltas_since).
  struct RibDeltas {
    /// False when the log was trimmed past `cursor` (consumer fell too far
    /// behind): `deltas` is empty and the consumer must rebuild from
    /// scratch, then resume from `next_cursor`.
    bool complete = true;
    /// Cursor to pass to the next rib_deltas_since call.
    std::uint64_t next_cursor = 0;
    /// Loc-RIB changes since `cursor`, in deterministic order (direct
    /// mutations in call order; convergence deliveries in shard-then-
    /// sequence merge order, same as trace events).  May repeat a
    /// (router, prefix) pair; consumers deduplicate.  The span aliases the
    /// fabric's internal log: it is invalidated by the next mutating
    /// fabric call.
    std::span<const RibDelta> deltas;
  };

  /// The RIB-delta protocol's consumer endpoint: every Loc-RIB change since
  /// log position `cursor`.  Pass 0 the first time, then the returned
  /// next_cursor.  The log is the fabric's one staleness signal: a consumer
  /// whose cursor equals the head has seen every change.  The log is
  /// bounded (kDeltaLogCap); a consumer that lags past a trim gets
  /// complete=false and falls back to a full rebuild.
  [[nodiscard]] RibDeltas rib_deltas_since(std::uint64_t cursor) const noexcept;

  // --- inspection -----------------------------------------------------------
  /// Everything VNS currently exports to an external neighbor.
  [[nodiscard]] const std::unordered_map<net::Ipv4Prefix, Route>& exported_to(
      NeighborId id) const;

 private:
  /// Links/sessions a fail_router took down, for exact restoration.
  struct DownedRouter {
    std::vector<std::pair<RouterId, RouterId>> links;
    std::vector<RouterId> ibgp_peers;
    std::vector<NeighborId> ebgp_neighbors;
  };

  /// One shard's worklist and outputs for a single frontier batch.  Shards
  /// never share mutable state with each other: emissions, tallies and
  /// staged trace events stay shard-local until the deterministic merge.
  struct ShardState {
    std::vector<Emission> work;
    std::vector<Emission> out;  ///< frontier this shard emitted, in order
    std::size_t delivered = 0;
    std::size_t dropped = 0;
    /// Staged trace events (when/queue_depth filled in at merge time) plus
    /// per-message high-water marks (events_end, out_end) so the merge can
    /// replay exactly the depths a one-lane run would have stamped.
    std::vector<obs::TraceEvent> events;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> marks;
    /// Loc-RIB changes this shard's deliveries caused, staged shard-locally
    /// and appended to delta_log_ in shard order at merge time (the same
    /// discipline that keeps trace events thread-count-identical).
    std::vector<RibDelta> dirty;
  };

  void enqueue(std::vector<Emission> emissions);
  /// Every live router's SPF distance row (empty for a router that is
  /// down), copied before a fault touches the IGP.
  [[nodiscard]] std::vector<std::vector<IgpMetric>> live_igp_rows() const;
  /// Queues the IGP-change hook of every live router, in router-id order,
  /// handing each its row from `before` (a live_igp_rows snapshot).
  void notify_igp_change(const std::vector<std::vector<IgpMetric>>& before);
  [[nodiscard]] std::string convergence_diagnostics(std::size_t pending) const;

  /// Records a trace event stamped with the logical clock and current queue
  /// depth; no-op (one branch) when no sink is attached.
  void trace_event(obs::TraceEventKind kind, std::uint32_t a, std::uint32_t b,
                   const net::Ipv4Prefix& prefix = net::Ipv4Prefix{});
  /// Copies `target`'s current best route for `prefix` (tracing only).
  [[nodiscard]] std::optional<Route> capture_best(const Router& target,
                                                  const net::Ipv4Prefix& prefix) const;
  /// Records kLocRibChanged when the best route differs from `before`.
  void trace_rib_change(const Router& target, const net::Ipv4Prefix& prefix,
                        const std::optional<Route>& before);
  /// Delivers one queued emission inside a shard: export-sink writes take a
  /// striped neighbor lock, router deliveries take the router's mutex.
  void process_emission(const Emission& emission, ShardState& shard);
  /// Lazily (re)builds the convergence pool for the current thread knob.
  [[nodiscard]] util::ThreadPool& convergence_pool();

  net::Asn local_asn_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<NeighborInfo> neighbors_;
  IgpTopology igp_;
  std::deque<Emission> queue_;
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;
  /// Export sink per neighbor (what the neighbor has been sent).
  std::vector<std::unordered_map<net::Ipv4Prefix, Route>> neighbor_exports_;
  /// Striped locks for the export sinks: emissions shard by prefix, so two
  /// shards can write the same neighbor's sink concurrently.
  std::array<std::mutex, 16> export_locks_;
  std::vector<bool> router_down_;
  std::unordered_map<RouterId, DownedRouter> downed_routers_;
  obs::TraceSink* trace_ = nullptr;  ///< not owned; null = tracing disabled
  std::uint64_t logical_time_ = 0;
  std::function<void()> on_converged_;
  /// RIB-delta log: every Loc-RIB change, in deterministic order.  Bounded:
  /// past kDeltaLogCap entries the log is cleared and delta_base_ advanced,
  /// which lagging consumers observe as complete=false (full rebuild).
  static constexpr std::size_t kDeltaLogCap = std::size_t{1} << 20;
  std::vector<RibDelta> delta_log_;
  std::uint64_t delta_base_ = 0;  ///< log position of delta_log_[0]
  unsigned threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;  ///< built on first convergence run
  ConvergenceStats convergence_stats_;
};

}  // namespace vns::bgp
