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

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/igp.hpp"
#include "bgp/router.hpp"
#include "bgp/types.hpp"
#include "obs/trace.hpp"

namespace vns::bgp {

/// Fixed shard fan-out of the convergence walk.  Each frontier batch is
/// bucketed by prefix hash into this many shards and delivered shard-major,
/// sequence order within a shard.  The partition now fixes only that walk
/// order — and with it every trace event, emission order and delta-log
/// entry — so changing it would change traces.
inline constexpr std::size_t kConvergenceShards = 64;

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
  /// batches: each iteration takes everything currently queued, buckets it
  /// by prefix hash into kConvergenceShards shards and delivers the shards
  /// in order 0..N-1, each in sequence order, on the calling thread;
  /// emissions form the next batch.  The partition fixes only this walk
  /// order, so traces, emissions and the RIB-delta log are a pure function
  /// of the starting queue.  Returns the number of messages consumed;
  /// throws std::runtime_error (with diagnostics: messages delivered, queue
  /// depth, hottest queued prefixes) if the next batch would exceed
  /// `max_messages` (a non-converging configuration).  The budget check is
  /// batch-atomic — a batch either runs in full or not at all, leaving the
  /// frontier intact.  Every successful return, even one that processed no
  /// message, ends by calling the on-converged callback; a run that throws
  /// does not call it.
  std::size_t run_to_convergence(std::size_t max_messages = 20'000'000);

  /// The post-convergence hook: the owner of the fabric's data plane
  /// (core::VnsNetwork) publishes its FIBs from here, so any caller of
  /// run_to_convergence — the network's own mutators or code driving the
  /// fabric directly — leaves the published FIBs at the converged state.
  /// One callback per fabric; an internal API, not a configuration knob.
  void set_on_converged(std::function<void()> callback) {
    on_converged_ = std::move(callback);
  }

  [[nodiscard]] bool converged() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t messages_delivered() const noexcept { return delivered_; }
  /// Messages discarded in flight because their target session was down.
  [[nodiscard]] std::size_t messages_dropped() const noexcept { return dropped_; }

  // --- observability --------------------------------------------------------
  /// Attaches (or detaches, with nullptr) a trace sink.  The fabric stamps
  /// every recorded event with its logical clock — one tick per external
  /// announce/withdraw/originate, per fault operation, and per convergence
  /// *batch* (every message of one frontier iteration shares a tick) — so
  /// traces are reproducible byte-for-byte.  Every event's queue_depth is
  /// stamped *after* the triggering emissions are enqueued (announce/
  /// withdraw/fault events used to under-report by stamping first); a
  /// delivery's depth also counts its batch's undelivered messages.
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
    /// mutations in call order; convergence deliveries in shard-major walk
    /// order, same as trace events).  May repeat a (router, prefix) pair;
    /// consumers deduplicate.  The span aliases the fabric's internal log:
    /// it is invalidated by the next mutating fabric call.
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

  void enqueue(std::vector<Emission> emissions);
  /// Every live router's SPF distance row (empty for a router that is
  /// down), copied before a fault touches the IGP.
  [[nodiscard]] std::vector<std::vector<IgpMetric>> live_igp_rows() const;
  /// Queues the IGP-change hook of every live router, in router-id order,
  /// handing each its row from `before` (a live_igp_rows snapshot).
  void notify_igp_change(const std::vector<std::vector<IgpMetric>>& before);
  [[nodiscard]] std::string convergence_diagnostics(std::size_t pending) const;

  /// Records a trace event stamped with the logical clock and current queue
  /// depth (queued messages plus the batch's undelivered ones); no-op (one
  /// branch) when no sink is attached.
  void trace_event(obs::TraceEventKind kind, std::uint32_t a, std::uint32_t b,
                   const net::Ipv4Prefix& prefix = net::Ipv4Prefix{});
  /// Copies `target`'s current best route for `prefix` (tracing only).
  [[nodiscard]] std::optional<Route> capture_best(const Router& target,
                                                  const net::Ipv4Prefix& prefix) const;
  /// Records kLocRibChanged when the best route differs from `before`.
  void trace_rib_change(const Router& target, const net::Ipv4Prefix& prefix,
                        const std::optional<Route>& before);
  /// Delivers one emission of the current batch: records an export, hands
  /// an update to its target router, or drops it if the session is down.
  void deliver(const Emission& emission);

  net::Asn local_asn_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<NeighborInfo> neighbors_;
  IgpTopology igp_;
  std::deque<Emission> queue_;
  /// Messages of the running batch not yet delivered (0 between batches).
  std::size_t batch_pending_ = 0;
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;
  /// Export sink per neighbor (what the neighbor has been sent).
  std::vector<std::unordered_map<net::Ipv4Prefix, Route>> neighbor_exports_;
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
};

}  // namespace vns::bgp
