// A BGP-speaking router inside the modelled AS.
//
// Implements the pieces of a production BGP daemon that the paper's design
// depends on (§3.2):
//   - Adj-RIB-In per session, Loc-RIB, Adj-RIB-Out with implicit-withdraw
//     delta suppression;
//   - the RFC-4271 decision process (see decision.hpp), with the hot-potato
//     IGP tie-break fed by the AS's IGP topology;
//   - standard iBGP propagation rules (eBGP-learned routes only) and route
//     reflection with client/non-client semantics and sender split-horizon;
//   - the `best external` feature [13]: a border router keeps advertising
//     its best eBGP-learned route over iBGP even when its overall best is an
//     iBGP route — the fix the paper deploys against hidden routes;
//   - pluggable import policy, which is where the geo-RR modification lives
//     (vns::core::GeoRouteReflector installs it), and a Gao-Rexford-shaped
//     default export policy toward external neighbors;
//   - NO_EXPORT / NO_ADVERTISE community handling;
//   - session liveness: sessions can go down and come back
//     (`handle_session_down` / `handle_session_up`), flushing and rebuilding
//     the per-session RIBs, and `handle_igp_change` re-runs the decision for
//     exactly the prefixes whose outcome an IGP change can move.
//
// Routers do not talk to each other directly: handle_*() returns the updates
// to emit and the Fabric delivers them (deterministic FIFO).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/decision.hpp"
#include "bgp/igp.hpp"
#include "bgp/types.hpp"
#include "util/arena.hpp"

namespace vns::bgp {

/// Where a route in an Adj-RIB-In came from.
enum class SessionKind : std::uint8_t { kIbgp, kEbgp, kLocal };

/// Key identifying one RIB-in slot: session kind + peer id.
struct SessionKey {
  SessionKind kind = SessionKind::kLocal;
  std::uint32_t id = 0;  ///< RouterId for iBGP, NeighborId for eBGP, 0 local

  [[nodiscard]] std::uint64_t packed() const noexcept {
    return (std::uint64_t{static_cast<std::uint8_t>(kind)} << 32) | id;
  }
  friend bool operator==(const SessionKey&, const SessionKey&) = default;
};

/// Context handed to import policies.
struct ImportContext {
  RouterId receiver = kInvalidRouter;
  SessionKind session = SessionKind::kLocal;
  NeighborId neighbor = kNoNeighbor;       ///< eBGP only
  NeighborKind neighbor_kind = NeighborKind::kUpstream;
  RouterId sender = kInvalidRouter;        ///< iBGP only
  bool sender_is_client = false;           ///< iBGP only, from the RR's view
};

/// Import policy: may mutate the route (e.g. set LOCAL_PREF); returning
/// false rejects it from consideration.  Must be a pure function of
/// (context, route) so that policy refresh is idempotent.
using ImportPolicy = std::function<bool(const ImportContext&, Route&)>;

/// Export decision toward an external neighbor.
using ExportPolicy = std::function<bool(const Route&, NeighborId, NeighborKind)>;

/// One Loc-RIB change: router `router`'s best route for `prefix` changed
/// (installed, replaced, or withdrawn).  The RIB-delta protocol: handlers
/// append these to a caller-provided sink whenever decide_and_advertise
/// actually changes the Loc-RIB, the Fabric accumulates them in a log, and
/// FIB owners (core::VnsNetwork, via Fabric::rib_deltas_since) patch only
/// the covered slots instead of recompiling.  Deltas may repeat a
/// (router, prefix) pair; consumers deduplicate.
struct RibDelta {
  RouterId router = kInvalidRouter;
  net::Ipv4Prefix prefix;

  friend bool operator==(const RibDelta&, const RibDelta&) = default;
};

/// An update emitted by a router, to be delivered by the Fabric.
struct Emission {
  RouterId from = kInvalidRouter;
  /// Target iBGP peer, or kInvalidRouter when targeting an eBGP neighbor.
  RouterId to_router = kInvalidRouter;
  NeighborId to_neighbor = kNoNeighbor;
  bool withdraw = false;
  Route route;  ///< for withdraw, only `prefix` is meaningful
};

/// Descriptor of one external (eBGP) neighbor attachment.
struct NeighborInfo {
  NeighborId id = kNoNeighbor;
  net::Asn asn = 0;
  NeighborKind kind = NeighborKind::kUpstream;
  RouterId attached_to = kInvalidRouter;
  std::string name;
};

/// One configured iBGP session, with liveness.
struct IbgpSession {
  RouterId peer;
  bool peer_is_client;  ///< from this router's perspective as an RR
  bool up = true;
};

/// One configured eBGP session, with liveness.
struct EbgpSession {
  NeighborInfo info;
  bool up = true;
};

class Router {
 public:
  /// Per-prefix RIB map backed by this router's bump arena: every node a
  /// convergence run inserts or erases goes through the router-local
  /// freelists instead of the global heap (see util::Arena).  Only the
  /// thread driving the fabric mutates the RIBs, which is exactly the
  /// arena's single-owner contract.
  template <typename T>
  using PrefixMap =
      std::unordered_map<net::Ipv4Prefix, T, std::hash<net::Ipv4Prefix>,
                         std::equal_to<net::Ipv4Prefix>,
                         util::ArenaAllocator<std::pair<const net::Ipv4Prefix, T>>>;
  using LocRib = PrefixMap<Route>;

  Router(RouterId id, std::string name, net::Asn local_asn);

  [[nodiscard]] RouterId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // --- configuration -------------------------------------------------------
  void set_route_reflector(bool value) noexcept { is_route_reflector_ = value; }
  [[nodiscard]] bool is_route_reflector() const noexcept { return is_route_reflector_; }
  void set_advertise_best_external(bool value) noexcept { best_external_ = value; }
  void set_import_policy(ImportPolicy policy) { import_policy_ = std::move(policy); }
  void set_export_policy(ExportPolicy policy) { export_policy_ = std::move(policy); }
  void set_igp(const IgpTopology* igp) noexcept { igp_ = igp; }

  void add_ibgp_session(RouterId peer, bool peer_is_client);
  void add_ebgp_session(const NeighborInfo& neighbor);

  // --- event handlers (called by Fabric); return updates to deliver --------
  // Every handler that can change the Loc-RIB takes an optional `dirty`
  // sink and appends one RibDelta per prefix whose best route actually
  // changed (detected structurally, not per-call: a delivery that re-decides
  // to the same answer stays silent).  nullptr skips the bookkeeping.
  [[nodiscard]] std::vector<Emission> handle_ebgp_update(const NeighborInfo& neighbor,
                                                         bool withdraw, Route route,
                                                         std::vector<RibDelta>* dirty = nullptr);
  [[nodiscard]] std::vector<Emission> handle_ibgp_update(RouterId sender, bool withdraw,
                                                         Route route,
                                                         std::vector<RibDelta>* dirty = nullptr);
  /// Locally originates a prefix (e.g. the VNS anycast TURN prefix).
  [[nodiscard]] std::vector<Emission> originate(const net::Ipv4Prefix& prefix,
                                                Attributes attrs,
                                                std::vector<RibDelta>* dirty = nullptr);
  /// Re-runs import policy + decision for every known prefix (the BGP
  /// route-refresh analog; used when a policy changes, §4.2's before/after).
  [[nodiscard]] std::vector<Emission> refresh_all(std::vector<RibDelta>* dirty = nullptr);

  /// Session loss: marks the session down, flushes its Adj-RIB-In and
  /// Adj-RIB-Out (the per-session prefix index *is* the Adj-RIB-In), and
  /// re-decides exactly the prefixes that session contributed, in prefix
  /// order.  No-op (empty result) when the session is unknown/already down.
  [[nodiscard]] std::vector<Emission> handle_session_down(const SessionKey& key,
                                                          std::vector<RibDelta>* dirty = nullptr);
  /// Session recovery: marks the session up and re-advertises this router's
  /// current state over it (the peer lost everything with the session).
  /// Never mutates the Loc-RIB, so it takes no dirty sink.
  [[nodiscard]] std::vector<Emission> handle_session_up(const SessionKey& key);
  /// IGP churn.  `before` is this router's SPF distance row
  /// (IgpTopology::distances) from before the change.  The decision reads
  /// the IGP only through that row, so an unchanged row re-decides nothing.
  /// When some router became reachable or unreachable from this one,
  /// candidates() may gain or lose routes: every IGP-dependent prefix (a tie
  /// at the IGP rung or below, or a candidate filtered for an unresolvable
  /// next hop) and every prefix whose best egress became unreachable is
  /// re-decided.  Otherwise only the prefixes whose tie set's pairwise
  /// metric order moved are.
  [[nodiscard]] std::vector<Emission> handle_igp_change(std::span<const IgpMetric> before,
                                                        std::vector<RibDelta>* dirty = nullptr);

  // --- inspection ----------------------------------------------------------
  [[nodiscard]] bool session_is_up(SessionKind kind, std::uint32_t id) const noexcept;
  [[nodiscard]] std::span<const IbgpSession> ibgp_sessions() const noexcept {
    return ibgp_sessions_;
  }
  [[nodiscard]] std::span<const EbgpSession> ebgp_sessions() const noexcept {
    return ebgp_sessions_;
  }
  [[nodiscard]] const Route* best_route(const net::Ipv4Prefix& prefix) const noexcept;
  /// Re-derives the best-path decision for `prefix` with full provenance:
  /// the winner, every eliminated candidate with the rung and margin that
  /// killed it, and the decisive rung against the strongest runner-up.  The
  /// decision is a pure function of RIB state, so this is exact — and free
  /// until called (the forwarding path stores nothing extra).
  [[nodiscard]] DecisionTrace explain(const net::Ipv4Prefix& prefix) const;
  [[nodiscard]] const LocRib& loc_rib() const noexcept { return loc_rib_; }
  /// Last route advertised to an eBGP neighbor (empty when withdrawn/none).
  [[nodiscard]] const Route* advertised_to_neighbor(NeighborId neighbor,
                                                    const net::Ipv4Prefix& prefix) const noexcept;
  /// Best route among this router's own eBGP-learned candidates, regardless
  /// of what the overall best is.  This is what a probe "forced out of the
  /// AS immediately at this router" (§4.1) would follow.  `only_kind`
  /// restricts to sessions of one business relationship (e.g. upstreams).
  [[nodiscard]] std::optional<Route> best_local_exit(
      const net::Ipv4Prefix& prefix, std::optional<NeighborKind> only_kind = std::nullopt) const {
    const Route* route = best_external_candidate(prefix, only_kind);
    if (route == nullptr) return std::nullopt;
    return *route;
  }
  /// Raw (pre-policy) Adj-RIB-In entry count, for diagnostics.
  [[nodiscard]] std::size_t rib_in_size() const noexcept;
  /// Prefixes currently tracked as IGP-dependent (diagnostics/tests).
  [[nodiscard]] std::size_t igp_dependent_count() const noexcept {
    return igp_dependent_.size();
  }
  /// Footprint of this router's RIB arena (benches aggregate per fabric).
  [[nodiscard]] util::Arena::Stats rib_arena_stats() const noexcept {
    return rib_arena_.stats();
  }

 private:
  /// One Adj-RIB-In slot: the route exactly as received, plus the cached
  /// post-import-policy view.  The cache is recomputed at receipt time and
  /// on refresh_all (the route-refresh analog) — policies are pure functions
  /// of (context, route), so decision-time re-evaluation would only repeat
  /// the same work; caching it is what lets candidates() hand out views.
  struct RibInEntry {
    Route raw;
    std::optional<Route> accepted;  ///< nullopt = rejected by import policy
  };

  /// Per-prefix advertisement plan shared across every session of one
  /// sync round: the reflected / best-external / eBGP-export values are
  /// computed (and their attributes interned) at most once per prefix, then
  /// every receiving session copies the same flyweight.
  struct AdvertisePlan {
    const Route* best = nullptr;       ///< loc-RIB entry
    const Route* ibgp_best = nullptr;  ///< best after the NO_ADVERTISE screen
    bool learned_from_client = false;  ///< RR bookkeeping for ibgp_best
    bool reflected_ready = false;
    std::optional<Route> reflected;    ///< ibgp_best + ORIGINATOR_ID/CLUSTER_LIST
    bool external_ready = false;
    std::optional<Route> external;     ///< best-external fallback for iBGP
    bool exported_ready = false;
    std::optional<Route> exported;     ///< eBGP export value (prepended path)
  };

  /// Applies the import policy; returns the post-policy route or nullopt.
  [[nodiscard]] std::optional<Route> import(const SessionKey& key, const Route& raw) const;
  /// The cached post-policy route one session contributes for a prefix, or
  /// nullptr (unknown session / unknown prefix / rejected by policy).
  [[nodiscard]] const Route* accepted_from(const SessionKey& key,
                                           const net::Ipv4Prefix& prefix) const noexcept;
  /// All post-policy candidates for a prefix, as views into the cached
  /// Adj-RIB-In entries (zero-copy).  Candidates whose NEXT_HOP (egress
  /// router) is IGP-unreachable are unusable (RFC 4271 §9.1.2) and dropped;
  /// `dropped_unreachable_out` reports that any were.
  [[nodiscard]] std::vector<const Route*> candidates(
      const net::Ipv4Prefix& prefix, bool* dropped_unreachable_out = nullptr) const;
  /// Best eBGP-learned candidate only (for best-external advertisement);
  /// a view into the Adj-RIB-In, or nullptr.
  [[nodiscard]] const Route* best_external_candidate(
      const net::Ipv4Prefix& prefix,
      std::optional<NeighborKind> only_kind = std::nullopt) const;

  /// Re-runs the decision process for a prefix and emits the deltas; when
  /// the Loc-RIB entry actually changed and `dirty` is non-null, appends
  /// one RibDelta for this (router, prefix).
  void decide_and_advertise(const net::Ipv4Prefix& prefix, std::vector<Emission>& out,
                            std::vector<RibDelta>* dirty = nullptr);
  /// Emits (with suppression) the route this router should currently be
  /// advertising to each *up* session for `prefix`.
  void sync_adj_rib_out(const net::Ipv4Prefix& prefix, std::vector<Emission>& out);
  /// Same, toward one specific session, sharing the round's plan.
  void sync_session(const net::Ipv4Prefix& prefix, const IbgpSession& session,
                    AdvertisePlan& plan, std::vector<Emission>& out);
  void sync_session(const net::Ipv4Prefix& prefix, const EbgpSession& session,
                    AdvertisePlan& plan, std::vector<Emission>& out);
  /// Flips a session's liveness; returns false when unknown or unchanged.
  bool mark_session(const SessionKey& key, bool up) noexcept;

  [[nodiscard]] AdvertisePlan make_plan(const net::Ipv4Prefix& prefix) const;
  /// The route (if any) to advertise over a given iBGP session right now;
  /// points into the plan or the loc-RIB (valid for the sync round).
  [[nodiscard]] const Route* route_for_ibgp_peer(const net::Ipv4Prefix& prefix,
                                                 const IbgpSession& session,
                                                 AdvertisePlan& plan) const;
  /// The route (if any) to advertise to a given eBGP neighbor right now.
  [[nodiscard]] const Route* route_for_neighbor(const NeighborInfo& neighbor,
                                                AdvertisePlan& plan) const;

  [[nodiscard]] ImportContext make_context(const SessionKey& key) const;

  /// Allocator handle for a PrefixMap<T> over this router's arena.
  template <typename T>
  [[nodiscard]] util::ArenaAllocator<std::pair<const net::Ipv4Prefix, T>> rib_alloc() noexcept {
    return util::ArenaAllocator<std::pair<const net::Ipv4Prefix, T>>{rib_arena_};
  }

  RouterId id_;
  std::string name_;
  net::Asn local_asn_;
  bool is_route_reflector_ = false;
  bool best_external_ = false;

  ImportPolicy import_policy_;
  ExportPolicy export_policy_;
  const IgpTopology* igp_ = nullptr;

  std::vector<IbgpSession> ibgp_sessions_;
  std::vector<EbgpSession> ebgp_sessions_;

  /// Declared before every arena-backed container below: members destruct
  /// in reverse order, so the maps drain their nodes back into a
  /// still-alive arena.
  util::Arena rib_arena_;
  /// Routes as received (+ cached post-policy view), keyed by packed
  /// session key then prefix.  The outer maps are plain-heap (a handful of
  /// sessions); the per-prefix inner maps are the hot, arena-backed ones.
  std::unordered_map<std::uint64_t, PrefixMap<RibInEntry>> adj_rib_in_;
  PrefixMap<Route> originated_{rib_alloc<Route>()};
  LocRib loc_rib_{rib_alloc<Route>()};
  /// Last advertisement per session (packed key) and prefix.
  std::unordered_map<std::uint64_t, PrefixMap<Route>> adj_rib_out_;
  /// Prefixes whose last decision an IGP change could move, each with the
  /// tie set its scan compared (empty when only a candidate dropped for an
  /// unreachable next hop put it here).  handle_igp_change revisits a subset.
  PrefixMap<TieSet> igp_dependent_{rib_alloc<TieSet>()};
};

/// Route equality for implicit-withdraw suppression: attributes + forwarding
/// context (not the advertiser bookkeeping).  The attribute compare is one
/// pointer compare thanks to interning — and because interning canonicalizes
/// community lists, a permuted community list is (correctly) the same
/// advertisement, not a spurious re-advertise.
[[nodiscard]] bool same_advertisement(const Route& a, const Route& b) noexcept;

}  // namespace vns::bgp
