// The Video Network Service (VNS): the paper's system.
//
// VnsNetwork assembles everything §3 describes on top of the substrates:
//   - a single AS with 11 PoPs on four continents (ATL/ASH/NYC/SJS,
//     AMS/FRA/LON/OSL, HK/SIN, SYD), each with its own border routers;
//   - guaranteed-bandwidth L2 links: a full mesh inside each regional
//     cluster plus a small set of long-haul inter-cluster links whose
//     termination points are chosen to avoid suboptimal internal routing;
//   - BGP externally (transit from Tier-1 LTPs, settlement-free peering with
//     networks co-located at each PoP), an IGP internally;
//   - the modified-Quagga route reflector implementing geo-based cold-potato
//     routing: LOCAL_PREF assigned from the great-circle distance between
//     the announcing egress PoP and the destination prefix's GeoIP location,
//     then re-advertised to every client except the sender;
//   - the `best external` fix for hidden routes;
//   - the management interface: force a different exit PoP, exempt a prefix
//     from geo-routing, or statically advertise a more-specific at the right
//     PoP tagged no-export;
//   - the anycast TURN service prefix originated at every PoP, with the
//     inbound strategies of §4.4 (regional transit, peering breadth) modelled
//     in ingress selection.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/fabric.hpp"
#include "geo/geoip.hpp"
#include "net/flat_fib.hpp"
#include "net/prefix_trie.hpp"
#include "topo/internet.hpp"
#include "topo/segments.hpp"

namespace vns::core {

using PopId = std::uint32_t;
inline constexpr PopId kNoPop = ~PopId{0};

/// One VNS point of presence.
struct VnsPop {
  PopId id = kNoPop;            ///< 0-based; display id is id+1 (paper's 1-11)
  std::string name;             ///< short code, e.g. "AMS"
  geo::City city;
  geo::PopRegion region = geo::PopRegion::kEU;
  std::vector<bgp::RouterId> routers;
  std::vector<bgp::NeighborId> upstream_sessions;
  std::vector<bgp::NeighborId> peer_sessions;
};

/// A dedicated L2 link between two PoPs.
struct VnsLink {
  PopId a = kNoPop;
  PopId b = kNoPop;
  double km = 0.0;
  double rtt_ms = 0.0;
  /// Leased-circuit size (Mbps); from VnsConfig, scaled by workbench presets.
  double capacity_mbps = 0.0;
  bool long_haul = false;  ///< inter-cluster leased circuit
  bool up = true;          ///< circuit currently in service
};

struct VnsConfig {
  net::Asn asn = 64800;
  std::uint64_t seed = 1;
  /// Border routers per PoP (the paper's network: >20 routers, 11 PoPs).
  int routers_per_pop = 2;
  /// Distinct upstream transit attachments per PoP.
  int upstreams_per_pop = 2;
  /// VNS buys transit from a deliberately small set of global Tier-1s
  /// ("seeking to minimize the number of transit ASes", §3.1); each PoP
  /// attaches its nearest `upstreams_per_pop` providers from this pool.
  int upstream_pool_size = 3;
  /// Peers must have a PoP within this radius of the VNS PoP city (IXP
  /// co-location), and at most `max_peers_per_pop` are accepted.
  double peer_radius_km = 120.0;
  int max_peers_per_pop = 6;
  bool best_external = true;
  /// Use a US-centred Tier-1 as London's primary upstream — the unintended
  /// configuration behind the London anomaly of §5.2.2.
  bool us_upstream_in_london = true;

  /// Geo local-pref mapping lp = lp_max - floor(d_km / km_per_point),
  /// clamped to [lp_floor, lp_max]; always above the 100 default and above
  /// the relationship-based tiers (300/200/100).
  std::uint32_t lp_max = 1000;
  std::uint32_t lp_floor = 400;
  double lp_km_per_point = 25.0;

  /// Relationship-based import tiers used by border routers ("normal
  /// routing policies ... always prefer peer routes over provider routes").
  std::uint32_t lp_customer = 300, lp_peer = 200, lp_upstream = 100;

  /// The anycast service prefix all TURN relays share (§4.4).
  net::Ipv4Prefix anycast_prefix{net::Ipv4Address{100, 64, 0, 0}, 22};

  /// Streamed-feed flush threshold: feed_prefix_batch() lets announcements
  /// accumulate until at least this many prefixes arrived since the last
  /// convergence, then runs the fabric to convergence.  Bounds the pending
  /// message queue (and per-run message budget) when a million-prefix world
  /// is streamed in, while keeping the final state identical — the feed is
  /// announce-only and monotone, so convergence checkpoints commute.
  std::size_t stream_flush_prefixes = 16384;

  /// Incremental FIB refresh threshold: when the fraction of known prefixes
  /// dirtied since a FIB copy was last brought up to date exceeds this, the
  /// publish falls back to a full DIR-16-8-8 recompile instead of patching
  /// (past that point a patch touches most of the arrays anyway and the
  /// per-delta bookkeeping loses).  Negative disables patching entirely (always full
  /// compile) — the equivalence fuzz uses that as its reference world.
  double fib_patch_max_dirty_fraction = 0.25;

  /// Capacities of the dedicated circuits and transit attachments (Mbps,
  /// DESIGN §14).  Long-hauls are the scarce resource the offload policy
  /// protects; regional rings are overbuilt; each upstream attachment is one
  /// purchased transit port.  Workbench presets scale all three with the
  /// modelled population so offered load drives comparable utilization at
  /// every InternetScale.
  double long_haul_capacity_mbps = 100000.0;
  double regional_capacity_mbps = 400000.0;
  double upstream_capacity_mbps = 40000.0;

  /// Propagation model for the leased links.
  topo::DelayModel delay;
};

/// One candidate egress in a route explanation.
struct EgressCandidate {
  PopId pop = kNoPop;
  std::string pop_name;  ///< "?" when the egress maps to no PoP (e.g. the RR)
  std::uint32_t local_pref = 0;
  std::string via;  ///< external neighbor name, or "originated" / "internal"
  /// Great-circle km from this candidate's egress PoP to the destination
  /// prefix's GeoIP location; negative when either side is unknown.
  double geo_km = -1.0;
  /// For runners-up: the rung that eliminated it against the winner and the
  /// margin at that rung.  For the chosen route, kEqual / 0.
  bgp::DecisionRung lost_at = bgp::DecisionRung::kEqual;
  std::int64_t margin = 0;
};

/// Answer to "which PoP does traffic for this address egress at, and why?" —
/// the question the paper's operators asked of the live overlay (§3.2) and
/// the `routing_explorer explain` mode renders.
struct RouteExplanation {
  PopId viewpoint = kNoPop;
  std::string viewpoint_name;
  net::Ipv4Address address;
  bool matched = false;  ///< longest-prefix-match found a known prefix
  bool routed = false;   ///< the viewpoint router holds a best route
  net::Ipv4Prefix prefix;
  bool geo_routing = false;      ///< cold-potato policy active network-wide
  bool had_geo_location = false; ///< the prefix has a GeoIP entry
  EgressCandidate chosen;
  /// Rung separating the winner from the strongest runner-up (kEqual when
  /// unopposed) and the margin at that rung.  `won_by_km` is the geographic
  /// advantage: how many km farther from the destination the runner-up's
  /// egress PoP sits (negative under hot-potato when a farther egress won;
  /// NaN when either distance is unknown).
  bgp::DecisionRung decisive = bgp::DecisionRung::kEqual;
  std::int64_t decisive_margin = 0;
  double won_by_km = std::numeric_limits<double>::quiet_NaN();
  bool candidates_dropped_unreachable = false;
  std::vector<EgressCandidate> runners_up;  ///< strongest first

  /// Multi-line human-readable rendering.
  [[nodiscard]] std::string text() const;
  /// Single JSON object (obs::json emission, machine-checkable).
  [[nodiscard]] std::string json() const;
};

class VnsNetwork {
 public:
  /// Builds the network against a generated Internet and GeoIP database.
  /// Both references must outlive the VnsNetwork.
  VnsNetwork(const topo::Internet& internet, const geo::GeoIpDatabase& geoip,
             VnsConfig config = {});

  VnsNetwork(const VnsNetwork&) = delete;
  VnsNetwork& operator=(const VnsNetwork&) = delete;

  // --- lifecycle -------------------------------------------------------------
  /// Feeds every external route (per Gao–Rexford export rules of each
  /// neighbor) into the fabric and converges.  Call once after construction.
  /// Requires a materialized Internet (prefixes() populated); streamed
  /// worlds use feed_prefix_batch() + finish_streamed_feed() instead.
  void feed_routes();

  /// Streaming counterpart of feed_routes(): announces one origin's batch
  /// (a topo::Internet::PrefixBatch worth of prefixes) over every
  /// attachment whose export policy admits it, converging the fabric every
  /// `VnsConfig::stream_flush_prefixes` prefixes so the pending-update
  /// queue stays bounded.  After the last batch, call
  /// finish_streamed_feed().  The converged state is identical to
  /// feed_routes() on the materialized world — the feed is announce-only,
  /// so intermediate convergence checkpoints do not change the fixpoint.
  void feed_prefix_batch(topo::AsIndex origin, std::span<const topo::PrefixInfo> batch);

  /// Completes a streamed feed: originates the anycast service prefix at
  /// every PoP, converges, and warms the reachability cache — exactly what
  /// feed_routes() does after its announcement sweep.
  void finish_streamed_feed();

  /// Turns the geo-based cold-potato policy on/off (route-refresh + converge).
  /// The network starts with it off — the §4.2 "before" state.
  void set_geo_routing(bool enabled);
  [[nodiscard]] bool geo_routing_enabled() const noexcept { return geo_enabled_; }

  // --- management interface (§3.2 "Overriding Geo-routing") -----------------
  /// Forces all traffic for `prefix` to exit at `pop`.  Pass
  /// `refresh_now = false` when queueing many overrides, then call
  /// apply_policy_changes() once.
  void force_exit(const net::Ipv4Prefix& prefix, PopId pop, bool refresh_now = true);
  /// Removes a prefix from geo-routing entirely (globally spread prefixes).
  void exempt_prefix(const net::Ipv4Prefix& prefix, bool refresh_now = true);
  /// Route-refresh + convergence after a batch of queued policy edits.
  void apply_policy_changes();
  /// Statically advertises a more-specific of a known covering prefix at
  /// `pop`, tagged no-export so it never leaks (§3.2).
  void add_static_more_specific(const net::Ipv4Prefix& more_specific, PopId pop);
  void clear_overrides();

  // --- failure injection (§3.1 resilience) -----------------------------------
  // Each fault/repair emits the resulting BGP storm and reconverges before
  // returning; internal_path / internal_rtt_ms / egress_pop then answer
  // against the degraded network.  Overlapping PoP faults restore what the
  // matching fail_* took down, so fail/restore pairs should nest.
  /// Fails the dedicated circuit between two PoPs (IGP link included).
  bool fail_pop_link(PopId a, PopId b);
  bool restore_pop_link(PopId a, PopId b);
  /// Whole-PoP outage: all routers, circuits and eBGP sessions at the PoP.
  void fail_pop(PopId pop);
  /// Brings a PoP back; its eBGP peers replay their announcements.
  void restore_pop(PopId pop);
  /// Fails one upstream transit session (`which` indexes the PoP's upstream
  /// list, 0 = primary).  Returns false when absent or already down.
  bool fail_upstream(PopId pop, int which = 0);
  bool restore_upstream(PopId pop, int which = 0);
  [[nodiscard]] bool pop_is_down(PopId pop) const { return pop_down_.at(pop); }
  [[nodiscard]] bool link_is_up(PopId a, PopId b) const noexcept;

  // --- topology access --------------------------------------------------------
  [[nodiscard]] std::span<const VnsPop> pops() const noexcept { return pops_; }
  [[nodiscard]] const VnsPop& pop(PopId id) const { return pops_.at(id); }
  [[nodiscard]] std::optional<PopId> find_pop(std::string_view name) const noexcept;
  [[nodiscard]] std::span<const VnsLink> links() const noexcept { return links_; }
  [[nodiscard]] const bgp::Fabric& fabric() const noexcept { return fabric_; }
  [[nodiscard]] bgp::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] bgp::RouterId reflector() const noexcept { return rr_; }
  [[nodiscard]] PopId pop_of_router(bgp::RouterId router) const {
    return router_pop_.at(router);
  }
  [[nodiscard]] const VnsConfig& config() const noexcept { return config_; }

  // --- routing queries ---------------------------------------------------------
  // route_at, egress_pop and local_exit_route answer from the viewpoint FIB
  // published at the end of the last run_to_convergence (after the route
  // feed): one acquire load plus a FIB probe, no lock, no refresh.  Between
  // a direct fabric mutation and its convergence they answer for the last
  // converged state; before the first publish every address is unrouted.

  /// The PoP whose city is geographically closest to a point (what the RR
  /// computes from the GeoIP-reported location).
  [[nodiscard]] PopId geo_closest_pop(const geo::GeoPoint& where) const noexcept;

  /// Longest-prefix-match over everything VNS has a route for.
  [[nodiscard]] std::optional<net::Ipv4Prefix> match_prefix(net::Ipv4Address address) const;

  /// The route installed at `viewpoint`'s primary router for the published
  /// FIB's longest match of an address, or nullptr when unrouted (no
  /// fallback to a shorter routed prefix).
  [[nodiscard]] const bgp::Route* route_at(PopId viewpoint, net::Ipv4Address address) const;

  /// Egress PoP chosen at `viewpoint` for an address.
  [[nodiscard]] std::optional<PopId> egress_pop(PopId viewpoint, net::Ipv4Address address) const;

  /// Full provenance of the egress choice at `viewpoint` for an address:
  /// chosen egress PoP, the RFC-4271 rung that picked it (the geo local-pref
  /// rung under cold-potato routing, with the margin converted back to km),
  /// and every runner-up with the rung/margin that eliminated it.  Pure
  /// query — recomputed from RIB state, nothing is stored per decision.
  [[nodiscard]] RouteExplanation explain_route(PopId viewpoint, net::Ipv4Address address) const;

  /// Best route leaving the Internet *locally* at `pop` (probe traffic
  /// "forced out of VNS immediately at each PoP", §4.1).  With
  /// `upstreams_only`, restricts to transit sessions (the §4.3 comparison
  /// "through its upstreams").
  [[nodiscard]] std::optional<bgp::Route> local_exit_route(PopId pop, net::Ipv4Address address,
                                                           bool upstreams_only = false) const;

  /// The US-centred Tier-1 in the upstream pool (London's primary upstream
  /// when `us_upstream_in_london` is set).
  [[nodiscard]] topo::AsIndex us_centred_upstream() const noexcept { return us_centred_ltp_; }

  // --- internal data plane -----------------------------------------------------
  /// PoP sequence of the internal shortest path (inclusive); empty if a==b.
  [[nodiscard]] std::vector<PopId> internal_path(PopId a, PopId b) const;
  /// Base RTT over the internal path.
  [[nodiscard]] double internal_rtt_ms(PopId a, PopId b) const;
  /// Segment profiles (for the sim::PathModel) over the internal path.  Each
  /// segment carries its circuit's capacity; `link_utilization`, when given,
  /// is indexed like links() and annotates every traversed segment with the
  /// link's current offered-load utilization (traffic::LoadSnapshot exports
  /// exactly this layout).  An empty span leaves utilization at 0, which
  /// reproduces the load-free model byte for byte.
  [[nodiscard]] std::vector<sim::SegmentProfile> internal_segments(
      PopId a, PopId b, const topo::SegmentCatalog& catalog,
      std::span<const double> link_utilization = {}) const;
  /// Index into links() of the circuit between two adjacent PoPs (regardless
  /// of order or up/down state); nullopt when no circuit exists.
  [[nodiscard]] std::optional<std::size_t> link_index(PopId a, PopId b) const noexcept;

  // --- anycast ingress (§4.4) ----------------------------------------------------
  /// The PoP where a service request from `user_as` (homed at `user_loc`)
  /// enters VNS.  With `geo_strategies` (regional transit purchases, broad
  /// peering) the chosen neighbor's attachment nearest the user wins;
  /// without them, the neighbor hands traffic off hot-potato from its own
  /// side, ignoring the user's geography (the ablation case).
  [[nodiscard]] PopId select_ingress(topo::AsIndex user_as, const geo::GeoPoint& user_loc,
                                     bool geo_strategies = true) const;

  /// Every prefix the VNS has ever learned, in first-seen order — the
  /// universe its viewpoint FIBs carry leaves for.  The serve-mode churn
  /// generator draws its flap targets from this log so replayed traces only
  /// touch prefixes the FIBs already track.
  [[nodiscard]] std::span<const net::Ipv4Prefix> known_prefix_log() const noexcept {
    return known_log_;
  }

  /// All (neighbor AS, PoP) transit/peering attachments.
  struct Attachment {
    topo::AsIndex as = topo::kNoAs;
    PopId pop = kNoPop;
    bool upstream = false;
    bgp::NeighborId session = bgp::kNoNeighbor;
  };
  [[nodiscard]] std::span<const Attachment> attachments() const noexcept {
    return attachments_;
  }

 private:
  void build_pops();
  void build_links();
  void attach_neighbors();
  void install_policies();
  /// Announces every external route over the selected attachments only (one
  /// routes_to() sweep per origin regardless of how many are selected).
  /// feed_routes() uses it for all attachments; session/PoP restoration uses
  /// it to replay a restored neighbor's table.
  void feed_attachment_routes(std::span<const Attachment* const> selected);
  /// Announcement core shared by the materialized and streamed feeds: one
  /// routes_to(origin) sweep, then every admissible (attachment, prefix)
  /// pair is announced with a single interned attribute node per
  /// attachment.
  void feed_origin_routes(topo::AsIndex origin, std::span<const net::Ipv4Prefix> prefixes,
                          std::span<const Attachment* const> selected);
  /// Replays one neighbor's announcements (after restore_session).
  void feed_session(bgp::NeighborId session);
  /// Fills reach_cache_ for every attachment so const queries never write.
  void warm_reach_cache() const;
  [[nodiscard]] std::uint32_t lp_from_distance(double km) const noexcept;
  /// Transparent hasher so find_pop(string_view) probes without allocating.
  struct NameHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// Order-independent key for the (a, b) PoP pair of a link.
  [[nodiscard]] static constexpr std::uint64_t pop_pair_key(PopId a, PopId b) noexcept {
    return a < b ? (std::uint64_t{a} << 32) | b : (std::uint64_t{b} << 32) | a;
  }

  // --- compiled data plane ----------------------------------------------------
  /// One copy of a viewpoint's resolution FIB: a leaf per known prefix whose
  /// value is the viewpoint router's egress PopId for it (kNoPop =
  /// unrouted), plus the positions in the fabric's RIB-delta log and in
  /// known_log_ up to which the copy is current.
  struct FibCopy {
    net::FlatFib fib;
    std::uint64_t delta_cursor = 0;
    std::size_t known_cursor = 0;
  };
  /// Two copies per viewpoint: readers probe `live`; a publish brings the
  /// other copy up to date and swaps it in with one release store.  The
  /// standby may be touched only once no reader can still hold it —
  /// single-threaded callers and campaign pools never read during a
  /// publish, and serve::Engine waits for its resolvers after each one.
  struct ViewpointFib {
    std::array<FibCopy, 2> copies;
    std::atomic<const FibCopy*> live{nullptr};
  };
  /// The on-converged callback (installed by finish_streamed_feed): catches
  /// every viewpoint's standby copy up from its cursors — patched from the
  /// RIB-delta log when the dirty fraction is small, recompiled otherwise —
  /// and makes it live.  No-op when neither the delta log nor known_log_
  /// has moved since the last publish.
  void publish_fibs();
  /// Brings one copy up to the current RIB state of `router`.
  void catch_up(FibCopy& copy, const bgp::Router& router);
  /// Leaf value for one known prefix at a viewpoint router.
  [[nodiscard]] PopId egress_of(const bgp::Router& router, const net::Ipv4Prefix& prefix) const;
  /// Longest-match leaf of the viewpoint's live FIB, or nullptr.
  [[nodiscard]] const net::FlatFib::Leaf* live_leaf(PopId viewpoint,
                                                    net::Ipv4Address address) const;

  /// Reachability of neighbor AS `as` from every AS (lazily cached).
  struct NeighborReach {
    std::vector<std::uint16_t> hops;     ///< AS hops to the neighbor
    std::vector<bool> in_customer_cone;  ///< user inside the neighbor's cone
  };
  [[nodiscard]] const NeighborReach& reach(topo::AsIndex as) const;

  const topo::Internet& internet_;
  const geo::GeoIpDatabase& geoip_;
  VnsConfig config_;

  bgp::Fabric fabric_;
  bgp::RouterId rr_ = bgp::kInvalidRouter;
  std::vector<VnsPop> pops_;
  std::vector<VnsLink> links_;
  std::vector<PopId> router_pop_;  ///< indexed by RouterId
  std::vector<Attachment> attachments_;
  std::unordered_map<std::string, PopId, NameHash, std::equal_to<>> pop_by_name_;
  std::unordered_map<std::uint64_t, std::size_t> link_index_;  ///< pop_pair_key -> links_

  /// Published per-viewpoint FIBs (pure caches of converged RIB state).
  std::vector<std::unique_ptr<ViewpointFib>> fibs_;

  bool geo_enabled_ = false;
  topo::AsIndex us_centred_ltp_ = topo::kNoAs;
  std::unordered_map<net::Ipv4Prefix, PopId> forced_exit_;
  std::unordered_set<net::Ipv4Prefix> exempt_;
  net::PrefixTrie<bool> known_prefixes_;
  /// Append-only log of newly-known prefixes, in insertion order.  The full
  /// viewpoint compile emits a leaf for *every* known prefix (including
  /// unrouted ones, pinning "no fallback to a shorter covering prefix" into
  /// the arrays), so an incremental refresh must union the RIB-delta set
  /// with the known-prefix tail its FIB has not seen — a prefix can become
  /// known without ever entering a given viewpoint's Loc-RIB.
  std::vector<net::Ipv4Prefix> known_log_;
  /// Prefixes announced via feed_prefix_batch since the last convergence.
  std::size_t streamed_since_flush_ = 0;

  std::vector<bool> pop_down_;
  /// links_ indices a fail_pop took down, for exact restoration.
  std::unordered_map<PopId, std::vector<std::size_t>> pop_downed_links_;

  mutable std::unordered_map<topo::AsIndex, NeighborReach> reach_cache_;
  /// Once feed_routes() has pre-warmed the cache, reach() must never write
  /// again — parallel campaigns call it concurrently from const context.
  mutable bool reach_warmed_ = false;
};

}  // namespace vns::core
