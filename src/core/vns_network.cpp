#include "core/vns_network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <sstream>

#include "bgp/decision.hpp"
#include "obs/json.hpp"
#include "sim/time.hpp"

namespace vns::core {
namespace {

struct PopSpec {
  const char* code;
  const char* city;
  geo::PopRegion region;
};

/// Fixed PoP table.  Display ids (index+1) are chosen so the paper's
/// references hold: PoPs 3 and 5 on the US east coast, 7 in AP, 9 in EU,
/// 10 = London (§4.2.1).
constexpr PopSpec kPopSpecs[] = {
    {"SJS", "SanJose", geo::PopRegion::kUS},     // 1
    {"SYD", "Sydney", geo::PopRegion::kOC},      // 2
    {"ASH", "Ashburn", geo::PopRegion::kUS},     // 3
    {"HKG", "HongKong", geo::PopRegion::kAP},    // 4
    {"NYC", "NewYork", geo::PopRegion::kUS},     // 5
    {"OSL", "Oslo", geo::PopRegion::kEU},        // 6
    {"SIN", "Singapore", geo::PopRegion::kAP},   // 7
    {"ATL", "Atlanta", geo::PopRegion::kUS},     // 8
    {"AMS", "Amsterdam", geo::PopRegion::kEU},   // 9
    {"LON", "London", geo::PopRegion::kEU},      // 10
    {"FRA", "Frankfurt", geo::PopRegion::kEU},   // 11
};

/// Long-haul inter-cluster circuits (§3.1: termination points chosen to
/// avoid suboptimal internal routing; Singapore has direct links to
/// Australia, the USA and Europe, §4.3).
constexpr std::pair<const char*, const char*> kLongHaul[] = {
    {"LON", "NYC"}, {"AMS", "ASH"},  // transatlantic
    {"SJS", "HKG"}, {"SJS", "SIN"},  // transpacific
    {"SIN", "AMS"},                  // Europe-Asia
    {"SIN", "SYD"}, {"SYD", "SJS"},  // Oceania
};

}  // namespace

VnsNetwork::VnsNetwork(const topo::Internet& internet, const geo::GeoIpDatabase& geoip,
                       VnsConfig config)
    : internet_(internet), geoip_(geoip), config_(config), fabric_(config.asn) {
  build_pops();
  build_links();
  attach_neighbors();
  install_policies();
  pop_down_.assign(pops_.size(), false);
  fibs_.reserve(pops_.size());
  for (std::size_t i = 0; i < pops_.size(); ++i) {
    fibs_.push_back(std::make_unique<ViewpointFib>());
  }
}

void VnsNetwork::build_pops() {
  for (PopId id = 0; id < std::size(kPopSpecs); ++id) {
    const auto& spec = kPopSpecs[id];
    VnsPop pop;
    pop.id = id;
    pop.name = spec.code;
    pop.city = geo::city(spec.city);
    pop.region = spec.region;
    for (int r = 0; r < config_.routers_per_pop; ++r) {
      const auto router = fabric_.add_router(pop.name + "-r" + std::to_string(r));
      pop.routers.push_back(router);
      router_pop_.push_back(id);
      fabric_.router(router).set_advertise_best_external(config_.best_external);
    }
    pop_by_name_.emplace(pop.name, id);
    pops_.push_back(std::move(pop));
  }
  rr_ = fabric_.add_router("RR");
  router_pop_.push_back(kNoPop);
  for (const auto& pop : pops_) {
    for (const auto router : pop.routers) fabric_.add_rr_client_session(rr_, router);
  }
}

void VnsNetwork::build_links() {
  auto link_pops = [&](PopId a, PopId b, bool long_haul) {
    VnsLink link;
    link.a = a;
    link.b = b;
    link.km = geo::great_circle_km(pops_[a].city.location, pops_[b].city.location);
    link.rtt_ms = link.km * config_.delay.rtt_ms_per_km * config_.delay.path_inflation;
    link.capacity_mbps =
        long_haul ? config_.long_haul_capacity_mbps : config_.regional_capacity_mbps;
    link.long_haul = long_haul;
    link_index_.emplace(pop_pair_key(a, b), links_.size());
    links_.push_back(link);
    const auto metric =
        static_cast<bgp::IgpMetric>(std::max(1.0, std::round(link.rtt_ms * 10.0)));
    // Inter-PoP circuits terminate on the primary router of each PoP.
    fabric_.add_igp_link(pops_[a].routers[0], pops_[b].routers[0], metric);
  };

  // Regional clusters: full mesh.
  for (PopId a = 0; a < pops_.size(); ++a) {
    for (PopId b = a + 1; b < pops_.size(); ++b) {
      if (pops_[a].region == pops_[b].region) link_pops(a, b, /*long_haul=*/false);
    }
  }
  // Long-haul inter-cluster circuits.
  for (const auto& [from, to] : kLongHaul) {
    const auto a = find_pop(from);
    const auto b = find_pop(to);
    assert(a && b);
    link_pops(*a, *b, /*long_haul=*/true);
  }
  // Intra-PoP fabric: secondary routers hang off the primary at metric 1;
  // the RR (control plane only) attaches at Amsterdam.
  for (const auto& pop : pops_) {
    for (std::size_t r = 1; r < pop.routers.size(); ++r) {
      fabric_.add_igp_link(pop.routers[0], pop.routers[r], 1);
    }
  }
  fabric_.add_igp_link(pops_[*find_pop("AMS")].routers[0], rr_, 1);
}

void VnsNetwork::attach_neighbors() {
  // Distance from an AS's nearest PoP to a point.
  auto as_distance = [&](topo::AsIndex as, const geo::GeoPoint& where) {
    double best = 1e18;
    for (const auto& pop : internet_.as_at(as).pops) {
      best = std::min(best, geo::great_circle_km(pop.location, where));
    }
    return best;
  };
  // Count of NA PoPs, to find the "US-centred" Tier-1 for the London config.
  auto na_presence = [&](topo::AsIndex as) {
    int count = 0;
    for (const auto& pop : internet_.as_at(as).pops) {
      count += pop.region == geo::WorldRegion::kNorthCentralAmerica;
    }
    return count;
  };
  topo::AsIndex us_centred_ltp = 0;
  for (topo::AsIndex i = 0; i < internet_.config().ltp_count; ++i) {
    if (na_presence(i) > na_presence(us_centred_ltp)) us_centred_ltp = i;
  }
  us_centred_ltp_ = us_centred_ltp;

  // The transit pool: the few global Tier-1s VNS buys from everywhere
  // (keeping the provider set small is what makes hot-potato exits local —
  // the same provider announces the same path at every PoP).
  std::vector<topo::AsIndex> pool(internet_.config().ltp_count);
  for (topo::AsIndex i = 0; i < pool.size(); ++i) pool[i] = i;
  std::sort(pool.begin(), pool.end(), [&](topo::AsIndex a, topo::AsIndex b) {
    double sum_a = 0.0, sum_b = 0.0;
    for (const auto& pop : pops_) {
      sum_a += as_distance(a, pop.city.location);
      sum_b += as_distance(b, pop.city.location);
    }
    return sum_a != sum_b ? sum_a < sum_b : a < b;
  });
  pool.resize(std::min<std::size_t>(pool.size(),
                                    static_cast<std::size_t>(config_.upstream_pool_size)));
  if (config_.us_upstream_in_london &&
      std::find(pool.begin(), pool.end(), us_centred_ltp) == pool.end()) {
    pool.back() = us_centred_ltp;
  }

  for (auto& pop : pops_) {
    const auto& here = pop.city.location;

    // Upstreams: this PoP's nearest providers from the pool.
    std::vector<topo::AsIndex> ltps = pool;
    std::sort(ltps.begin(), ltps.end(), [&](topo::AsIndex a, topo::AsIndex b) {
      const double da = as_distance(a, here), db = as_distance(b, here);
      return da != db ? da < db : a < b;
    });
    if (config_.us_upstream_in_london && pop.name == "LON") {
      // The paper's misconfiguration: a US-based Tier-1 as London's primary
      // upstream (§5.2.2's anomaly).
      std::erase(ltps, us_centred_ltp);
      ltps.insert(ltps.begin(), us_centred_ltp);
    }
    const int upstream_count =
        std::min<int>(config_.upstreams_per_pop, static_cast<int>(ltps.size()));
    for (int u = 0; u < upstream_count; ++u) {
      const auto as = ltps[static_cast<std::size_t>(u)];
      const auto router = pop.routers[static_cast<std::size_t>(u) % pop.routers.size()];
      const auto session = fabric_.add_neighbor(
          router, internet_.as_at(as).asn, bgp::NeighborKind::kUpstream,
          "up-" + pop.name + "-" + std::to_string(internet_.as_at(as).asn));
      pop.upstream_sessions.push_back(session);
      attachments_.push_back({as, pop.id, true, session});
    }

    // Peers: transit/access networks co-located at the PoP's exchange.
    const topo::AsType peer_types[] = {topo::AsType::kSTP, topo::AsType::kCAHP};
    auto nearby = internet_.ases_near(here, config_.peer_radius_km, peer_types);
    std::sort(nearby.begin(), nearby.end(), [&](topo::AsIndex a, topo::AsIndex b) {
      const double da = as_distance(a, here), db = as_distance(b, here);
      return da != db ? da < db : a < b;
    });
    int peers = 0;
    for (const auto as : nearby) {
      if (peers >= config_.max_peers_per_pop) break;
      const auto router = pop.routers[static_cast<std::size_t>(peers) % pop.routers.size()];
      const auto session = fabric_.add_neighbor(
          router, internet_.as_at(as).asn, bgp::NeighborKind::kPeer,
          "peer-" + pop.name + "-" + std::to_string(internet_.as_at(as).asn));
      pop.peer_sessions.push_back(session);
      attachments_.push_back({as, pop.id, false, session});
      ++peers;
    }
  }
}

std::uint32_t VnsNetwork::lp_from_distance(double km) const noexcept {
  const double drop = std::floor(km / config_.lp_km_per_point);
  const double lp = static_cast<double>(config_.lp_max) - drop;
  return lp < config_.lp_floor ? config_.lp_floor : static_cast<std::uint32_t>(lp);
}

void VnsNetwork::install_policies() {
  // Border routers: relationship-based LOCAL_PREF on import (the classic
  // customer > peer > provider ranking of §4.2).
  for (const auto& pop : pops_) {
    for (const auto router : pop.routers) {
      fabric_.router(router).set_import_policy(
          [this](const bgp::ImportContext& ctx, bgp::Route& route) {
            if (ctx.session == bgp::SessionKind::kEbgp) {
              switch (ctx.neighbor_kind) {
                case bgp::NeighborKind::kCustomer:
                  route.set_local_pref(config_.lp_customer);
                  break;
                case bgp::NeighborKind::kPeer:
                  route.set_local_pref(config_.lp_peer);
                  break;
                case bgp::NeighborKind::kUpstream:
                  route.set_local_pref(config_.lp_upstream);
                  break;
              }
            }
            return true;
          });
    }
  }

  // The modified-Quagga route reflector: on routes received from clients,
  // look up the prefix's GeoIP location, compute the great-circle distance
  // from the announcing egress PoP, and assign LOCAL_PREF = f(distance)
  // (§3.2 "Basic operation"), unless the management interface overrides.
  fabric_.router(rr_).set_import_policy(
      [this](const bgp::ImportContext& ctx, bgp::Route& route) {
        if (ctx.session != bgp::SessionKind::kIbgp || !geo_enabled_) return true;
        if (exempt_.contains(route.prefix)) return true;
        if (route.egress >= router_pop_.size()) return true;
        const PopId egress_pop = router_pop_[route.egress];
        if (egress_pop == kNoPop) return true;
        if (const auto it = forced_exit_.find(route.prefix); it != forced_exit_.end()) {
          route.set_local_pref(egress_pop == it->second ? config_.lp_max
                                                         : config_.lp_floor);
          return true;
        }
        const auto location = geoip_.lookup(route.prefix);
        if (!location) return true;  // unresolvable: leave default behaviour
        const double km =
            geo::great_circle_km(pops_[egress_pop].city.location, *location);
        route.set_local_pref(lp_from_distance(km));
        return true;
      });
}

void VnsNetwork::feed_origin_routes(topo::AsIndex origin,
                                    std::span<const net::Ipv4Prefix> prefixes,
                                    std::span<const Attachment* const> selected) {
  const auto table = internet_.routes_to(origin);
  for (const Attachment* attachment : selected) {
    if (!table.reachable(attachment->as)) continue;
    const auto& entry = table.at(attachment->as);
    // Export policy of the neighbor: upstreams sell transit (everything);
    // peers exchange only their own and customer routes.
    const bool exportable = attachment->upstream ||
                            entry.cls == topo::PathClass::kCustomer ||
                            attachment->as == origin;
    if (!exportable) continue;
    const auto as_path_indices = table.path_from(attachment->as);
    bgp::Attributes attrs;
    std::vector<net::Asn> asns;
    asns.reserve(as_path_indices.size());
    for (const auto index : as_path_indices) asns.push_back(internet_.as_at(index).asn);
    attrs.as_path = bgp::AsPath{std::move(asns)};
    // Intern once per (origin, attachment): every prefix of the origin AS
    // fans out sharing the same immutable attribute node.
    const bgp::AttrRef shared = bgp::AttrTable::global().intern(std::move(attrs));
    for (const auto& prefix : prefixes) {
      fabric_.announce(attachment->session, prefix, shared);
      if (known_prefixes_.insert(prefix, true)) known_log_.push_back(prefix);
    }
  }
}

void VnsNetwork::feed_attachment_routes(std::span<const Attachment* const> selected) {
  if (selected.empty()) return;
  std::vector<net::Ipv4Prefix> prefixes;
  for (topo::AsIndex origin = 0; origin < internet_.as_count(); ++origin) {
    const auto& node = internet_.as_at(origin);
    if (node.prefix_ids.empty()) continue;
    prefixes.clear();
    prefixes.reserve(node.prefix_ids.size());
    for (const auto prefix_id : node.prefix_ids) {
      prefixes.push_back(internet_.prefix(prefix_id).prefix);
    }
    feed_origin_routes(origin, prefixes, selected);
  }
}

void VnsNetwork::feed_prefix_batch(topo::AsIndex origin,
                                   std::span<const topo::PrefixInfo> batch) {
  if (batch.empty()) return;
  std::vector<const Attachment*> all;
  all.reserve(attachments_.size());
  for (const auto& attachment : attachments_) all.push_back(&attachment);
  std::vector<net::Ipv4Prefix> prefixes;
  prefixes.reserve(batch.size());
  for (const auto& info : batch) prefixes.push_back(info.prefix);
  feed_origin_routes(origin, prefixes, all);
  streamed_since_flush_ += batch.size();
  if (streamed_since_flush_ >= config_.stream_flush_prefixes) {
    // Checkpoint convergence: drains the pending-update queue so memory and
    // the per-run message budget stay bounded at million-prefix scale.  The
    // feed is announce-only, so the fixpoint is unchanged.
    fabric_.run_to_convergence();
    streamed_since_flush_ = 0;
  }
}

void VnsNetwork::finish_streamed_feed() {
  // The anycast TURN service prefix is originated at every PoP (§4.4).
  for (const auto& pop : pops_) {
    fabric_.originate(pop.routers[0], config_.anycast_prefix, bgp::Attributes{});
  }
  if (known_prefixes_.insert(config_.anycast_prefix, true)) {
    known_log_.push_back(config_.anycast_prefix);
  }
  // From here on every convergence — ours or a direct fabric caller's —
  // publishes the viewpoint FIBs; the feed's checkpoints compiled nothing.
  fabric_.set_on_converged([this] { publish_fibs(); });
  fabric_.run_to_convergence();
  streamed_since_flush_ = 0;
  warm_reach_cache();
}

void VnsNetwork::feed_session(bgp::NeighborId session) {
  for (const auto& attachment : attachments_) {
    if (attachment.session == session) {
      const Attachment* one = &attachment;
      feed_attachment_routes({&one, 1});
      return;
    }
  }
}

void VnsNetwork::feed_routes() {
  std::vector<const Attachment*> all;
  all.reserve(attachments_.size());
  for (const auto& attachment : attachments_) all.push_back(&attachment);
  feed_attachment_routes(all);
  finish_streamed_feed();
}

void VnsNetwork::set_geo_routing(bool enabled) {
  if (geo_enabled_ == enabled) return;
  geo_enabled_ = enabled;
  fabric_.refresh_policies();
  fabric_.run_to_convergence();
}

void VnsNetwork::force_exit(const net::Ipv4Prefix& prefix, PopId pop, bool refresh_now) {
  forced_exit_[prefix] = pop;
  if (refresh_now) apply_policy_changes();
}

void VnsNetwork::exempt_prefix(const net::Ipv4Prefix& prefix, bool refresh_now) {
  exempt_.insert(prefix);
  if (refresh_now) apply_policy_changes();
}

void VnsNetwork::apply_policy_changes() {
  fabric_.refresh_policies();
  fabric_.run_to_convergence();
}

void VnsNetwork::add_static_more_specific(const net::Ipv4Prefix& more_specific, PopId pop) {
  // §3.2: only advertised when the PoP has a route to the less-specific.
  assert(known_prefixes_.longest_match(more_specific.first_host()).has_value() &&
         "no covering route for static more-specific");
  bgp::Attributes attrs;
  attrs.origin = bgp::Origin::kIncomplete;  // injected, not learned
  attrs.add_community(bgp::kNoExport);
  fabric_.originate(pops_.at(pop).routers[0], more_specific, attrs);
  if (known_prefixes_.insert(more_specific, true)) known_log_.push_back(more_specific);
  fabric_.run_to_convergence();
}

void VnsNetwork::clear_overrides() {
  forced_exit_.clear();
  exempt_.clear();
  fabric_.refresh_policies();
  fabric_.run_to_convergence();
}

bool VnsNetwork::fail_pop_link(PopId a, PopId b) {
  const auto it = link_index_.find(pop_pair_key(a, b));
  if (it == link_index_.end()) return false;
  auto& link = links_[it->second];
  if (!link.up) return false;
  if (!fabric_.fail_link(pops_.at(link.a).routers[0], pops_.at(link.b).routers[0])) {
    return false;
  }
  link.up = false;
  fabric_.run_to_convergence();
  return true;
}

bool VnsNetwork::restore_pop_link(PopId a, PopId b) {
  const auto it = link_index_.find(pop_pair_key(a, b));
  if (it == link_index_.end()) return false;
  auto& link = links_[it->second];
  if (link.up) return false;
  if (!fabric_.restore_link(pops_.at(link.a).routers[0], pops_.at(link.b).routers[0])) {
    return false;
  }
  link.up = true;
  fabric_.run_to_convergence();
  return true;
}

void VnsNetwork::fail_pop(PopId pop_id) {
  if (pop_down_.at(pop_id)) return;
  pop_down_.at(pop_id) = true;
  auto& downed = pop_downed_links_[pop_id];
  for (std::size_t i = 0; i < links_.size(); ++i) {
    auto& link = links_[i];
    if (link.up && (link.a == pop_id || link.b == pop_id)) {
      link.up = false;
      downed.push_back(i);
    }
  }
  // fail_router tears down the PoP's IGP links (the circuits marked above
  // terminate on its primary router) and every BGP session.
  for (const auto router : pops_.at(pop_id).routers) fabric_.fail_router(router);
  fabric_.run_to_convergence();
}

void VnsNetwork::restore_pop(PopId pop_id) {
  if (!pop_down_.at(pop_id)) return;
  pop_down_.at(pop_id) = false;
  for (const auto router : pops_.at(pop_id).routers) fabric_.restore_router(router);
  if (const auto it = pop_downed_links_.find(pop_id); it != pop_downed_links_.end()) {
    for (const auto index : it->second) links_[index].up = true;
    pop_downed_links_.erase(it);
  }
  // A restored eBGP peer re-sends its table over the fresh session.
  std::vector<const Attachment*> restored;
  for (const auto& attachment : attachments_) {
    if (attachment.pop == pop_id) restored.push_back(&attachment);
  }
  feed_attachment_routes(restored);
  fabric_.run_to_convergence();
}

bool VnsNetwork::fail_upstream(PopId pop_id, int which) {
  const auto& sessions = pops_.at(pop_id).upstream_sessions;
  if (which < 0 || static_cast<std::size_t>(which) >= sessions.size()) return false;
  if (!fabric_.fail_session(sessions[static_cast<std::size_t>(which)])) return false;
  fabric_.run_to_convergence();
  return true;
}

bool VnsNetwork::restore_upstream(PopId pop_id, int which) {
  const auto& sessions = pops_.at(pop_id).upstream_sessions;
  if (which < 0 || static_cast<std::size_t>(which) >= sessions.size()) return false;
  if (!fabric_.restore_session(sessions[static_cast<std::size_t>(which)])) return false;
  feed_session(sessions[static_cast<std::size_t>(which)]);
  fabric_.run_to_convergence();
  return true;
}

bool VnsNetwork::link_is_up(PopId a, PopId b) const noexcept {
  const auto it = link_index_.find(pop_pair_key(a, b));
  return it != link_index_.end() && links_[it->second].up;
}

std::optional<PopId> VnsNetwork::find_pop(std::string_view name) const noexcept {
  const auto it = pop_by_name_.find(name);
  if (it == pop_by_name_.end()) return std::nullopt;
  return it->second;
}

PopId VnsNetwork::geo_closest_pop(const geo::GeoPoint& where) const noexcept {
  PopId best = 0;
  double best_km = geo::great_circle_km(pops_[0].city.location, where);
  for (PopId id = 1; id < pops_.size(); ++id) {
    const double km = geo::great_circle_km(pops_[id].city.location, where);
    if (km < best_km) {
      best_km = km;
      best = id;
    }
  }
  return best;
}

std::optional<net::Ipv4Prefix> VnsNetwork::match_prefix(net::Ipv4Address address) const {
  const auto hit = known_prefixes_.longest_match(address);
  if (!hit) return std::nullopt;
  return hit->first;
}

PopId VnsNetwork::egress_of(const bgp::Router& router, const net::Ipv4Prefix& prefix) const {
  const bgp::Route* route = router.best_route(prefix);
  return route != nullptr && route->egress < router_pop_.size() ? router_pop_[route->egress]
                                                                : kNoPop;
}

void VnsNetwork::catch_up(FibCopy& copy, const bgp::Router& router) {
  const bgp::Fabric::RibDeltas log = fabric_.rib_deltas_since(copy.delta_cursor);
  // Incremental refresh via the RIB-delta protocol: patch only the prefixes
  // whose egress can have changed since this copy was last current.  Falls
  // back to a full compile when the copy was never built, the delta log was
  // trimmed past its cursor, or the dirty fraction exceeds the configured
  // threshold (past that point patching touches most of the arrays anyway).
  bool patched = false;
  if (copy.fib.compiled() && log.complete && config_.fib_patch_max_dirty_fraction >= 0.0) {
    // This viewpoint's dirty set: deltas of its primary router unioned with
    // the known-prefix tail the copy has not seen — a prefix can become
    // known (and thus owed a leaf, routed or not) without ever touching this
    // router's Loc-RIB.
    std::vector<net::Ipv4Prefix> dirty;
    dirty.reserve(log.deltas.size() + (known_log_.size() - copy.known_cursor));
    for (const auto& delta : log.deltas) {
      if (delta.router == router.id()) dirty.push_back(delta.prefix);
    }
    for (std::size_t i = copy.known_cursor; i < known_log_.size(); ++i) {
      dirty.push_back(known_log_[i]);
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    const double fraction =
        known_prefixes_.size() == 0
            ? 0.0
            : static_cast<double>(dirty.size()) /
                  static_cast<double>(known_prefixes_.size());
    if (fraction <= config_.fib_patch_max_dirty_fraction) {
      std::vector<net::FlatFib::Leaf> deltas;
      deltas.reserve(dirty.size());
      for (const auto& prefix : dirty) {
        // Only known prefixes have leaves; a delta for anything else (e.g. a
        // Loc-RIB entry the compile would not emit) must not add one.
        if (known_prefixes_.find(prefix) == nullptr) continue;
        deltas.push_back({prefix, egress_of(router, prefix)});
      }
      copy.fib.patch(deltas);
      patched = true;
    }
  }
  if (!patched) {
    // One leaf per known prefix, unrouted ones included (value kNoPop), so
    // the FIB reproduces the trie-then-RIB answer exactly: no fallback to a
    // shorter routed prefix.
    copy.fib = net::FlatFib::compile_from(
        known_prefixes_,
        [&](const net::Ipv4Prefix& prefix, const bool&) { return egress_of(router, prefix); });
  }
  copy.delta_cursor = log.next_cursor;
  copy.known_cursor = known_log_.size();
}

void VnsNetwork::publish_fibs() {
  const std::uint64_t head = fabric_.rib_deltas_since(0).next_cursor;
  for (std::size_t v = 0; v < fibs_.size(); ++v) {
    ViewpointFib& slot = *fibs_[v];
    const FibCopy* live = slot.live.load(std::memory_order_relaxed);
    if (live != nullptr && live->delta_cursor == head &&
        live->known_cursor == known_log_.size()) {
      continue;  // nothing moved since the last publish
    }
    FibCopy& standby = live == &slot.copies[0] ? slot.copies[1] : slot.copies[0];
    catch_up(standby, fabric_.router(pops_[v].routers[0]));
    slot.live.store(&standby, std::memory_order_release);
  }
}

const net::FlatFib::Leaf* VnsNetwork::live_leaf(PopId viewpoint,
                                                net::Ipv4Address address) const {
  const FibCopy* live = fibs_.at(viewpoint)->live.load(std::memory_order_acquire);
  return live == nullptr ? nullptr : live->fib.lookup(address);
}

const bgp::Route* VnsNetwork::route_at(PopId viewpoint, net::Ipv4Address address) const {
  const net::FlatFib::Leaf* leaf = live_leaf(viewpoint, address);
  if (leaf == nullptr) return nullptr;
  return fabric_.router(pops_.at(viewpoint).routers[0]).best_route(leaf->prefix);
}

std::optional<PopId> VnsNetwork::egress_pop(PopId viewpoint, net::Ipv4Address address) const {
  const net::FlatFib::Leaf* leaf = live_leaf(viewpoint, address);
  if (leaf == nullptr || leaf->value == kNoPop) return std::nullopt;
  return leaf->value;
}

RouteExplanation VnsNetwork::explain_route(PopId viewpoint, net::Ipv4Address address) const {
  RouteExplanation ex;
  ex.viewpoint = viewpoint;
  ex.viewpoint_name = pops_.at(viewpoint).name;
  ex.address = address;
  ex.geo_routing = geo_enabled_;
  const auto prefix = match_prefix(address);
  if (!prefix) return ex;
  ex.matched = true;
  ex.prefix = *prefix;
  const std::optional<geo::GeoPoint> destination = geoip_.lookup(*prefix);
  ex.had_geo_location = destination.has_value();

  const bgp::DecisionTrace trace =
      fabric_.router(pops_.at(viewpoint).routers[0]).explain(*prefix);
  ex.candidates_dropped_unreachable = trace.candidates_dropped_unreachable;
  if (!trace.has_best) return ex;
  ex.routed = true;

  const auto describe = [&](const bgp::Route& route) {
    EgressCandidate c;
    c.local_pref = route.attrs().local_pref;
    if (route.egress < router_pop_.size()) c.pop = router_pop_[route.egress];
    c.pop_name = c.pop == kNoPop ? "?" : pops_[c.pop].name;
    if (route.neighbor != bgp::kNoNeighbor) {
      c.via = fabric_.neighbor(route.neighbor).name;
    } else {
      c.via = route.locally_originated ? "originated" : "internal";
    }
    if (destination && c.pop != kNoPop) {
      c.geo_km = geo::great_circle_km(pops_[c.pop].city.location, *destination);
    }
    return c;
  };

  ex.chosen = describe(trace.best);
  ex.decisive = trace.decisive;
  ex.decisive_margin = trace.decisive_margin;
  ex.runners_up.reserve(trace.eliminated.size());
  for (const auto& verdict : trace.eliminated) {
    EgressCandidate c = describe(verdict.route);
    c.lost_at = verdict.lost_at;
    c.margin = verdict.margin;
    ex.runners_up.push_back(std::move(c));
  }
  if (!ex.runners_up.empty() && ex.chosen.geo_km >= 0.0 &&
      ex.runners_up.front().geo_km >= 0.0) {
    ex.won_by_km = ex.runners_up.front().geo_km - ex.chosen.geo_km;
  }
  return ex;
}

std::string RouteExplanation::text() const {
  std::ostringstream out;
  out << viewpoint_name << " -> " << address.to_string();
  if (!matched) {
    out << ": no covering prefix known\n";
    return out.str();
  }
  out << " (prefix " << prefix.to_string() << ", geo-routing "
      << (geo_routing ? "on" : "off") << "):\n";
  if (!routed) {
    out << "  no route installed";
    if (candidates_dropped_unreachable) out << " (all next hops IGP-unreachable)";
    out << '\n';
    return out.str();
  }
  out << "  egress " << chosen.pop_name << " via " << chosen.via << " (local-pref "
      << chosen.local_pref;
  if (chosen.geo_km >= 0.0) {
    out << ", " << static_cast<long long>(chosen.geo_km) << " km from destination";
  }
  out << ")\n";
  if (runners_up.empty()) {
    out << "  unopposed: no other candidate survived import\n";
  } else {
    out << "  decided at " << bgp::to_string(decisive) << ", margin " << decisive_margin;
    if (std::isfinite(won_by_km)) {
      out << " (egress " << static_cast<long long>(std::abs(won_by_km)) << " km "
          << (won_by_km >= 0.0 ? "closer" : "farther") << " than runner-up "
          << runners_up.front().pop_name << ")";
    }
    out << '\n';
    for (const auto& r : runners_up) {
      out << "  runner-up " << r.pop_name << " via " << r.via << " (local-pref "
          << r.local_pref;
      if (r.geo_km >= 0.0) out << ", " << static_cast<long long>(r.geo_km) << " km";
      out << ", lost at " << bgp::to_string(r.lost_at) << " by " << r.margin << ")\n";
    }
  }
  if (candidates_dropped_unreachable) {
    out << "  note: some candidates dropped for IGP-unreachable next hops\n";
  }
  return out.str();
}

std::string RouteExplanation::json() const {
  using obs::json_number;
  using obs::json_string;
  const auto candidate = [](const EgressCandidate& c, bool runner_up) {
    std::string out = "{\"pop\":" + json_string(c.pop_name) +
                      ",\"via\":" + json_string(c.via) +
                      ",\"local_pref\":" + json_number(std::uint64_t{c.local_pref}) +
                      ",\"geo_km\":" + (c.geo_km < 0.0 ? "null" : json_number(c.geo_km));
    if (runner_up) {
      out += ",\"lost_at\":" + json_string(bgp::to_string(c.lost_at)) +
             ",\"margin\":" + json_number(std::int64_t{c.margin});
    }
    return out + "}";
  };
  std::string out = "{\"type\":\"explain\",\"viewpoint\":" + json_string(viewpoint_name) +
                    ",\"address\":" + json_string(address.to_string()) +
                    ",\"matched\":" + (matched ? "true" : "false") +
                    ",\"routed\":" + (routed ? "true" : "false");
  if (matched) {
    out += ",\"prefix\":" + json_string(prefix.to_string());
  }
  out += std::string(",\"geo_routing\":") + (geo_routing ? "true" : "false") +
         ",\"had_geo_location\":" + (had_geo_location ? "true" : "false");
  if (routed) {
    out += ",\"chosen\":" + candidate(chosen, /*runner_up=*/false) +
           ",\"decisive\":" + json_string(bgp::to_string(decisive)) +
           ",\"decisive_margin\":" + json_number(std::int64_t{decisive_margin}) +
           ",\"won_by_km\":" + json_number(won_by_km) +
           ",\"dropped_unreachable\":" +
           (candidates_dropped_unreachable ? "true" : "false") + ",\"runners_up\":[";
    for (std::size_t i = 0; i < runners_up.size(); ++i) {
      if (i != 0) out += ',';
      out += candidate(runners_up[i], /*runner_up=*/true);
    }
    out += "]";
  }
  return out + "}";
}

std::optional<bgp::Route> VnsNetwork::local_exit_route(PopId pop, net::Ipv4Address address,
                                                       bool upstreams_only) const {
  // LPM through the published FIB (same leaf set as known_prefixes_), so
  // the probe campaigns' "exit locally" path shares the data-plane fast path.
  const net::FlatFib::Leaf* leaf = live_leaf(pop, address);
  if (leaf == nullptr) return std::nullopt;
  const net::Ipv4Prefix prefix = leaf->prefix;
  const auto& site = pops_.at(pop);
  std::optional<bgp::Route> best;
  const bgp::DecisionContext ctx{site.routers[0], &fabric_.igp()};
  const auto only_kind = upstreams_only ? std::optional{bgp::NeighborKind::kUpstream}
                                        : std::nullopt;
  for (const auto router : site.routers) {
    auto candidate = fabric_.router(router).best_local_exit(prefix, only_kind);
    if (!candidate) continue;
    if (!best || bgp::prefer(*candidate, *best, ctx)) best = std::move(candidate);
  }
  return best;
}

std::vector<PopId> VnsNetwork::internal_path(PopId a, PopId b) const {
  const auto routers =
      fabric_.igp().shortest_path(pops_.at(a).routers[0], pops_.at(b).routers[0]);
  std::vector<PopId> path;
  for (const auto router : routers) {
    const PopId pop = router_pop_.at(router);
    if (pop == kNoPop) continue;
    if (path.empty() || path.back() != pop) path.push_back(pop);
  }
  return path;
}

double VnsNetwork::internal_rtt_ms(PopId a, PopId b) const {
  const auto path = internal_path(a, b);
  double rtt = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto it = link_index_.find(pop_pair_key(path[i], path[i + 1]));
    if (it != link_index_.end() && links_[it->second].up) rtt += links_[it->second].rtt_ms;
  }
  return rtt;
}

std::vector<sim::SegmentProfile> VnsNetwork::internal_segments(
    PopId a, PopId b, const topo::SegmentCatalog& catalog,
    std::span<const double> link_utilization) const {
  std::vector<sim::SegmentProfile> segments;
  const auto path = internal_path(a, b);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto it = link_index_.find(pop_pair_key(path[i], path[i + 1]));
    if (it == link_index_.end() || !links_[it->second].up) continue;
    const auto& link = links_[it->second];
    auto seg = catalog.vns_link(pops_[link.a].city.location, pops_[link.b].city.location,
                                link.long_haul);
    seg.rtt_ms = link.rtt_ms;
    // The circuit's configured size beats the catalog's generic preset, and
    // the caller's load snapshot (indexed like links()) beats the default 0.
    if (link.capacity_mbps > 0.0) seg.capacity_mbps = link.capacity_mbps;
    if (it->second < link_utilization.size()) seg.utilization = link_utilization[it->second];
    segments.push_back(std::move(seg));
  }
  return segments;
}

std::optional<std::size_t> VnsNetwork::link_index(PopId a, PopId b) const noexcept {
  const auto it = link_index_.find(pop_pair_key(a, b));
  if (it == link_index_.end()) return std::nullopt;
  return it->second;
}

void VnsNetwork::warm_reach_cache() const {
  // Every reach() call site queries an attachment's AS, so filling those
  // slots makes all later lookups read-only — safe under concurrent
  // select_ingress from the campaign thread pool.
  for (const auto& attachment : attachments_) (void)reach(attachment.as);
  reach_warmed_ = true;
}

const VnsNetwork::NeighborReach& VnsNetwork::reach(topo::AsIndex as) const {
  if (const auto it = reach_cache_.find(as); it != reach_cache_.end()) return it->second;
  // A cold miss after the pre-warm would be a write from const context —
  // the data race the pre-warm exists to eliminate.
  assert(!reach_warmed_ && "VnsNetwork::reach cold miss after warm_reach_cache()");
  NeighborReach result;
  const auto table = internet_.routes_to(as);
  result.hops.resize(internet_.as_count(), 0xffff);
  result.in_customer_cone.assign(internet_.as_count(), false);
  for (topo::AsIndex i = 0; i < internet_.as_count(); ++i) {
    if (table.reachable(i)) result.hops[i] = table.at(i).hops;
  }
  // Customer cone: everything reachable from `as` by only going down.
  std::queue<topo::AsIndex> frontier;
  frontier.push(as);
  result.in_customer_cone[as] = true;
  while (!frontier.empty()) {
    const auto current = frontier.front();
    frontier.pop();
    for (const auto customer : internet_.as_at(current).customers) {
      if (!result.in_customer_cone[customer]) {
        result.in_customer_cone[customer] = true;
        frontier.push(customer);
      }
    }
  }
  return reach_cache_.emplace(as, std::move(result)).first->second;
}

PopId VnsNetwork::select_ingress(topo::AsIndex user_as, const geo::GeoPoint& user_loc,
                                 bool geo_strategies) const {
  // Choose the neighbor AS the user's announcement-selected route enters
  // through: peer routes (cheaper, typically shorter) where the user sits in
  // the peer's customer cone, otherwise transit; fewest AS hops, then lowest
  // ASN for determinism.
  topo::AsIndex chosen = topo::kNoAs;
  int chosen_rank = 1 << 30;
  std::uint32_t chosen_hops = ~0u;
  for (const auto& attachment : attachments_) {
    const auto& r = reach(attachment.as);
    std::uint32_t hops = r.hops[user_as];
    int rank;
    if (!attachment.upstream && r.in_customer_cone[user_as]) {
      rank = 0;  // reached through the peer's own cone
    } else if (attachment.upstream && hops != 0xffff) {
      rank = 1;
    } else {
      continue;
    }
    const bool better =
        rank < chosen_rank || (rank == chosen_rank && hops < chosen_hops) ||
        (rank == chosen_rank && hops == chosen_hops && chosen != topo::kNoAs &&
         internet_.as_at(attachment.as).asn < internet_.as_at(chosen).asn);
    if (better) {
      chosen = attachment.as;
      chosen_rank = rank;
      chosen_hops = hops;
    }
  }
  if (chosen == topo::kNoAs) {
    // No policy-compliant route (isolated user): fall back to geography.
    return geo_closest_pop(user_loc);
  }

  // Among the chosen neighbor's attachments, pick the entry PoP.
  PopId best_pop = kNoPop;
  double best_km = 1e18;
  for (const auto& attachment : attachments_) {
    if (attachment.as != chosen) continue;
    if (!geo_strategies) {
      // Without regional-transit/TE/community strategies the handoff point
      // is whatever the neighbor's internal routing happens to pick —
      // geography-blind from the user's perspective.
      if (best_pop == kNoPop || attachment.pop < best_pop) best_pop = attachment.pop;
      continue;
    }
    const double km =
        geo::great_circle_km(pops_[attachment.pop].city.location, user_loc);
    if (km < best_km) {
      best_km = km;
      best_pop = attachment.pop;
    }
  }
  return best_pop == kNoPop ? geo_closest_pop(user_loc) : best_pop;
}

}  // namespace vns::core
