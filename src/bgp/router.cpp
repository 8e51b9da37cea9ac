#include "bgp/router.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"

namespace vns::bgp {

bool same_advertisement(const Route& a, const Route& b) noexcept {
  // attrs_ref() covers the old attrs/originator_id/cluster_list compares:
  // the reflection state is interned with the rest of the path attributes.
  return a.prefix == b.prefix && a.attrs_ref() == b.attrs_ref() && a.egress == b.egress &&
         a.neighbor == b.neighbor && a.learned_via_ebgp == b.learned_via_ebgp;
}

Router::Router(RouterId id, std::string name, net::Asn local_asn)
    : id_(id), name_(std::move(name)), local_asn_(local_asn) {}

void Router::add_ibgp_session(RouterId peer, bool peer_is_client) {
  assert(peer != id_);
  ibgp_sessions_.push_back({peer, peer_is_client, true});
}

void Router::add_ebgp_session(const NeighborInfo& neighbor) {
  assert(neighbor.attached_to == id_);
  ebgp_sessions_.push_back({neighbor, true});
}

bool Router::session_is_up(SessionKind kind, std::uint32_t id) const noexcept {
  if (kind == SessionKind::kIbgp) {
    for (const auto& session : ibgp_sessions_) {
      if (session.peer == id) return session.up;
    }
  } else if (kind == SessionKind::kEbgp) {
    for (const auto& session : ebgp_sessions_) {
      if (session.info.id == id) return session.up;
    }
  }
  return false;
}

bool Router::mark_session(const SessionKey& key, bool up) noexcept {
  if (key.kind == SessionKind::kIbgp) {
    for (auto& session : ibgp_sessions_) {
      if (session.peer == key.id && session.up != up) {
        session.up = up;
        return true;
      }
    }
  } else if (key.kind == SessionKind::kEbgp) {
    for (auto& session : ebgp_sessions_) {
      if (session.info.id == key.id && session.up != up) {
        session.up = up;
        return true;
      }
    }
  }
  return false;
}

ImportContext Router::make_context(const SessionKey& key) const {
  ImportContext ctx;
  ctx.receiver = id_;
  ctx.session = key.kind;
  if (key.kind == SessionKind::kEbgp) {
    ctx.neighbor = key.id;
    for (const auto& session : ebgp_sessions_) {
      if (session.info.id == key.id) {
        ctx.neighbor_kind = session.info.kind;
        break;
      }
    }
  } else if (key.kind == SessionKind::kIbgp) {
    ctx.sender = key.id;
    for (const auto& session : ibgp_sessions_) {
      if (session.peer == key.id) {
        ctx.sender_is_client = session.peer_is_client;
        break;
      }
    }
  }
  return ctx;
}

std::optional<Route> Router::import(const SessionKey& key, const Route& raw) const {
  Route route = raw;
  if (import_policy_) {
    const ImportContext ctx = make_context(key);
    if (!import_policy_(ctx, route)) return std::nullopt;
  }
  return route;
}

const Route* Router::accepted_from(const SessionKey& key,
                                   const net::Ipv4Prefix& prefix) const noexcept {
  const auto table = adj_rib_in_.find(key.packed());
  if (table == adj_rib_in_.end()) return nullptr;
  const auto it = table->second.find(prefix);
  if (it == table->second.end() || !it->second.accepted) return nullptr;
  return &*it->second.accepted;
}

std::vector<const Route*> Router::candidates(const net::Ipv4Prefix& prefix,
                                             bool* dropped_unreachable_out) const {
  if (dropped_unreachable_out != nullptr) *dropped_unreachable_out = false;
  std::vector<const Route*> result;
  result.reserve(ibgp_sessions_.size() + ebgp_sessions_.size() + 1);
  // Enumerate in configured-session order, never Adj-RIB-In map order: the
  // MED rung of `prefer` only compares within one neighbor AS, so the pick
  // can depend on enumeration order, and the map's bucket order depends on
  // which delivery first created each session slot, an accident of message
  // order.  Session config order is fixed at topology build time.
  const auto consider = [&](const SessionKey& key) {
    const Route* route = accepted_from(key, prefix);
    if (route == nullptr) return;
    // RFC 4271 §9.1.2: a route whose NEXT_HOP is unresolvable is unusable.
    // With the IGP carrying next-hop reachability, an iBGP route through an
    // egress the IGP cannot reach must be excluded — this is what makes
    // link/router failures actually divert traffic.
    if (igp_ != nullptr && route->egress != id_ && route->egress != kInvalidRouter &&
        igp_->metric(id_, route->egress) == kUnreachable) {
      if (dropped_unreachable_out != nullptr) *dropped_unreachable_out = true;
      return;
    }
    result.push_back(route);
  };
  for (const auto& session : ibgp_sessions_) {
    consider({SessionKind::kIbgp, session.peer});
  }
  for (const auto& session : ebgp_sessions_) {
    consider({SessionKind::kEbgp, session.info.id});
  }
  if (const auto it = originated_.find(prefix); it != originated_.end()) {
    result.push_back(&it->second);
  }
  return result;
}

const Route* Router::best_external_candidate(const net::Ipv4Prefix& prefix,
                                             std::optional<NeighborKind> only_kind) const {
  const Route* best = nullptr;
  const DecisionContext ctx{id_, igp_};
  for (const auto& session : ebgp_sessions_) {
    const Route* route = accepted_from({SessionKind::kEbgp, session.info.id}, prefix);
    if (route == nullptr) continue;
    if (only_kind && route->learned_from_kind != *only_kind) continue;
    if (best == nullptr || prefer(*route, *best, ctx)) best = route;
  }
  return best;
}

std::vector<Emission> Router::handle_ebgp_update(const NeighborInfo& neighbor, bool withdraw,
                                                 Route route, std::vector<RibDelta>* dirty) {
  const SessionKey key{SessionKind::kEbgp, neighbor.id};
  std::vector<Emission> out;
  const net::Ipv4Prefix prefix = route.prefix;
  auto& table = adj_rib_in_.try_emplace(key.packed(), rib_alloc<RibInEntry>()).first->second;
  if (withdraw) {
    if (table.erase(prefix) == 0) return out;  // nothing known; no-op
  } else {
    // eBGP sender loop prevention: a path already containing our AS is ours.
    if (route.attrs().as_path.contains(local_asn_)) return out;
    route.egress = id_;
    route.advertiser = id_;
    route.neighbor = neighbor.id;
    route.learned_via_ebgp = true;
    route.locally_originated = false;
    route.learned_from_kind = neighbor.kind;
    // LOCAL_PREF is not carried on eBGP, and RFC 4456 reflection state is
    // meaningless across the AS boundary; strip both.  Skip the re-intern
    // when the incoming attributes are already clean (the common case for
    // fan-out announcements sharing one interned handle).
    if (route.attrs().local_pref != kDefaultLocalPref ||
        route.attrs().originator_id != kInvalidRouter || !route.attrs().cluster_list.empty()) {
      route.update_attrs([](Attributes& attrs) {
        attrs.local_pref = kDefaultLocalPref;
        attrs.originator_id = kInvalidRouter;
        attrs.cluster_list.clear();
      });
    }
    RibInEntry& entry = table[prefix];
    entry.accepted = import(key, route);
    entry.raw = std::move(route);
  }
  decide_and_advertise(prefix, out, dirty);
  return out;
}

std::vector<Emission> Router::handle_ibgp_update(RouterId sender, bool withdraw, Route route,
                                                 std::vector<RibDelta>* dirty) {
  const SessionKey key{SessionKind::kIbgp, sender};
  std::vector<Emission> out;
  const net::Ipv4Prefix prefix = route.prefix;
  auto& table = adj_rib_in_.try_emplace(key.packed(), rib_alloc<RibInEntry>()).first->second;
  if (withdraw) {
    if (table.erase(prefix) == 0) return out;
  } else {
    // RFC 4456 loop prevention.
    if (route.attrs().originator_id == id_) return out;
    if (is_route_reflector_) {
      const auto& clusters = route.attrs().cluster_list;
      if (std::find(clusters.begin(), clusters.end(), id_) != clusters.end()) return out;
    }
    route.learned_via_ebgp = false;
    route.locally_originated = false;
    route.advertiser = sender;
    RibInEntry& entry = table[prefix];
    entry.accepted = import(key, route);
    entry.raw = std::move(route);
  }
  decide_and_advertise(prefix, out, dirty);
  return out;
}

std::vector<Emission> Router::originate(const net::Ipv4Prefix& prefix, Attributes attrs,
                                        std::vector<RibDelta>* dirty) {
  Route route;
  route.prefix = prefix;
  route.set_attrs(std::move(attrs));
  route.egress = id_;
  route.neighbor = kNoNeighbor;
  route.learned_via_ebgp = false;
  route.locally_originated = true;
  // Own routes export like customer routes (to everyone); the kind travels
  // with the route over iBGP where the locally_originated flag does not.
  route.learned_from_kind = NeighborKind::kCustomer;
  route.advertiser = id_;
  originated_[prefix] = std::move(route);
  std::vector<Emission> out;
  decide_and_advertise(prefix, out, dirty);
  return out;
}

std::vector<Emission> Router::refresh_all(std::vector<RibDelta>* dirty) {
  // Route refresh: the cached post-policy views are only valid for the
  // policy they were computed under, so re-import every raw entry first.
  for (auto& [packed, table] : adj_rib_in_) {
    const SessionKey key{static_cast<SessionKind>(packed >> 32),
                         static_cast<std::uint32_t>(packed & 0xffffffffu)};
    for (auto& [prefix, entry] : table) {
      (void)prefix;
      entry.accepted = import(key, entry.raw);
    }
  }

  // Deterministic order: collect and sort every prefix this router knows.
  std::vector<net::Ipv4Prefix> prefixes;
  for (const auto& [packed, table] : adj_rib_in_) {
    (void)packed;
    for (const auto& [prefix, entry] : table) {
      (void)entry;
      prefixes.push_back(prefix);
    }
  }
  for (const auto& [prefix, route] : originated_) {
    (void)route;
    prefixes.push_back(prefix);
  }
  for (const auto& [prefix, route] : loc_rib_) {
    (void)route;
    prefixes.push_back(prefix);
  }
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());

  std::vector<Emission> out;
  for (const auto& prefix : prefixes) decide_and_advertise(prefix, out, dirty);
  return out;
}

std::vector<Emission> Router::handle_session_down(const SessionKey& key,
                                                  std::vector<RibDelta>* dirty) {
  std::vector<Emission> out;
  if (!mark_session(key, false)) return out;
  // The per-session prefix index is the session's Adj-RIB-In itself: exactly
  // the prefixes it contributed candidates for.
  std::vector<net::Ipv4Prefix> affected;
  if (const auto it = adj_rib_in_.find(key.packed()); it != adj_rib_in_.end()) {
    affected.reserve(it->second.size());
    for (const auto& [prefix, entry] : it->second) {
      (void)entry;
      affected.push_back(prefix);
    }
    adj_rib_in_.erase(it);
  }
  // What we had advertised over the session dies with it; no withdraws are
  // sent (the peer flushes symmetrically).
  adj_rib_out_.erase(key.packed());
  std::sort(affected.begin(), affected.end());
  for (const auto& prefix : affected) decide_and_advertise(prefix, out, dirty);
  return out;
}

std::vector<Emission> Router::handle_session_up(const SessionKey& key) {
  std::vector<Emission> out;
  if (!mark_session(key, true)) return out;
  // The peer lost all state with the session: advertise our current view,
  // prefix by prefix in deterministic order.  Everything this router can
  // advertise derives from its Loc-RIB (best-external routes exist only for
  // prefixes whose decision ran, which leaves a Loc-RIB entry whenever any
  // acceptable candidate exists).
  std::vector<net::Ipv4Prefix> prefixes;
  prefixes.reserve(loc_rib_.size());
  for (const auto& [prefix, route] : loc_rib_) {
    (void)route;
    prefixes.push_back(prefix);
  }
  std::sort(prefixes.begin(), prefixes.end());
  for (const auto& prefix : prefixes) {
    AdvertisePlan plan = make_plan(prefix);
    if (key.kind == SessionKind::kIbgp) {
      for (const auto& session : ibgp_sessions_) {
        if (session.peer == key.id) {
          sync_session(prefix, session, plan, out);
          break;
        }
      }
    } else if (key.kind == SessionKind::kEbgp) {
      for (const auto& session : ebgp_sessions_) {
        if (session.info.id == key.id) {
          sync_session(prefix, session, plan, out);
          break;
        }
      }
    }
  }
  return out;
}

std::vector<Emission> Router::handle_igp_change(std::span<const IgpMetric> before,
                                               std::vector<RibDelta>* dirty) {
  assert(igp_ != nullptr);
  std::vector<Emission> out;
  const std::span<const IgpMetric> after = igp_->distances(id_);
  if (std::equal(before.begin(), before.end(), after.begin(), after.end())) return out;
  bool reachability_changed = before.size() != after.size();
  for (std::size_t i = 0; !reachability_changed && i < after.size(); ++i) {
    reachability_changed = (before[i] == kUnreachable) != (after[i] == kUnreachable);
  }

  std::vector<net::Ipv4Prefix> affected;
  if (reachability_changed) {
    // Revisit (a) every IGP-dependent prefix and (b) prefixes whose
    // installed best egress the IGP can no longer reach.  All other loc-RIB
    // entries are provably unaffected: their outcome was decided strictly
    // above the IGP rung with every candidate still resolvable.
    affected.reserve(igp_dependent_.size());
    for (const auto& [prefix, ties] : igp_dependent_) {
      (void)ties;
      affected.push_back(prefix);
    }
    for (const auto& [prefix, route] : loc_rib_) {
      if (igp_dependent_.contains(prefix)) continue;
      if (route.egress != id_ && route.egress != kInvalidRouter &&
          igp_->metric(id_, route.egress) == kUnreachable) {
        affected.push_back(prefix);
      }
    }
  } else {
    // Same candidates everywhere, so a decision can move only through the
    // metric order of its tie set.  Prefixes share a handful of tie sets
    // (a PoP's two routers, say): judge each distinct set once.
    std::unordered_map<std::uint64_t, bool> moved;
    for (const auto& [prefix, ties] : igp_dependent_) {
      const auto [verdict, fresh] = moved.try_emplace(ties.bits(), false);
      if (fresh) verdict->second = tie_order_moved(ties, before, after);
      if (verdict->second) affected.push_back(prefix);
    }
  }
  std::sort(affected.begin(), affected.end());
  obs::MetricsRegistry::global().add(obs::metric("convergence.igp_redecisions"),
                                     affected.size());
  for (const auto& prefix : affected) decide_and_advertise(prefix, out, dirty);
  return out;
}

void Router::decide_and_advertise(const net::Ipv4Prefix& prefix, std::vector<Emission>& out,
                                  std::vector<RibDelta>* dirty) {
  bool dropped_unreachable = false;
  const auto routes = candidates(prefix, &dropped_unreachable);
  const DecisionContext ctx{id_, igp_};
  TieSet ties;
  const std::size_t best = select_best(std::span<const Route* const>{routes}, ctx, &ties);
  // Structural change detection for the RIB-delta protocol: a delivery that
  // re-decides to the same Loc-RIB entry produces no delta (Route::operator==
  // is exact — interning makes the attrs compare one pointer compare).
  const auto it = loc_rib_.find(prefix);
  bool changed = false;
  if (best == static_cast<std::size_t>(-1)) {
    if (it != loc_rib_.end()) {
      loc_rib_.erase(it);
      changed = true;
    }
  } else if (it == loc_rib_.end()) {
    // One flyweight copy of the winning view; its attributes are shared.
    loc_rib_.emplace(prefix, *routes[best]);
    changed = true;
  } else if (!(it->second == *routes[best])) {
    it->second = *routes[best];
    changed = true;
  }
  if (changed && dirty != nullptr) dirty->push_back(RibDelta{id_, prefix});
  // A prefix stays on the IGP watchlist while its outcome could change with
  // IGP costs: a tie fell through to the IGP rung or below, or a candidate
  // was suppressed for unreachability (and would return on repair).
  if (!ties.empty() || dropped_unreachable) {
    igp_dependent_.insert_or_assign(prefix, ties);
  } else {
    igp_dependent_.erase(prefix);
  }
  sync_adj_rib_out(prefix, out);
}

Router::AdvertisePlan Router::make_plan(const net::Ipv4Prefix& prefix) const {
  AdvertisePlan plan;
  const auto it = loc_rib_.find(prefix);
  plan.best = it == loc_rib_.end() ? nullptr : &it->second;
  plan.ibgp_best = plan.best;
  if (plan.ibgp_best != nullptr && plan.ibgp_best->attrs().has_community(kNoAdvertise)) {
    plan.ibgp_best = nullptr;
  }
  if (plan.ibgp_best != nullptr && is_route_reflector_ &&
      !plan.ibgp_best->locally_originated && !plan.ibgp_best->learned_via_ebgp) {
    for (const auto& session : ibgp_sessions_) {
      if (session.peer == plan.ibgp_best->advertiser) {
        plan.learned_from_client = session.peer_is_client;
        break;
      }
    }
  }
  return plan;
}

const Route* Router::route_for_ibgp_peer(const net::Ipv4Prefix& prefix,
                                         const IbgpSession& session,
                                         AdvertisePlan& plan) const {
  const Route* best = plan.ibgp_best;
  if (best != nullptr) {
    if (best->locally_originated || best->learned_via_ebgp) {
      // Own/eBGP routes go to every iBGP session.
      return best;
    }
    if (is_route_reflector_) {
      // Reflection: client routes to everyone, non-client routes to clients
      // only; never back to the router we learned it from.
      const bool eligible = plan.learned_from_client || session.peer_is_client;
      if (eligible && session.peer != best->advertiser) {
        if (!plan.reflected_ready) {
          plan.reflected_ready = true;
          Route reflected = *best;
          reflected.update_attrs([&](Attributes& attrs) {
            if (attrs.originator_id == kInvalidRouter) {
              attrs.originator_id = best->advertiser;
            }
            attrs.cluster_list.push_back(id_);
          });
          plan.reflected = std::move(reflected);
        }
        return &*plan.reflected;
      }
    }
  }

  // Best is absent-or-iBGP at this border router: the "best external"
  // feature keeps the best eBGP-learned route visible to the RR / peers,
  // which is the paper's fix for hidden routes (§3.2).
  if (best_external_) {
    if (!plan.external_ready) {
      plan.external_ready = true;
      const Route* external = best_external_candidate(prefix);
      if (external != nullptr &&
          !(best != nullptr && same_advertisement(*external, *best)) &&
          !external->attrs().has_community(kNoAdvertise)) {
        plan.external = *external;
      }
    }
    if (plan.external) return &*plan.external;
  }
  return nullptr;
}

const Route* Router::route_for_neighbor(const NeighborInfo& neighbor,
                                        AdvertisePlan& plan) const {
  const Route* best = plan.best;
  if (best == nullptr) return nullptr;
  if (best->attrs().has_community(kNoExport) || best->attrs().has_community(kNoAdvertise)) {
    return nullptr;
  }
  // Do not hand a route back to the very neighbor it came from.
  if (best->learned_via_ebgp && best->neighbor == neighbor.id) return nullptr;
  if (export_policy_) {
    if (!export_policy_(*best, neighbor.id, neighbor.kind)) return nullptr;
  } else {
    // Default Gao–Rexford: originated and customer-learned routes export to
    // everyone; peer/upstream-learned routes export to customers only.
    const bool from_customer =
        best->locally_originated || best->learned_from_kind == NeighborKind::kCustomer;
    if (!from_customer && neighbor.kind != NeighborKind::kCustomer) return nullptr;
  }
  if (!plan.exported_ready) {
    plan.exported_ready = true;
    Route exported = *best;
    exported.update_attrs([this](Attributes& attrs) {
      attrs.as_path = attrs.as_path.prepended(local_asn_);
      attrs.local_pref = kDefaultLocalPref;  // not carried on eBGP
    });
    exported.egress = id_;
    plan.exported = std::move(exported);
  }
  return &*plan.exported;
}

void Router::sync_session(const net::Ipv4Prefix& prefix, const IbgpSession& session,
                          AdvertisePlan& plan, std::vector<Emission>& out) {
  const SessionKey key{SessionKind::kIbgp, session.peer};
  const Route* desired = route_for_ibgp_peer(prefix, session, plan);
  auto& sent = adj_rib_out_.try_emplace(key.packed(), rib_alloc<Route>()).first->second;
  const auto it = sent.find(prefix);
  if (desired != nullptr) {
    if (it != sent.end() && same_advertisement(it->second, *desired)) return;
    sent.insert_or_assign(prefix, *desired);
    out.push_back({id_, session.peer, kNoNeighbor, false, *desired});
  } else if (it != sent.end()) {
    sent.erase(it);
    Route withdraw_route;
    withdraw_route.prefix = prefix;
    out.push_back({id_, session.peer, kNoNeighbor, true, std::move(withdraw_route)});
  }
}

void Router::sync_session(const net::Ipv4Prefix& prefix, const EbgpSession& session,
                          AdvertisePlan& plan, std::vector<Emission>& out) {
  const SessionKey key{SessionKind::kEbgp, session.info.id};
  const Route* desired = route_for_neighbor(session.info, plan);
  auto& sent = adj_rib_out_.try_emplace(key.packed(), rib_alloc<Route>()).first->second;
  const auto it = sent.find(prefix);
  if (desired != nullptr) {
    if (it != sent.end() && same_advertisement(it->second, *desired)) return;
    sent.insert_or_assign(prefix, *desired);
    out.push_back({id_, kInvalidRouter, session.info.id, false, *desired});
  } else if (it != sent.end()) {
    sent.erase(it);
    Route withdraw_route;
    withdraw_route.prefix = prefix;
    out.push_back({id_, kInvalidRouter, session.info.id, true, std::move(withdraw_route)});
  }
}

void Router::sync_adj_rib_out(const net::Ipv4Prefix& prefix, std::vector<Emission>& out) {
  AdvertisePlan plan = make_plan(prefix);
  for (const auto& session : ibgp_sessions_) {
    if (session.up) sync_session(prefix, session, plan, out);
  }
  for (const auto& session : ebgp_sessions_) {
    if (session.up) sync_session(prefix, session, plan, out);
  }
}

const Route* Router::best_route(const net::Ipv4Prefix& prefix) const noexcept {
  const auto it = loc_rib_.find(prefix);
  return it == loc_rib_.end() ? nullptr : &it->second;
}

DecisionTrace Router::explain(const net::Ipv4Prefix& prefix) const {
  bool dropped_unreachable = false;
  const auto routes = candidates(prefix, &dropped_unreachable);
  DecisionTrace trace =
      trace_decision(std::span<const Route* const>{routes}, DecisionContext{id_, igp_});
  trace.candidates_dropped_unreachable = dropped_unreachable;
  return trace;
}

const Route* Router::advertised_to_neighbor(NeighborId neighbor,
                                            const net::Ipv4Prefix& prefix) const noexcept {
  const SessionKey key{SessionKind::kEbgp, neighbor};
  const auto table = adj_rib_out_.find(key.packed());
  if (table == adj_rib_out_.end()) return nullptr;
  const auto it = table->second.find(prefix);
  return it == table->second.end() ? nullptr : &it->second;
}

std::size_t Router::rib_in_size() const noexcept {
  std::size_t total = 0;
  for (const auto& [key, table] : adj_rib_in_) {
    (void)key;
    total += table.size();
  }
  return total;
}

}  // namespace vns::bgp
