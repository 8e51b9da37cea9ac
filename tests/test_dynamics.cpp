// Tests for the event-driven control plane: session and link churn, whole
// router outages, IGP-driven hot-potato re-tie-break, the VNS-level fault
// APIs, and determinism of fault schedules replayed through the FIFO bus.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "bgp/attr_table.hpp"
#include "bgp/fabric.hpp"
#include "geo/geo.hpp"
#include "measure/workbench.hpp"
#include "obs/metrics.hpp"

namespace vns {
namespace {

using bgp::Fabric;
using bgp::NeighborId;
using bgp::NeighborKind;
using bgp::Route;
using bgp::RouterId;
using net::Ipv4Prefix;

const Ipv4Prefix kP1 = Ipv4Prefix::parse("203.0.113.0/24").value();
const Ipv4Prefix kP2 = Ipv4Prefix::parse("198.51.100.0/24").value();

bgp::Attributes attrs_with_path(std::vector<net::Asn> path) {
  bgp::Attributes attrs;
  attrs.as_path = bgp::AsPath{std::move(path)};
  return attrs;
}

/// The minimal Fig. 2 shape: three border routers, one RR.
struct ChurnFixture {
  Fabric fabric{65000};
  RouterId a, b, c, rr;
  NeighborId up_a, peer_b, up_c;

  ChurnFixture() {
    a = fabric.add_router("A");
    b = fabric.add_router("B");
    c = fabric.add_router("C");
    rr = fabric.add_router("RR");
    fabric.add_rr_client_session(rr, a);
    fabric.add_rr_client_session(rr, b);
    fabric.add_rr_client_session(rr, c);
    fabric.add_igp_link(a, b, 10);
    fabric.add_igp_link(b, c, 10);
    fabric.add_igp_link(a, c, 30);
    fabric.add_igp_link(a, rr, 1);
    fabric.add_igp_link(b, rr, 1);
    fabric.add_igp_link(c, rr, 1);
    for (RouterId r : {a, b, c}) fabric.router(r).set_advertise_best_external(true);
    up_a = fabric.add_neighbor(a, 174, NeighborKind::kUpstream, "tier1-at-A");
    peer_b = fabric.add_neighbor(b, 6939, NeighborKind::kPeer, "peer-at-B");
    up_c = fabric.add_neighbor(c, 3356, NeighborKind::kUpstream, "tier1-at-C");
  }

  void announce_defaults() {
    fabric.announce(up_a, kP1, attrs_with_path({174, 400}));
    fabric.announce(up_a, kP2, attrs_with_path({174, 500}));
    fabric.announce(up_c, kP2, attrs_with_path({3356, 500}));
    fabric.run_to_convergence();
  }
};

/// Loc-RIBs of every router plus the export sink of every neighbor —
/// the full observable control-plane state.
struct FabricState {
  std::vector<std::unordered_map<Ipv4Prefix, Route>> loc_ribs;
  std::vector<std::unordered_map<Ipv4Prefix, Route>> exports;
};

FabricState capture(const Fabric& fabric) {
  FabricState state;
  for (RouterId r = 0; r < fabric.router_count(); ++r) {
    const auto& rib = fabric.router(r).loc_rib();
    state.loc_ribs.emplace_back(rib.begin(), rib.end());
  }
  for (NeighborId n = 0; n < fabric.neighbor_count(); ++n) {
    state.exports.push_back(fabric.exported_to(n));
  }
  return state;
}

void expect_state_eq(const FabricState& actual, const FabricState& expected) {
  ASSERT_EQ(actual.loc_ribs.size(), expected.loc_ribs.size());
  for (std::size_t r = 0; r < actual.loc_ribs.size(); ++r) {
    EXPECT_EQ(actual.loc_ribs[r], expected.loc_ribs[r]) << "loc-RIB of router " << r;
  }
  ASSERT_EQ(actual.exports.size(), expected.exports.size());
  for (std::size_t n = 0; n < actual.exports.size(); ++n) {
    EXPECT_EQ(actual.exports[n], expected.exports[n]) << "exports to neighbor " << n;
  }
}

// ------------------------------------------- eBGP session churn -------------

TEST(Dynamics, EbgpSessionDownWithdrawsExactlyItsRoutes) {
  ChurnFixture fx;
  fx.announce_defaults();
  const auto before = capture(fx.fabric);

  ASSERT_TRUE(fx.fabric.fail_session(fx.up_a));
  fx.fabric.run_to_convergence();

  // kP1 only existed through up_a: gone everywhere.
  for (RouterId r : {fx.a, fx.b, fx.c, fx.rr}) {
    EXPECT_EQ(fx.fabric.router(r).best_route(kP1), nullptr) << "router " << r;
  }
  // kP2 had an alternative at C: everyone reconverges onto it.
  for (RouterId r : {fx.a, fx.b, fx.c, fx.rr}) {
    const Route* best = fx.fabric.router(r).best_route(kP2);
    ASSERT_NE(best, nullptr) << "router " << r;
    EXPECT_EQ(best->egress, fx.c) << "router " << r;
  }
  // The neighbor's view of us died with the TCP session.
  EXPECT_TRUE(fx.fabric.exported_to(fx.up_a).empty());

  // Repair: VNS re-advertises its exports; the neighbor replays its table.
  ASSERT_TRUE(fx.fabric.restore_session(fx.up_a));
  fx.fabric.run_to_convergence();
  fx.fabric.announce(fx.up_a, kP1, attrs_with_path({174, 400}));
  fx.fabric.announce(fx.up_a, kP2, attrs_with_path({174, 500}));
  fx.fabric.run_to_convergence();
  expect_state_eq(capture(fx.fabric), before);
}

TEST(Dynamics, AnnounceOnDownedSessionThrows) {
  ChurnFixture fx;
  fx.announce_defaults();
  ASSERT_TRUE(fx.fabric.fail_session(fx.up_a));
  fx.fabric.run_to_convergence();
  EXPECT_THROW(fx.fabric.announce(fx.up_a, kP1, attrs_with_path({174, 400})), std::logic_error);
  EXPECT_THROW(fx.fabric.withdraw(fx.up_a, kP1), std::logic_error);
  ASSERT_TRUE(fx.fabric.restore_session(fx.up_a));
}

// ------------------------------------------- iBGP session churn -------------

TEST(Dynamics, IbgpSessionDownIsolatesAndRestoresBitIdentically) {
  ChurnFixture fx;
  fx.announce_defaults();
  const auto before = capture(fx.fabric);

  ASSERT_TRUE(fx.fabric.fail_session(fx.rr, fx.a));
  fx.fabric.run_to_convergence();

  // A keeps its own eBGP routes but loses everything reflected...
  ASSERT_NE(fx.fabric.router(fx.a).best_route(kP1), nullptr);
  EXPECT_TRUE(fx.fabric.router(fx.a).best_route(kP2)->learned_via_ebgp);
  // ...and the rest of the AS loses A's contributions.
  EXPECT_EQ(fx.fabric.router(fx.b).best_route(kP1), nullptr);
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kP1), nullptr);
  EXPECT_EQ(fx.fabric.router(fx.b).best_route(kP2)->egress, fx.c);

  ASSERT_TRUE(fx.fabric.restore_session(fx.rr, fx.a));
  fx.fabric.run_to_convergence();
  expect_state_eq(capture(fx.fabric), before);
}

TEST(Dynamics, FailSessionTwiceIsIdempotent) {
  ChurnFixture fx;
  fx.announce_defaults();
  ASSERT_TRUE(fx.fabric.fail_session(fx.rr, fx.a));
  EXPECT_FALSE(fx.fabric.fail_session(fx.rr, fx.a));
  EXPECT_FALSE(fx.fabric.fail_session(fx.a, fx.rr));  // same session, other side
  fx.fabric.run_to_convergence();
  ASSERT_TRUE(fx.fabric.restore_session(fx.rr, fx.a));
  EXPECT_FALSE(fx.fabric.restore_session(fx.rr, fx.a));
  fx.fabric.run_to_convergence();
}

TEST(Dynamics, InFlightMessagesToDownedSessionAreDropped) {
  ChurnFixture fx;
  // Queue an update toward the RR, then tear the session down before the
  // fabric delivers it: the message must be dropped, not delivered.
  fx.fabric.announce(fx.up_a, kP1, attrs_with_path({174, 400}));
  ASSERT_TRUE(fx.fabric.fail_session(fx.rr, fx.a));
  fx.fabric.run_to_convergence();
  EXPECT_GE(fx.fabric.messages_dropped(), 1u);
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kP1), nullptr);
}

// ------------------------------------------- IGP link churn -----------------

/// Two egresses with equal BGP attributes: the RR's choice is decided at the
/// IGP (hot-potato) rung, so link churn must flip it.
struct HotPotatoFixture {
  Fabric fabric{65000};
  RouterId e1, e2, rr;
  NeighborId up1, up2;

  HotPotatoFixture() {
    e1 = fabric.add_router("E1");
    e2 = fabric.add_router("E2");
    rr = fabric.add_router("RR");
    fabric.add_rr_client_session(rr, e1);
    fabric.add_rr_client_session(rr, e2);
    fabric.add_igp_link(rr, e1, 10);
    fabric.add_igp_link(rr, e2, 20);
    fabric.add_igp_link(e1, e2, 5);
    up1 = fabric.add_neighbor(e1, 174, NeighborKind::kUpstream, "up1");
    up2 = fabric.add_neighbor(e2, 3356, NeighborKind::kUpstream, "up2");
    // Equal-length paths from different first-hop ASes: every rung above
    // the IGP metric ties (MED incomparable), so the RR decides hot-potato.
    fabric.announce(up1, kP1, attrs_with_path({174, 400}));
    fabric.announce(up2, kP1, attrs_with_path({3356, 400}));
    fabric.run_to_convergence();
  }
};

TEST(Dynamics, IgpChangeRerunsHotPotatoTieBreak) {
  HotPotatoFixture fx;
  ASSERT_NE(fx.fabric.router(fx.rr).best_route(kP1), nullptr);
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kP1)->egress, fx.e1);  // metric 10 < 20
  EXPECT_GE(fx.fabric.router(fx.rr).igp_dependent_count(), 1u);
  const auto before = capture(fx.fabric);

  // Losing rr-e1 reroutes the RR to E1 via E2 (20+5=25), so E2 (20) wins.
  ASSERT_TRUE(fx.fabric.fail_link(fx.rr, fx.e1));
  fx.fabric.run_to_convergence();
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kP1)->egress, fx.e2);

  ASSERT_TRUE(fx.fabric.restore_link(fx.rr, fx.e1));
  fx.fabric.run_to_convergence();
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kP1)->egress, fx.e1);
  expect_state_eq(capture(fx.fabric), before);
}

// ------------------------------------------- IGP re-decisions ---------------

std::uint64_t igp_redecisions() {
  return obs::MetricsRegistry::global().count(obs::metric("convergence.igp_redecisions"));
}

TEST(Dynamics, IgpOrderFlipRedecidesThePrefixAndMovesTheBest) {
  HotPotatoFixture fx;
  const std::uint64_t before = igp_redecisions();
  // The RR's metrics go from E1 10 < E2 15 to E1 25 > E2 20: kP1 at the RR
  // is the one decision whose tie order moved.
  ASSERT_TRUE(fx.fabric.fail_link(fx.rr, fx.e1));
  EXPECT_EQ(igp_redecisions() - before, 1u);
  fx.fabric.run_to_convergence();
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kP1)->egress, fx.e2);
}

TEST(Dynamics, UnchangedDistanceRowRedecidesNothing) {
  HotPotatoFixture fx;
  ASSERT_GE(fx.fabric.router(fx.rr).igp_dependent_count(), 1u);
  const std::size_t delivered = fx.fabric.messages_delivered();
  const std::uint64_t before = igp_redecisions();
  // RR-E2 (20) carries no shortest path (RR reaches E2 at 15 through E1),
  // so every router's distance row survives its loss.
  ASSERT_TRUE(fx.fabric.fail_link(fx.rr, fx.e2));
  EXPECT_EQ(igp_redecisions() - before, 0u);
  EXPECT_EQ(fx.fabric.run_to_convergence(), 0u);
  EXPECT_EQ(fx.fabric.messages_delivered(), delivered);
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kP1)->egress, fx.e1);
}

TEST(Dynamics, IgpShiftKeepingTieOrderRedecidesNothing) {
  // The RR reaches both egresses through hub H.  Losing its direct trunk to
  // H (10) detours through B (15 + 5) and lengthens both paths by 10: the
  // RR's row changes, but E1 15 < E2 18 becomes 25 < 28.
  Fabric fabric{65000};
  const RouterId e1 = fabric.add_router("E1");
  const RouterId e2 = fabric.add_router("E2");
  const RouterId hub = fabric.add_router("H");
  const RouterId backup = fabric.add_router("B");
  const RouterId rr = fabric.add_router("RR");
  fabric.add_rr_client_session(rr, e1);
  fabric.add_rr_client_session(rr, e2);
  fabric.add_igp_link(rr, hub, 10);
  fabric.add_igp_link(rr, backup, 15);
  fabric.add_igp_link(backup, hub, 5);
  fabric.add_igp_link(hub, e1, 5);
  fabric.add_igp_link(hub, e2, 8);
  const NeighborId up1 = fabric.add_neighbor(e1, 174, NeighborKind::kUpstream, "up1");
  const NeighborId up2 = fabric.add_neighbor(e2, 3356, NeighborKind::kUpstream, "up2");
  fabric.announce(up1, kP1, attrs_with_path({174, 400}));
  fabric.announce(up2, kP1, attrs_with_path({3356, 400}));
  fabric.run_to_convergence();
  ASSERT_EQ(fabric.router(rr).best_route(kP1)->egress, e1);
  ASSERT_GE(fabric.router(rr).igp_dependent_count(), 1u);

  const std::uint64_t before = igp_redecisions();
  ASSERT_TRUE(fabric.fail_link(rr, hub));
  EXPECT_EQ(fabric.igp().metric(rr, e1), 25u);
  EXPECT_EQ(fabric.igp().metric(rr, e2), 28u);
  EXPECT_EQ(igp_redecisions() - before, 0u);
  EXPECT_EQ(fabric.run_to_convergence(), 0u);
  EXPECT_EQ(fabric.router(rr).best_route(kP1)->egress, e1);
}

TEST(Dynamics, PartitioningLinkFailureDropsUnreachableNextHops) {
  HotPotatoFixture fx;
  // Cutting both of E1's links leaves its egress IGP-unreachable from the
  // RR: the candidate is unusable (RFC 4271 §9.1.2) even though the iBGP
  // route object is still in the Adj-RIB-In.
  ASSERT_TRUE(fx.fabric.fail_link(fx.rr, fx.e1));
  ASSERT_TRUE(fx.fabric.fail_link(fx.e1, fx.e2));
  fx.fabric.run_to_convergence();
  const Route* at_rr = fx.fabric.router(fx.rr).best_route(kP1);
  ASSERT_NE(at_rr, nullptr);
  EXPECT_EQ(at_rr->egress, fx.e2);

  ASSERT_TRUE(fx.fabric.restore_link(fx.rr, fx.e1));
  ASSERT_TRUE(fx.fabric.restore_link(fx.e1, fx.e2));
  fx.fabric.run_to_convergence();
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kP1)->egress, fx.e1);
}

TEST(Dynamics, FailUnknownLinkReturnsFalse) {
  HotPotatoFixture fx;
  EXPECT_FALSE(fx.fabric.fail_link(fx.e1, 99));
  EXPECT_FALSE(fx.fabric.restore_link(fx.rr, fx.e1));  // not down
}

// ------------------------------------------- whole-router churn -------------

TEST(Dynamics, RouterFailRestoreIsBitIdentical) {
  ChurnFixture fx;
  fx.announce_defaults();
  const auto before = capture(fx.fabric);

  fx.fabric.fail_router(fx.c);
  fx.fabric.run_to_convergence();
  EXPECT_TRUE(fx.fabric.router_is_down(fx.c));
  // kP2's alternative at C is gone: everyone falls back to A's route.
  for (RouterId r : {fx.a, fx.b, fx.rr}) {
    const Route* best = fx.fabric.router(r).best_route(kP2);
    ASSERT_NE(best, nullptr) << "router " << r;
    EXPECT_EQ(best->egress, fx.a) << "router " << r;
  }
  EXPECT_TRUE(fx.fabric.exported_to(fx.up_c).empty());

  fx.fabric.restore_router(fx.c);
  fx.fabric.run_to_convergence();
  EXPECT_FALSE(fx.fabric.router_is_down(fx.c));
  // The restored router's eBGP neighbor replays its table.
  fx.fabric.announce(fx.up_c, kP2, attrs_with_path({3356, 500}));
  fx.fabric.run_to_convergence();
  expect_state_eq(capture(fx.fabric), before);
}

TEST(Dynamics, ConvergenceBudgetErrorCarriesDiagnostics) {
  ChurnFixture fx;
  for (int i = 0; i < 8; ++i) {
    const Ipv4Prefix prefix{net::Ipv4Address{static_cast<std::uint32_t>((i + 1) << 16)}, 24};
    fx.fabric.announce(fx.up_a, prefix, attrs_with_path({174, static_cast<net::Asn>(900 + i)}));
  }
  try {
    fx.fabric.run_to_convergence(1);
    FAIL() << "expected budget exhaustion";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("queue depth"), std::string::npos) << message;
    EXPECT_NE(message.find("delivered"), std::string::npos) << message;
    EXPECT_NE(message.find("hottest queued prefixes"), std::string::npos) << message;
  }
}

// ------------------------------------------- VNS-level faults ---------------

TEST(Dynamics, LongHaulLinkFailureKeepsAllPopsReachable) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();

  std::vector<std::pair<core::PopId, core::PopId>> long_hauls;
  for (const auto& link : vns.links()) {
    if (link.long_haul) long_hauls.emplace_back(link.a, link.b);
  }
  ASSERT_FALSE(long_hauls.empty());

  for (const auto& [la, lb] : long_hauls) {
    const double baseline = vns.internal_rtt_ms(la, lb);
    ASSERT_TRUE(vns.fail_pop_link(la, lb));
    for (core::PopId x = 0; x < vns.pops().size(); ++x) {
      for (core::PopId y = x + 1; y < vns.pops().size(); ++y) {
        const auto path = vns.internal_path(x, y);
        EXPECT_GT(path.size(), 1u)
            << vns.pop(x).name << "->" << vns.pop(y).name << " unreachable with "
            << vns.pop(la).name << "-" << vns.pop(lb).name << " down";
      }
    }
    // The direct circuit is gone, so the pair detours (strictly longer).
    EXPECT_GT(vns.internal_rtt_ms(la, lb), baseline);
    ASSERT_TRUE(vns.restore_pop_link(la, lb));
    EXPECT_DOUBLE_EQ(vns.internal_rtt_ms(la, lb), baseline);
  }
}

TEST(Dynamics, AttrTableStableAcrossLongHaulChurn) {
  // The all-pairs long-haul fail/restore schedule must leave the interned
  // path-attribute table exactly where it started: churn may only move
  // handles around, never leak nodes (refcount bug) or grow the live set
  // (canonicalization bug producing near-duplicate attribute sets).
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();

  std::vector<std::pair<core::PopId, core::PopId>> long_hauls;
  for (const auto& link : vns.links()) {
    if (link.long_haul) long_hauls.emplace_back(link.a, link.b);
  }
  ASSERT_FALSE(long_hauls.empty());

  const auto before = bgp::AttrTable::global().stats();
  for (const auto& [la, lb] : long_hauls) {
    ASSERT_TRUE(vns.fail_pop_link(la, lb));
    ASSERT_TRUE(vns.restore_pop_link(la, lb));
  }
  const auto after = bgp::AttrTable::global().stats();
  EXPECT_EQ(after.unique_live, before.unique_live);
  EXPECT_EQ(after.live_refs, before.live_refs);
  EXPECT_EQ(after.peak_unique, before.peak_unique)
      << "churn materialized attribute sets initial convergence never built";
}

TEST(Dynamics, GeoEgressFallsBackToNextNearestPop) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& w = *world;
  w.vns().set_geo_routing(true);
  const auto viewpoint = *w.vns().find_pop("AMS");
  const auto rr_pop = w.vns().pop_of_router(w.vns().reflector());

  std::size_t tested = 0;
  for (std::size_t id = 0; id < w.internet().prefixes().size() && tested < 5; ++id) {
    const auto& info = w.internet().prefix(id);
    const auto reported = w.geoip().lookup(info.prefix);
    if (!reported) continue;
    const auto egress = w.vns().egress_pop(viewpoint, info.prefix.first_host());
    if (!egress || *egress == viewpoint || *egress == rr_pop) continue;

    // The next-nearest PoP by reported location, with a two-LOCAL_PREF-bucket
    // margin so quantization cannot blur the expected winner.
    core::PopId nearest = core::kNoPop;
    double nearest_km = 1e18, second_km = 1e18;
    for (const auto& pop : w.vns().pops()) {
      if (pop.id == *egress) continue;
      const double km = geo::great_circle_km(pop.city.location, *reported);
      if (km < nearest_km) {
        second_km = nearest_km;
        nearest_km = km;
        nearest = pop.id;
      } else if (km < second_km) {
        second_km = km;
      }
    }
    if (second_km - nearest_km < 2.0 * w.vns().config().lp_km_per_point) continue;

    ++tested;
    w.vns().fail_pop(*egress);
    const auto fallback = w.vns().egress_pop(viewpoint, info.prefix.first_host());
    ASSERT_TRUE(fallback.has_value()) << "prefix " << info.prefix.to_string();
    EXPECT_EQ(*fallback, nearest)
        << "prefix " << info.prefix.to_string() << ": expected fallback to "
        << w.vns().pop(nearest).name << ", got " << w.vns().pop(*fallback).name;
    w.vns().restore_pop(*egress);
    const auto recovered = w.vns().egress_pop(viewpoint, info.prefix.first_host());
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(*recovered, *egress);
  }
  EXPECT_GT(tested, 0u) << "no prefix with an unambiguous next-nearest PoP in the sample";
}

TEST(Dynamics, FaultScheduleIsDeterministicAcrossRunsAndThreads) {
  auto make_report = [](int threads) {
    auto config = measure::WorkbenchConfig::small(7);
    config.threads = threads;
    auto world = measure::Workbench::build(config);

    core::PopId la = core::kNoPop, lb = core::kNoPop;
    for (const auto& link : world->vns().links()) {
      if (link.long_haul) {
        la = link.a;
        lb = link.b;
        break;
      }
    }
    const measure::FaultEvent schedule[] = {
        {30.0, measure::FaultEvent::Kind::kLink, true, la, lb, 0},
        {60.0, measure::FaultEvent::Kind::kUpstream, true, 0, core::kNoPop, 0},
        {120.0, measure::FaultEvent::Kind::kLink, false, la, lb, 0},
        {150.0, measure::FaultEvent::Kind::kUpstream, false, 0, core::kNoPop, 0},
    };
    measure::FailoverConfig config2;
    config2.horizon_s = 200.0;
    config2.probe_interval_s = 10.0;
    auto report = world->run_failover_probes(schedule, config2);
    return std::make_pair(std::move(report), world->vns().fabric().messages_delivered());
  };

  const auto [first, first_delivered] = make_report(1);
  const auto [second, second_delivered] = make_report(4);

  EXPECT_EQ(first_delivered, second_delivered);
  EXPECT_EQ(first.faults_applied, second.faults_applied);
  EXPECT_EQ(first.repairs_applied, second.repairs_applied);
  ASSERT_EQ(first.samples.size(), second.samples.size());
  for (std::size_t i = 0; i < first.samples.size(); ++i) {
    EXPECT_EQ(first.samples[i].t_s, second.samples[i].t_s) << "sample " << i;
    EXPECT_EQ(first.samples[i].pair, second.samples[i].pair) << "sample " << i;
    EXPECT_EQ(first.samples[i].rtt_ms, second.samples[i].rtt_ms) << "sample " << i;
    EXPECT_EQ(first.samples[i].reachable, second.samples[i].reachable) << "sample " << i;
    EXPECT_EQ(first.samples[i].phase, second.samples[i].phase) << "sample " << i;
  }
  EXPECT_EQ(first.during_fault.probes, second.during_fault.probes);
  EXPECT_GT(first.faults_applied, 0u);
  EXPECT_GT(first.repairs_applied, 0u);
}

TEST(Dynamics, UpstreamSessionFaultAndRepairRoundTrips) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();
  const auto pop = *vns.find_pop("SIN");

  const auto exports_before = vns.fabric().messages_delivered();
  ASSERT_TRUE(vns.fail_upstream(pop, 0));
  EXPECT_FALSE(vns.fail_upstream(pop, 0));  // already down
  EXPECT_GT(vns.fabric().messages_delivered(), exports_before);
  ASSERT_TRUE(vns.restore_upstream(pop, 0));
  EXPECT_FALSE(vns.restore_upstream(pop, 0));  // already up
  EXPECT_TRUE(vns.fabric().converged());
}

}  // namespace
}  // namespace vns
