// Tests for vns::bgp — IGP shortest paths, the RFC-4271 decision ladder,
// iBGP propagation, route reflection (including the hidden-routes pathology
// and its best-external fix, §3.2), community handling, export policy, and
// fabric convergence.
#include <gtest/gtest.h>

#include "bgp/decision.hpp"
#include "bgp/fabric.hpp"
#include "bgp/igp.hpp"
#include "bgp/types.hpp"

namespace vns::bgp {
namespace {

using net::Ipv4Prefix;

const Ipv4Prefix kPrefix = Ipv4Prefix::parse("203.0.113.0/24").value();
const Ipv4Prefix kPrefix2 = Ipv4Prefix::parse("198.51.100.0/24").value();

Attributes attrs_with_path(std::vector<net::Asn> path) {
  Attributes attrs;
  attrs.as_path = AsPath{std::move(path)};
  return attrs;
}

// ---------------------------------------------------------------- IGP ------

TEST(Igp, MetricsAndPaths) {
  IgpTopology igp{4};
  igp.add_link(0, 1, 10);
  igp.add_link(1, 2, 10);
  igp.add_link(0, 2, 50);
  igp.add_link(2, 3, 5);

  EXPECT_EQ(igp.metric(0, 0), 0u);
  EXPECT_EQ(igp.metric(0, 1), 10u);
  EXPECT_EQ(igp.metric(0, 2), 20u);  // via 1, not the direct 50
  EXPECT_EQ(igp.metric(0, 3), 25u);
  EXPECT_EQ((igp.shortest_path(0, 3)), (std::vector<RouterId>{0, 1, 2, 3}));
}

TEST(Igp, UnreachableAndDisconnected) {
  IgpTopology igp{3};
  igp.add_link(0, 1, 1);
  EXPECT_EQ(igp.metric(0, 2), kUnreachable);
  EXPECT_TRUE(igp.shortest_path(0, 2).empty());
}

TEST(Igp, ParallelLinkKeepsLowerMetric) {
  IgpTopology igp{2};
  igp.add_link(0, 1, 10);
  igp.add_link(0, 1, 4);
  EXPECT_EQ(igp.metric(0, 1), 4u);
  igp.add_link(0, 1, 9);  // higher: ignored
  EXPECT_EQ(igp.metric(0, 1), 4u);
}

TEST(Igp, EnsureSizePreservesLinks) {
  IgpTopology igp{2};
  igp.add_link(0, 1, 3);
  igp.ensure_size(5);
  EXPECT_EQ(igp.metric(0, 1), 3u);
  EXPECT_EQ(igp.router_count(), 5u);
}

TEST(Igp, PathTieBreakIsDeterministic) {
  // Two equal-cost paths 0-1-3 and 0-2-3; the lower-id predecessor wins.
  IgpTopology igp{4};
  igp.add_link(0, 1, 5);
  igp.add_link(0, 2, 5);
  igp.add_link(1, 3, 5);
  igp.add_link(2, 3, 5);
  const auto path = igp.shortest_path(0, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 1u);
}

// ------------------------------------------------------ decision ladder ----

Route make_route(std::uint32_t lp, std::size_t path_len, bool ebgp, RouterId egress,
                 RouterId advertiser = 1) {
  Route r;
  r.prefix = kPrefix;
  Attributes attrs;
  attrs.local_pref = lp;
  std::vector<net::Asn> path;
  for (std::size_t i = 0; i < path_len; ++i) path.push_back(100 + static_cast<net::Asn>(i));
  attrs.as_path = AsPath{std::move(path)};
  r.set_attrs(std::move(attrs));
  r.learned_via_ebgp = ebgp;
  r.egress = egress;
  r.advertiser = advertiser;
  return r;
}

TEST(Decision, LocalPrefDominatesEverything) {
  DecisionContext ctx;
  const Route high = make_route(300, 5, false, 2);
  const Route low = make_route(100, 1, true, 1);
  DecisionRung rung;
  EXPECT_TRUE(prefer(high, low, ctx, &rung));
  EXPECT_EQ(rung, DecisionRung::kLocalPref);
}

TEST(Decision, ShorterAsPathWins) {
  DecisionContext ctx;
  const Route shorter = make_route(100, 2, false, 2);
  const Route longer = make_route(100, 3, true, 1);
  DecisionRung rung;
  EXPECT_TRUE(prefer(shorter, longer, ctx, &rung));
  EXPECT_EQ(rung, DecisionRung::kAsPathLength);
}

TEST(Decision, OriginIgpBeatsIncomplete) {
  DecisionContext ctx;
  Route igp_route = make_route(100, 2, true, 1);
  Route incomplete = make_route(100, 2, true, 2, 3);
  incomplete.update_attrs([](Attributes& a) { a.origin = Origin::kIncomplete; });
  DecisionRung rung;
  EXPECT_TRUE(prefer(igp_route, incomplete, ctx, &rung));
  EXPECT_EQ(rung, DecisionRung::kOrigin);
}

TEST(Decision, MedComparedOnlyWithinSameNeighborAs) {
  DecisionContext ctx;
  Route a = make_route(100, 2, true, 1, 1);
  Route b = make_route(100, 2, true, 2, 2);
  a.update_attrs([](Attributes& attrs) { attrs.med = 10; });
  b.update_attrs([](Attributes& attrs) { attrs.med = 5; });
  // Same first-hop AS (both paths start at 100): MED applies.
  DecisionRung rung;
  EXPECT_TRUE(prefer(b, a, ctx, &rung));
  EXPECT_EQ(rung, DecisionRung::kMed);
  // Different first-hop AS: MED skipped, falls through to router-id.
  b.update_attrs([](Attributes& attrs) { attrs.as_path = AsPath{{999, 101}}; });
  EXPECT_TRUE(prefer(a, b, ctx, &rung));
  EXPECT_EQ(rung, DecisionRung::kRouterId);
}

TEST(Decision, EbgpPreferredOverIbgp) {
  DecisionContext ctx;
  const Route ebgp = make_route(100, 2, true, 5, 5);
  const Route ibgp = make_route(100, 2, false, 1, 1);
  DecisionRung rung;
  EXPECT_TRUE(prefer(ebgp, ibgp, ctx, &rung));
  EXPECT_EQ(rung, DecisionRung::kEbgpOverIbgp);
}

TEST(Decision, HotPotatoIgpTieBreak) {
  IgpTopology igp{3};
  igp.add_link(0, 1, 5);
  igp.add_link(0, 2, 50);
  DecisionContext ctx{0, &igp};
  const Route near_route = make_route(100, 2, false, 1, 1);
  const Route far_route = make_route(100, 2, false, 2, 2);
  DecisionRung rung;
  EXPECT_TRUE(prefer(near_route, far_route, ctx, &rung));
  EXPECT_EQ(rung, DecisionRung::kIgpMetric);
}

TEST(Decision, RouterIdFinalTieBreak) {
  DecisionContext ctx;
  const Route a = make_route(100, 2, false, 1, 1);
  const Route b = make_route(100, 2, false, 1, 2);
  DecisionRung rung;
  EXPECT_TRUE(prefer(a, b, ctx, &rung));
  EXPECT_EQ(rung, DecisionRung::kRouterId);
  EXPECT_FALSE(prefer(b, a, ctx, &rung));
}

TEST(Decision, LocallyOriginatedWinsOutright) {
  DecisionContext ctx;
  Route local = make_route(100, 0, false, 1, 1);
  local.locally_originated = true;
  const Route ebgp = make_route(500, 1, true, 2, 2);
  EXPECT_TRUE(prefer(local, ebgp, ctx));
}

TEST(Decision, SelectBestOverSpan) {
  DecisionContext ctx;
  std::vector<Route> routes{make_route(100, 3, false, 1, 1), make_route(200, 5, false, 2, 2),
                            make_route(150, 1, true, 3, 3)};
  EXPECT_EQ(select_best(routes, ctx), 1u);
  EXPECT_EQ(select_best(std::span<const Route>{}, ctx), static_cast<std::size_t>(-1));
}

TEST(Decision, SelectBestRecordsTheEgressesItComparedOnIgp) {
  IgpTopology igp{4};
  igp.add_link(0, 1, 5);
  igp.add_link(0, 2, 50);
  igp.add_link(0, 3, 7);
  const DecisionContext ctx{0, &igp};
  TieSet ties;
  // Egresses 1 and 2 meet at the IGP rung; egress 3 loses on LOCAL_PREF.
  const std::vector<Route> tied{make_route(100, 2, false, 1, 1), make_route(100, 2, false, 2, 2),
                                make_route(50, 2, false, 3, 3)};
  EXPECT_EQ(select_best(tied, ctx, &ties), 0u);
  TieSet expected;
  expected.insert(1);
  expected.insert(2);
  EXPECT_EQ(ties, expected);
  EXPECT_FALSE(ties.always_revisit());

  // Settled above the IGP rung: no IGP change can move it.
  const std::vector<Route> settled{make_route(200, 2, false, 1, 1),
                                   make_route(100, 2, false, 2, 2)};
  EXPECT_EQ(select_best(settled, ctx, &ties), 0u);
  EXPECT_TRUE(ties.empty());

  // An egress the mask cannot hold makes the decision always-revisit.
  const std::vector<Route> wide{make_route(100, 2, false, 1, 1),
                                make_route(100, 2, false, TieSet::kCapacity, 2)};
  (void)select_best(wide, DecisionContext{}, &ties);
  EXPECT_TRUE(ties.always_revisit());
}

TEST(Decision, TieOrderMovedComparesPairwiseMetricOrder) {
  TieSet ties;
  ties.insert(1);
  ties.insert(2);
  const std::vector<IgpMetric> before{0, 10, 15, 40};
  // Both members shift by 10 and a non-member moves: order kept.
  EXPECT_FALSE(tie_order_moved(ties, before, std::vector<IgpMetric>{0, 20, 25, 1}));
  // < became > or =.
  EXPECT_TRUE(tie_order_moved(ties, before, std::vector<IgpMetric>{0, 25, 20, 40}));
  EXPECT_TRUE(tie_order_moved(ties, before, std::vector<IgpMetric>{0, 15, 15, 40}));
  // A single egress has no order to move; an empty set has nothing at all.
  TieSet single;
  single.insert(1);
  EXPECT_FALSE(tie_order_moved(single, before, std::vector<IgpMetric>{0, 99, 0, 0}));
  EXPECT_FALSE(tie_order_moved(TieSet{}, before, std::vector<IgpMetric>{9, 9, 9, 9}));
  TieSet unrepresentable;
  unrepresentable.insert(kInvalidRouter);
  EXPECT_TRUE(tie_order_moved(unrepresentable, before, before));
}

TEST(Decision, PreferIsAsymmetric) {
  // prefer(a,b) and prefer(b,a) must never both be true (strict preference).
  DecisionContext ctx;
  const Route a = make_route(100, 2, true, 1, 1);
  const Route b = make_route(100, 2, true, 1, 1);
  EXPECT_FALSE(prefer(a, b, ctx));
  EXPECT_FALSE(prefer(b, a, ctx));
}

// ------------------------------------------------------------- fabric ------

/// Builds a 3-border-router + 1-RR fabric, the minimal shape of Fig. 2.
struct RrFixture {
  Fabric fabric{65000};
  RouterId a, b, c, rr;
  NeighborId upstream_at_a, peer_at_b, upstream_at_c;

  explicit RrFixture(bool best_external = true) {
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
    if (best_external) {
      for (RouterId r : {a, b, c}) fabric.router(r).set_advertise_best_external(true);
    }
    upstream_at_a = fabric.add_neighbor(a, 174, NeighborKind::kUpstream, "tier1-at-A");
    peer_at_b = fabric.add_neighbor(b, 6939, NeighborKind::kPeer, "peer-at-B");
    upstream_at_c = fabric.add_neighbor(c, 3356, NeighborKind::kUpstream, "tier1-at-C");
  }
};

TEST(Fabric, SingleAnnouncementReachesAllRouters) {
  RrFixture fx;
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.run_to_convergence();

  for (RouterId r : {fx.a, fx.b, fx.c, fx.rr}) {
    const Route* best = fx.fabric.router(r).best_route(kPrefix);
    ASSERT_NE(best, nullptr) << "router " << r;
    EXPECT_EQ(best->egress, fx.a);
  }
  // A learned it over eBGP; the others over iBGP.
  EXPECT_TRUE(fx.fabric.router(fx.a).best_route(kPrefix)->learned_via_ebgp);
  EXPECT_FALSE(fx.fabric.router(fx.b).best_route(kPrefix)->learned_via_ebgp);
}

TEST(Fabric, EbgpPreferredLocallyIbgpElsewhere) {
  RrFixture fx;
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.announce(fx.upstream_at_c, kPrefix, attrs_with_path({3356, 400}));
  fx.fabric.run_to_convergence();

  // A and C each prefer their own eBGP route (eBGP > iBGP).
  EXPECT_EQ(fx.fabric.router(fx.a).best_route(kPrefix)->egress, fx.a);
  EXPECT_EQ(fx.fabric.router(fx.c).best_route(kPrefix)->egress, fx.c);
  // B only sees what the RR reflects (its single best): one of the two.
  const Route* at_b = fx.fabric.router(fx.b).best_route(kPrefix);
  ASSERT_NE(at_b, nullptr);
  EXPECT_TRUE(at_b->egress == fx.a || at_b->egress == fx.c);
}

TEST(Fabric, WithdrawFailsOverToAlternative) {
  RrFixture fx;
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.announce(fx.upstream_at_c, kPrefix, attrs_with_path({3356, 400}));
  fx.fabric.run_to_convergence();

  fx.fabric.withdraw(fx.upstream_at_a, kPrefix);
  fx.fabric.run_to_convergence();
  for (RouterId r : {fx.a, fx.b, fx.c, fx.rr}) {
    const Route* best = fx.fabric.router(r).best_route(kPrefix);
    ASSERT_NE(best, nullptr) << "router " << r;
    EXPECT_EQ(best->egress, fx.c);
  }
}

TEST(Fabric, FullWithdrawEmptiesLocRibs) {
  RrFixture fx;
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.run_to_convergence();
  fx.fabric.withdraw(fx.upstream_at_a, kPrefix);
  fx.fabric.run_to_convergence();
  for (RouterId r : {fx.a, fx.b, fx.c, fx.rr}) {
    EXPECT_EQ(fx.fabric.router(r).best_route(kPrefix), nullptr);
  }
}

TEST(Fabric, ShorterAsPathWinsAcrossEgresses) {
  RrFixture fx;
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 300, 400}));
  fx.fabric.announce(fx.upstream_at_c, kPrefix, attrs_with_path({3356, 400}));
  fx.fabric.run_to_convergence();
  // AS-path length outranks eBGP-over-iBGP, so even A prefers C's shorter
  // path over its own eBGP route.
  for (RouterId r : {fx.a, fx.b, fx.c, fx.rr}) {
    EXPECT_EQ(fx.fabric.router(r).best_route(kPrefix)->egress, fx.c) << "router " << r;
  }
}

TEST(Fabric, HiddenRouteWithoutBestExternal) {
  // The §3.2 pathology: the RR raises local-pref of the first route it
  // learns; border routers then prefer the reflected route over their own
  // eBGP routes and never advertise them — hidden from the RR, which
  // converges on the first egress it happened to hear.
  RrFixture fx(/*best_external=*/false);
  fx.fabric.router(fx.rr).set_import_policy([](const ImportContext& ctx, Route& route) {
    if (ctx.session == SessionKind::kIbgp) route.set_local_pref(500);
    return true;
  });
  // C's announcement arrives first and is reflected at lp=500 to A and B.
  fx.fabric.announce(fx.upstream_at_c, kPrefix, attrs_with_path({3356, 400}));
  fx.fabric.run_to_convergence();
  // A's own (possibly better) route now loses to the reflected lp=500
  // route, so A never advertises it.
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.run_to_convergence();

  const Route* at_rr = fx.fabric.router(fx.rr).best_route(kPrefix);
  ASSERT_NE(at_rr, nullptr);
  EXPECT_EQ(at_rr->egress, fx.c);  // RR never saw A's route
  EXPECT_EQ(fx.fabric.router(fx.a).best_route(kPrefix)->egress, fx.c);
  EXPECT_EQ(fx.fabric.router(fx.rr).rib_in_size(), 1u);
}

TEST(Fabric, BestExternalUnhidesRoutes) {
  // Same scenario with best-external enabled: A keeps advertising its eBGP
  // route to the RR even though its overall best is the reflected route.
  RrFixture fx(/*best_external=*/true);
  fx.fabric.router(fx.rr).set_import_policy([](const ImportContext& ctx, Route& route) {
    if (ctx.session == SessionKind::kIbgp) route.set_local_pref(500);
    return true;
  });
  fx.fabric.announce(fx.upstream_at_c, kPrefix, attrs_with_path({3356, 400}));
  fx.fabric.run_to_convergence();
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.run_to_convergence();

  // The RR now has both candidates in its Adj-RIB-In: nothing is hidden.
  EXPECT_EQ(fx.fabric.router(fx.rr).rib_in_size(), 2u);
}

TEST(Fabric, RefreshPoliciesReroutesEverything) {
  RrFixture fx;
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.announce(fx.upstream_at_c, kPrefix, attrs_with_path({3356, 400}));
  fx.fabric.run_to_convergence();

  // Install a geo-like policy on the RR that pins the egress to C.
  fx.fabric.router(fx.rr).set_import_policy([&](const ImportContext& ctx, Route& route) {
    if (ctx.session == SessionKind::kIbgp) {
      route.set_local_pref(route.egress == fx.c ? 900 : 400);
    }
    return true;
  });
  fx.fabric.refresh_policies();
  fx.fabric.run_to_convergence();

  for (RouterId r : {fx.a, fx.b, fx.c, fx.rr}) {
    EXPECT_EQ(fx.fabric.router(r).best_route(kPrefix)->egress, fx.c) << "router " << r;
  }
}

TEST(Fabric, ImportPolicyCanReject) {
  RrFixture fx;
  fx.fabric.router(fx.a).set_import_policy([](const ImportContext& ctx, Route&) {
    return ctx.session != SessionKind::kEbgp;  // drop all external routes at A
  });
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.run_to_convergence();
  EXPECT_EQ(fx.fabric.router(fx.a).best_route(kPrefix), nullptr);
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kPrefix), nullptr);
}

TEST(Fabric, OriginatedPrefixExportsToNeighbors) {
  RrFixture fx;
  Attributes attrs;
  attrs.origin = Origin::kIgp;
  fx.fabric.originate(fx.a, kPrefix2, attrs);
  fx.fabric.run_to_convergence();

  // Exported to the eBGP neighbor at A with our ASN prepended.
  const auto& at_upstream = fx.fabric.exported_to(fx.upstream_at_a);
  ASSERT_TRUE(at_upstream.contains(kPrefix2));
  EXPECT_EQ(at_upstream.at(kPrefix2).attrs().as_path.first_hop(), 65000u);
  // And reaches B over iBGP, which exports it to its peer too.
  EXPECT_TRUE(fx.fabric.exported_to(fx.peer_at_b).contains(kPrefix2));
}

TEST(Fabric, NoExportCommunityStaysInsideAs) {
  RrFixture fx;
  Attributes attrs;
  attrs.add_community(kNoExport);
  fx.fabric.originate(fx.a, kPrefix2, attrs);
  fx.fabric.run_to_convergence();

  // Visible on every internal router...
  EXPECT_NE(fx.fabric.router(fx.b).best_route(kPrefix2), nullptr);
  EXPECT_NE(fx.fabric.router(fx.c).best_route(kPrefix2), nullptr);
  // ...but never exported to any external neighbor (§3.2's static
  // more-specifics "tagged with a no-export community").
  EXPECT_FALSE(fx.fabric.exported_to(fx.upstream_at_a).contains(kPrefix2));
  EXPECT_FALSE(fx.fabric.exported_to(fx.peer_at_b).contains(kPrefix2));
  EXPECT_FALSE(fx.fabric.exported_to(fx.upstream_at_c).contains(kPrefix2));
}

TEST(Fabric, NoAdvertiseCommunityStaysOnOriginatingRouter) {
  RrFixture fx;
  Attributes attrs;
  attrs.add_community(kNoAdvertise);
  fx.fabric.originate(fx.a, kPrefix2, attrs);
  fx.fabric.run_to_convergence();

  // NO_ADVERTISE is stricter than NO_EXPORT: the route never leaves the
  // originating router, not even over iBGP.
  EXPECT_NE(fx.fabric.router(fx.a).best_route(kPrefix2), nullptr);
  EXPECT_EQ(fx.fabric.router(fx.b).best_route(kPrefix2), nullptr);
  EXPECT_EQ(fx.fabric.router(fx.c).best_route(kPrefix2), nullptr);
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kPrefix2), nullptr);
  for (NeighborId n = 0; n < fx.fabric.neighbor_count(); ++n) {
    EXPECT_FALSE(fx.fabric.exported_to(n).contains(kPrefix2)) << "neighbor " << n;
  }
}

TEST(Fabric, NoAdvertiseFromEbgpNeighborIsNotRedistributed) {
  RrFixture fx;
  auto attrs = attrs_with_path({174, 400});
  attrs.add_community(kNoAdvertise);
  fx.fabric.announce(fx.upstream_at_a, kPrefix2, attrs);
  fx.fabric.run_to_convergence();

  // The receiving router may use it, but nobody else ever sees it — the
  // best-external path must suppress it too.
  EXPECT_NE(fx.fabric.router(fx.a).best_route(kPrefix2), nullptr);
  EXPECT_EQ(fx.fabric.router(fx.b).best_route(kPrefix2), nullptr);
  EXPECT_EQ(fx.fabric.router(fx.rr).best_route(kPrefix2), nullptr);
  for (NeighborId n = 0; n < fx.fabric.neighbor_count(); ++n) {
    EXPECT_FALSE(fx.fabric.exported_to(n).contains(kPrefix2)) << "neighbor " << n;
  }
}

TEST(Fabric, NoExportFromCustomerPropagatesInternallyButNotExternally) {
  // A customer route would normally be exported to every neighbor; NO_EXPORT
  // must keep it inside the AS while still propagating over iBGP.
  RrFixture fx;
  const auto customer = fx.fabric.add_neighbor(fx.b, 64512, NeighborKind::kCustomer, "cust");
  fx.fabric.refresh_policies();
  auto attrs = attrs_with_path({64512});
  attrs.add_community(kNoExport);
  fx.fabric.announce(customer, kPrefix2, attrs);
  fx.fabric.run_to_convergence();

  for (RouterId r : {fx.a, fx.b, fx.c, fx.rr}) {
    EXPECT_NE(fx.fabric.router(r).best_route(kPrefix2), nullptr) << "router " << r;
  }
  for (NeighborId n = 0; n < fx.fabric.neighbor_count(); ++n) {
    EXPECT_FALSE(fx.fabric.exported_to(n).contains(kPrefix2)) << "neighbor " << n;
  }
}

TEST(Fabric, GaoRexfordExportPolicy) {
  // peer/upstream-learned routes must not be exported to peers/upstreams.
  RrFixture fx;
  fx.fabric.announce(fx.peer_at_b, kPrefix, attrs_with_path({6939, 400}));
  fx.fabric.run_to_convergence();
  EXPECT_FALSE(fx.fabric.exported_to(fx.upstream_at_a).contains(kPrefix));
  EXPECT_FALSE(fx.fabric.exported_to(fx.upstream_at_c).contains(kPrefix));

  // Add a customer at C: peer-learned routes DO go to customers.
  const auto customer = fx.fabric.add_neighbor(fx.c, 64512, NeighborKind::kCustomer, "cust");
  fx.fabric.refresh_policies();
  fx.fabric.run_to_convergence();
  EXPECT_TRUE(fx.fabric.exported_to(customer).contains(kPrefix));
}

TEST(Fabric, CustomerRouteExportsEverywhere) {
  RrFixture fx;
  const auto customer = fx.fabric.add_neighbor(fx.b, 64512, NeighborKind::kCustomer, "cust");
  fx.fabric.announce(customer, kPrefix, attrs_with_path({64512}));
  fx.fabric.run_to_convergence();
  EXPECT_TRUE(fx.fabric.exported_to(fx.upstream_at_a).contains(kPrefix));
  EXPECT_TRUE(fx.fabric.exported_to(fx.upstream_at_c).contains(kPrefix));
  // Never re-exported to the announcing neighbor itself.
  EXPECT_FALSE(fx.fabric.exported_to(customer).contains(kPrefix));
}

TEST(Fabric, AsLoopPreventionDropsOwnAsn) {
  RrFixture fx;
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 65000, 400}));
  fx.fabric.run_to_convergence();
  EXPECT_EQ(fx.fabric.router(fx.a).best_route(kPrefix), nullptr);
}

TEST(Fabric, ConvergesWithManyPrefixes) {
  RrFixture fx;
  for (int i = 0; i < 200; ++i) {
    const Ipv4Prefix prefix{net::Ipv4Address{static_cast<std::uint32_t>((i + 1) << 16)}, 24};
    fx.fabric.announce(i % 2 ? fx.upstream_at_a : fx.upstream_at_c, prefix,
                       attrs_with_path({174, static_cast<net::Asn>(1000 + i)}));
  }
  const auto processed = fx.fabric.run_to_convergence();
  EXPECT_GT(processed, 0u);
  EXPECT_TRUE(fx.fabric.converged());
  EXPECT_EQ(fx.fabric.router(fx.b).loc_rib().size(), 200u);
}

TEST(Fabric, TwoReflectorsDoNotLoop) {
  Fabric fabric{65000};
  const auto a = fabric.add_router("A");
  const auto b = fabric.add_router("B");
  const auto rr1 = fabric.add_router("RR1");
  const auto rr2 = fabric.add_router("RR2");
  // Both RRs serve both clients (the paper's "multiple RRs are deployed for
  // operation stability"), plus an RR-RR session.
  fabric.add_rr_client_session(rr1, a);
  fabric.add_rr_client_session(rr1, b);
  fabric.add_rr_client_session(rr2, a);
  fabric.add_rr_client_session(rr2, b);
  fabric.add_ibgp_session(rr1, rr2);
  fabric.add_igp_link(a, b, 10);
  fabric.add_igp_link(a, rr1, 1);
  fabric.add_igp_link(b, rr2, 1);

  const auto up = fabric.add_neighbor(a, 174, NeighborKind::kUpstream, "up");
  fabric.announce(up, kPrefix, attrs_with_path({174, 400}));
  EXPECT_NO_THROW(fabric.run_to_convergence(100000));
  ASSERT_NE(fabric.router(b).best_route(kPrefix), nullptr);
  EXPECT_EQ(fabric.router(b).best_route(kPrefix)->egress, a);
}

TEST(Fabric, RedundantAnnouncementIsSuppressed) {
  RrFixture fx;
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.run_to_convergence();
  const auto delivered_before = fx.fabric.messages_delivered();
  // Re-announcing the identical route must not trigger a network-wide wave.
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.run_to_convergence();
  EXPECT_EQ(fx.fabric.messages_delivered(), delivered_before);
}

TEST(Igp, EqualCostGraphExpandsEachNodeOnce) {
  // Regression: the equal-cost tie-break used to re-push already-settled
  // nodes, re-expanding whole subtrees.  A ladder graph where every rung
  // ties is the worst case; one run must expand at most router_count nodes.
  constexpr std::size_t kRungs = 16;
  IgpTopology igp{2 * kRungs};
  for (std::size_t r = 0; r + 1 < kRungs; ++r) {
    const RouterId left = 2 * r, right = 2 * r + 1;
    igp.add_link(left, left + 2, 10);
    igp.add_link(left, right + 2, 10);
    igp.add_link(right, left + 2, 10);
    igp.add_link(right, right + 2, 10);
  }
  igp.add_link(0, 1, 20);
  (void)igp.metric(0, 2 * kRungs - 1);  // forces one Dijkstra run from 0
  EXPECT_LE(igp.dijkstra_expansions(), igp.router_count());
  // And the tie-break still lands on the lowest-id predecessor chain.
  const auto path = igp.shortest_path(0, 2 * kRungs - 1);
  ASSERT_GE(path.size(), 2u);
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    EXPECT_EQ(path[i] % 2, 0u) << "hop " << i;  // even = lower-id side
  }
}

TEST(Fabric, ReAnnounceAfterWithdrawMatchesFreshFabric) {
  // Announce -> withdraw -> re-announce must land the fabric in exactly the
  // state a fresh fabric reaches from a single announcement: same best
  // routes everywhere and same exports to every external neighbor.
  RrFixture churned;
  churned.fabric.announce(churned.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  churned.fabric.announce(churned.upstream_at_c, kPrefix2, attrs_with_path({3356, 500}));
  churned.fabric.run_to_convergence();
  churned.fabric.withdraw(churned.upstream_at_a, kPrefix);
  churned.fabric.withdraw(churned.upstream_at_c, kPrefix2);
  churned.fabric.run_to_convergence();
  churned.fabric.announce(churned.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  churned.fabric.announce(churned.upstream_at_c, kPrefix2, attrs_with_path({3356, 500}));
  churned.fabric.run_to_convergence();

  RrFixture fresh;
  fresh.fabric.announce(fresh.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fresh.fabric.announce(fresh.upstream_at_c, kPrefix2, attrs_with_path({3356, 500}));
  fresh.fabric.run_to_convergence();

  const RouterId routers[] = {churned.a, churned.b, churned.c, churned.rr};
  for (const Ipv4Prefix& prefix : {kPrefix, kPrefix2}) {
    for (RouterId r : routers) {
      const Route* after_churn = churned.fabric.router(r).best_route(prefix);
      const Route* baseline = fresh.fabric.router(r).best_route(prefix);
      ASSERT_NE(after_churn, nullptr) << "router " << r;
      ASSERT_NE(baseline, nullptr) << "router " << r;
      EXPECT_EQ(after_churn->egress, baseline->egress) << "router " << r;
      EXPECT_EQ(after_churn->attrs(), baseline->attrs()) << "router " << r;
    }
  }
  const std::pair<NeighborId, NeighborId> sinks[] = {
      {churned.upstream_at_a, fresh.upstream_at_a},
      {churned.peer_at_b, fresh.peer_at_b},
      {churned.upstream_at_c, fresh.upstream_at_c},
  };
  for (const auto& [churned_id, fresh_id] : sinks) {
    const auto& after_churn = churned.fabric.exported_to(churned_id);
    const auto& baseline = fresh.fabric.exported_to(fresh_id);
    EXPECT_EQ(after_churn.size(), baseline.size()) << "neighbor " << churned_id;
    for (const auto& [prefix, route] : baseline) {
      const auto it = after_churn.find(prefix);
      ASSERT_NE(it, after_churn.end()) << prefix.to_string();
      EXPECT_EQ(it->second.egress, route.egress) << prefix.to_string();
      EXPECT_EQ(it->second.attrs(), route.attrs()) << prefix.to_string();
    }
  }
}

// ---------------------------------------------------------- AttrTable ------

TEST(AttrTable, InternCanonicalizesCommunities) {
  // Permuted and duplicated community lists are the same path-attribute set:
  // they must intern to the same node (handle equality) with communities
  // sorted and deduplicated.
  auto& table = AttrTable::global();

  Attributes first = attrs_with_path({174, 400});
  first.communities = {Community{7}, Community{3}, Community{5}};
  Attributes second = attrs_with_path({174, 400});
  second.communities = {Community{5}, Community{7}, Community{3}, Community{5}};

  const AttrRef ref_a = table.intern(first);
  const AttrRef ref_b = table.intern(second);
  EXPECT_EQ(ref_a, ref_b);
  EXPECT_EQ(ref_a->communities,
            (std::vector<Community>{Community{3}, Community{5}, Community{7}}));

  // A genuinely different set gets its own node.
  Attributes third = attrs_with_path({174, 400});
  third.communities = {Community{3}, Community{5}};
  const AttrRef ref_c = table.intern(third);
  EXPECT_NE(ref_a, ref_c);
}

TEST(AttrTable, DefaultAttributesShareTheSentinel) {
  // Freshly constructed handles and interned default attributes are the same
  // node, so default-attribute routes cost zero table entries.
  const AttrRef fresh;
  const AttrRef interned = AttrTable::global().intern(Attributes{});
  EXPECT_EQ(fresh, interned);
}

TEST(AttrTable, RefcountDropShrinksTable) {
  auto& table = AttrTable::global();
  const auto baseline = table.stats();

  Attributes attrs = attrs_with_path({64496, 64497, 64498});
  attrs.communities = {Community{0x00010001}};
  attrs.med = 77;
  {
    const AttrRef held = table.intern(attrs);
    const AttrRef copy = held;  // refcount bump, no new node
    EXPECT_EQ(table.stats().unique_live, baseline.unique_live + 1);
    EXPECT_EQ(copy, held);
  }
  // Both handles are gone: the node must have been released and erased.
  EXPECT_EQ(table.stats().unique_live, baseline.unique_live);
}

TEST(AttrTable, FabricChurnReturnsToBaseline) {
  // Announce -> converge -> withdraw -> converge must free every attribute
  // node the announcement created: live handles return to the pre-announce
  // count and unique nodes to the pre-announce set.
  RrFixture fx;
  const auto baseline = AttrTable::global().stats();

  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs_with_path({174, 400}));
  fx.fabric.announce(fx.upstream_at_c, kPrefix2, attrs_with_path({3356, 500}));
  fx.fabric.run_to_convergence();
  EXPECT_GT(AttrTable::global().stats().live_refs, baseline.live_refs);

  fx.fabric.withdraw(fx.upstream_at_a, kPrefix);
  fx.fabric.withdraw(fx.upstream_at_c, kPrefix2);
  fx.fabric.run_to_convergence();

  const auto after = AttrTable::global().stats();
  EXPECT_EQ(after.unique_live, baseline.unique_live);
  EXPECT_EQ(after.live_refs, baseline.live_refs);
}

TEST(Fabric, PermutedCommunitiesDoNotTriggerReadvertisement) {
  // Community-list order is not BGP semantics: a re-announcement that only
  // permutes the communities is the same advertisement and must be
  // suppressed exactly like a bit-identical one (the pre-canonicalization
  // code treated it as new and re-converged the whole fabric).
  RrFixture fx;
  auto attrs = attrs_with_path({174, 400});
  attrs.communities = {Community{10}, Community{20}};
  fx.fabric.announce(fx.upstream_at_a, kPrefix, attrs);
  fx.fabric.run_to_convergence();
  const auto delivered_before = fx.fabric.messages_delivered();

  auto permuted = attrs_with_path({174, 400});
  permuted.communities = {Community{20}, Community{10}, Community{20}};
  fx.fabric.announce(fx.upstream_at_a, kPrefix, permuted);
  fx.fabric.run_to_convergence();
  EXPECT_EQ(fx.fabric.messages_delivered(), delivered_before);
}

}  // namespace
}  // namespace vns::bgp
