// Performance microbenchmarks (google-benchmark) for the hot paths: the
// routing-table trie, great-circle math, the BGP decision process,
// Gao–Rexford route computation, path-model sampling, and full fabric
// convergence per announced prefix, and incremental FIB patching vs a full
// recompile at full-table scale — plus the observability paths: fabric
// convergence with tracing off vs on (the off variant is the zero-cost
// claim's evidence), the metrics registry's hot-path add, trace-sink record
// and provenance — and one IGP link flap on a small world, with the number
// of BGP decisions it re-ran.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bgp/decision.hpp"
#include "bgp/fabric.hpp"
#include "core/vns_network.hpp"
#include "geo/geo.hpp"
#include "geo/geoip.hpp"
#include "measure/workbench.hpp"
#include "net/flat_fib.hpp"
#include "net/prefix_trie.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/path_model.hpp"
#include "topo/internet.hpp"
#include "topo/segments.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

using namespace vns;

namespace {

void BM_TrieLongestMatch(benchmark::State& state) {
  net::PrefixTrie<int> trie;
  util::Rng rng{1};
  for (int i = 0; i < 100000; ++i) {
    trie.insert(net::Ipv4Prefix{net::Ipv4Address{static_cast<std::uint32_t>(rng())},
                                static_cast<std::uint8_t>(rng.uniform_int(8, 24))},
                i);
  }
  std::uint32_t q = 0x01020304;
  for (auto _ : state) {
    q = q * 1664525u + 1013904223u;
    benchmark::DoNotOptimize(trie.longest_match(net::Ipv4Address{q}));
  }
}
BENCHMARK(BM_TrieLongestMatch);

void BM_GreatCircle(benchmark::State& state) {
  const geo::GeoPoint a{52.37, 4.90}, b{-33.87, 151.21};
  for (auto _ : state) benchmark::DoNotOptimize(geo::great_circle_km(a, b));
}
BENCHMARK(BM_GreatCircle);

void BM_DecisionSelectBest(benchmark::State& state) {
  std::vector<bgp::Route> candidates;
  util::Rng rng{2};
  for (int i = 0; i < 24; ++i) {
    bgp::Route route;
    route.prefix = net::Ipv4Prefix{net::Ipv4Address{0x0A000000}, 16};
    bgp::Attributes attrs;
    attrs.local_pref = static_cast<std::uint32_t>(rng.uniform_int(100, 1000));
    std::vector<net::Asn> path;
    for (int h = 0; h < static_cast<int>(rng.uniform_int(1, 5)); ++h) {
      path.push_back(static_cast<net::Asn>(rng.uniform_int(1000, 4000)));
    }
    attrs.as_path = bgp::AsPath{std::move(path)};
    route.set_attrs(std::move(attrs));
    route.egress = static_cast<bgp::RouterId>(i);
    route.advertiser = static_cast<bgp::RouterId>(i);
    route.learned_via_ebgp = i % 2;
    candidates.push_back(std::move(route));
  }
  const bgp::DecisionContext ctx{0, nullptr};
  for (auto _ : state) benchmark::DoNotOptimize(bgp::select_best(candidates, ctx));
}
BENCHMARK(BM_DecisionSelectBest);

void BM_GaoRexfordRoutesTo(benchmark::State& state) {
  topo::InternetConfig config;
  config.ltp_count = 8;
  config.stp_count = 120;
  config.cahp_count = 240;
  config.ec_count = 600;
  const auto internet = topo::Internet::generate(config);
  topo::AsIndex dest = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(internet.routes_to(dest));
    dest = (dest + 17) % static_cast<topo::AsIndex>(internet.as_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(internet.as_count()));
}
BENCHMARK(BM_GaoRexfordRoutesTo);

void BM_PathModelSampleLosses(benchmark::State& state) {
  const auto catalog = topo::SegmentCatalog::paper_calibrated();
  std::vector<sim::SegmentProfile> segments;
  const geo::GeoPoint ams{52.37, 4.90}, sin{1.35, 103.82};
  segments.push_back(catalog.transit_hop(ams, sin, topo::RegionClass::kEU,
                                         topo::RegionClass::kAP));
  segments.push_back(catalog.last_mile(topo::AsType::kCAHP,
                                       geo::WorldRegion::kAsiaPacific, sin));
  const sim::PathModel path{std::move(segments), 86400.0, util::Rng{3}};
  util::Rng rng{4};
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    benchmark::DoNotOptimize(path.sample_losses(t, 2000, rng));
  }
}
BENCHMARK(BM_PathModelSampleLosses);

/// The satellite pair for the DiurnalLevelCache: repeated loss_probability
/// queries at the *same* timestamp — the prober/session access pattern — with
/// and without the per-(segment, t) memo.  Identical paths, identical
/// results; the delta is the cost of recomputing the diurnal level stack.
std::vector<sim::SegmentProfile> loss_bench_segments() {
  const auto catalog = topo::SegmentCatalog::paper_calibrated();
  std::vector<sim::SegmentProfile> segments;
  const geo::GeoPoint ams{52.37, 4.90}, sin{1.35, 103.82};
  segments.push_back(catalog.transit_hop(ams, sin, topo::RegionClass::kEU,
                                         topo::RegionClass::kAP));
  segments.push_back(catalog.last_mile(topo::AsType::kCAHP,
                                       geo::WorldRegion::kAsiaPacific, sin));
  segments.push_back(catalog.vns_link(ams, sin, /*long_haul=*/true));
  return segments;
}

void BM_PathLossUncached(benchmark::State& state) {
  const sim::PathModel path{loss_bench_segments(), 86400.0, util::Rng{3}};
  double t = 43200.0;
  std::size_t i = 0;
  for (auto _ : state) {
    if (++i % 64 == 0) t += 1.0;  // a new timestamp every 64 queries
    benchmark::DoNotOptimize(path.loss_probability(t));
  }
}
BENCHMARK(BM_PathLossUncached);

void BM_PathLossCached(benchmark::State& state) {
  const sim::PathModel path{loss_bench_segments(), 86400.0, util::Rng{3}};
  sim::DiurnalLevelCache cache;
  double t = 43200.0;
  std::size_t i = 0;
  for (auto _ : state) {
    if (++i % 64 == 0) t += 1.0;
    benchmark::DoNotOptimize(path.loss_probability(t, cache));
  }
}
BENCHMARK(BM_PathLossCached);

/// Announce-and-converge loop shared by the traced and untraced variants so
/// the only difference the pair measures is the sink itself.
void run_fabric_convergence(benchmark::State& state, obs::TraceSink* sink) {
  // Cost of announcing + converging one prefix through a 4-router RR fabric.
  bgp::Fabric fabric{65000};
  const auto a = fabric.add_router("A");
  const auto b = fabric.add_router("B");
  const auto c = fabric.add_router("C");
  const auto rr = fabric.add_router("RR");
  for (auto client : {a, b, c}) {
    fabric.add_rr_client_session(rr, client);
    fabric.router(client).set_advertise_best_external(true);
  }
  fabric.add_igp_link(a, b, 10);
  fabric.add_igp_link(b, c, 10);
  fabric.add_igp_link(a, rr, 1);
  const auto up_a = fabric.add_neighbor(a, 174, bgp::NeighborKind::kUpstream, "upA");
  const auto up_c = fabric.add_neighbor(c, 3356, bgp::NeighborKind::kUpstream, "upC");
  fabric.set_trace(sink);

  std::uint32_t block = 1;
  for (auto _ : state) {
    const net::Ipv4Prefix prefix{net::Ipv4Address{(block++ % 60000u + 1024u) << 12}, 20};
    bgp::Attributes attrs;
    attrs.as_path = bgp::AsPath{{174, 400}};
    fabric.announce(up_a, prefix, attrs);
    bgp::Attributes attrs2;
    attrs2.as_path = bgp::AsPath{{3356, 401}};
    fabric.announce(up_c, prefix, attrs2);
    benchmark::DoNotOptimize(fabric.run_to_convergence());
  }
}

void BM_FabricAnnouncementConvergence(benchmark::State& state) {
  // Tracing disabled: the baseline the ≤1 % overhead budget is judged against.
  run_fabric_convergence(state, nullptr);
}
BENCHMARK(BM_FabricAnnouncementConvergence);

void BM_FabricAnnouncementConvergenceTraced(benchmark::State& state) {
  // Same fabric with a ring-buffer sink attached: the cost of full tracing.
  obs::TraceSink sink{1u << 16};
  run_fabric_convergence(state, &sink);
}
BENCHMARK(BM_FabricAnnouncementConvergenceTraced);

void BM_Convergence(benchmark::State& state) {
  // Churn-and-converge loop on a wider fabric (8 RR clients, one upstream
  // each): every iteration announces a 16-prefix block and converges it.
  bgp::Fabric fabric{65000};
  const auto rr = fabric.add_router("RR");
  std::vector<bgp::NeighborId> uplinks;
  for (int i = 0; i < 8; ++i) {
    const auto client = fabric.add_router("C" + std::to_string(i));
    fabric.add_rr_client_session(rr, client);
    fabric.add_igp_link(rr, client, 10 + i);
    uplinks.push_back(fabric.add_neighbor(client, static_cast<net::Asn>(100 + i),
                                          bgp::NeighborKind::kUpstream,
                                          "up" + std::to_string(i)));
  }

  std::uint32_t block = 1;
  for (auto _ : state) {
    for (std::uint32_t p = 0; p < 16; ++p) {
      const net::Ipv4Prefix prefix{
          net::Ipv4Address{((block * 16u + p) % 60000u + 1024u) << 12}, 20};
      bgp::Attributes attrs;
      attrs.as_path = bgp::AsPath{{static_cast<net::Asn>(100 + p % 8),
                                   static_cast<net::Asn>(4000 + p)}};
      fabric.announce(uplinks[p % uplinks.size()], prefix, attrs);
    }
    ++block;
    benchmark::DoNotOptimize(fabric.run_to_convergence());
  }
  const auto messages = static_cast<double>(fabric.messages_delivered());
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["msgs_per_sec"] = benchmark::Counter(messages, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Convergence);

void BM_IgpLinkFlap(benchmark::State& state) {
  // One long-haul circuit failed and restored (each converged and
  // published) on a small world with geo routing on.  An IGP change
  // re-decides only the prefixes whose hot-potato tie order moved;
  // igp_redecisions_per_flap keeps that count measured.
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(1));
  core::VnsNetwork& vns = world->vns();
  vns.set_geo_routing(true);
  const auto links = vns.links();
  const auto link = std::find_if(links.begin(), links.end(),
                                 [](const core::VnsLink& l) { return l.long_haul; });
  const core::PopId a = link->a;
  const core::PopId b = link->b;
  const auto& metrics = obs::MetricsRegistry::global();
  constexpr auto redecisions = obs::metric("convergence.igp_redecisions");
  const std::uint64_t redecisions_before = metrics.count(redecisions);
  const std::size_t messages_before = vns.fabric().messages_delivered();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vns.fail_pop_link(a, b));
    benchmark::DoNotOptimize(vns.restore_pop_link(a, b));
  }
  const auto flaps = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["igp_redecisions_per_flap"] =
      static_cast<double>(metrics.count(redecisions) - redecisions_before) / flaps;
  state.counters["messages_per_flap"] =
      static_cast<double>(vns.fabric().messages_delivered() - messages_before) / flaps;
}
BENCHMARK(BM_IgpLinkFlap)->UseRealTime();

void BM_TraceSinkRecord(benchmark::State& state) {
  obs::TraceSink sink{1u << 16};
  obs::TraceEvent event;
  event.kind = obs::TraceEventKind::kUpdateDelivered;
  event.a = 1;
  event.b = 2;
  event.prefix = net::Ipv4Prefix{net::Ipv4Address{0x0A000000}, 20};
  std::uint64_t when = 0;
  for (auto _ : state) {
    event.when = when++;
    sink.record(event);
    benchmark::DoNotOptimize(sink.size());
  }
}
BENCHMARK(BM_TraceSinkRecord);

void BM_DecisionTraceExplain(benchmark::State& state) {
  // Provenance over the same 24-candidate set BM_DecisionSelectBest uses.
  std::vector<bgp::Route> candidates;
  util::Rng rng{2};
  for (int i = 0; i < 24; ++i) {
    bgp::Route route;
    route.prefix = net::Ipv4Prefix{net::Ipv4Address{0x0A000000}, 16};
    bgp::Attributes attrs;
    attrs.local_pref = static_cast<std::uint32_t>(rng.uniform_int(100, 1000));
    std::vector<net::Asn> path;
    for (int h = 0; h < static_cast<int>(rng.uniform_int(1, 5)); ++h) {
      path.push_back(static_cast<net::Asn>(rng.uniform_int(1000, 4000)));
    }
    attrs.as_path = bgp::AsPath{std::move(path)};
    route.set_attrs(std::move(attrs));
    route.egress = static_cast<bgp::RouterId>(i);
    route.advertiser = static_cast<bgp::RouterId>(i);
    route.learned_via_ebgp = i % 2;
    candidates.push_back(std::move(route));
  }
  const bgp::DecisionContext ctx{0, nullptr};
  for (auto _ : state) benchmark::DoNotOptimize(bgp::trace_decision(candidates, ctx));
}
BENCHMARK(BM_DecisionTraceExplain);

// --- route-copy cost: interned flyweight vs materialized attributes --------

/// The pre-interning Route layout: attributes owned by value, deep-copied on
/// every RIB insert/emission.  Kept here as the microbench baseline.
struct MaterializedRoute {
  net::Ipv4Prefix prefix;
  bgp::Attributes attrs;
  bgp::RouterId egress = bgp::kInvalidRouter;
  bgp::NeighborId neighbor = bgp::kNoNeighbor;
  bool learned_via_ebgp = false;
  bgp::RouterId advertiser = bgp::kInvalidRouter;
};

bgp::Attributes make_fanout_attrs(int i) {
  // Shaped like a real VNS table entry: 6-hop path, a couple of communities,
  // one reflection cluster.
  bgp::Attributes attrs;
  attrs.local_pref = 300;
  attrs.as_path = bgp::AsPath{{174, 3356, 1299, 2914, 6453,
                               static_cast<net::Asn>(64512 + i % 4)}};
  attrs.add_community(0x00010001);
  attrs.add_community(0x00010002);
  attrs.originator_id = 1;
  attrs.cluster_list.push_back(9);
  return attrs;
}

void BM_RouteCopyInterned(benchmark::State& state) {
  // 24 routes sharing 4 attribute sets, like an RR fan-out: copying the
  // vector bumps refcounts instead of duplicating paths.
  std::vector<bgp::Route> routes(24);
  for (int i = 0; i < 24; ++i) {
    routes[i].prefix = net::Ipv4Prefix{net::Ipv4Address{0x0A000000u + static_cast<std::uint32_t>(i) * 0x10000u}, 16};
    routes[i].set_attrs(make_fanout_attrs(i));
    routes[i].egress = static_cast<bgp::RouterId>(i);
  }
  for (auto _ : state) {
    std::vector<bgp::Route> copy = routes;
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 24 *
                          static_cast<std::int64_t>(sizeof(bgp::Route)));
}
BENCHMARK(BM_RouteCopyInterned);

void BM_RouteCopyMaterialized(benchmark::State& state) {
  // Same 24 routes with owned attributes: every copy re-allocates the path,
  // community and cluster vectors.
  std::vector<MaterializedRoute> routes(24);
  std::int64_t per_route_bytes = 0;
  for (int i = 0; i < 24; ++i) {
    routes[i].prefix = net::Ipv4Prefix{net::Ipv4Address{0x0A000000u + static_cast<std::uint32_t>(i) * 0x10000u}, 16};
    routes[i].attrs = make_fanout_attrs(i);
    routes[i].egress = static_cast<bgp::RouterId>(i);
    per_route_bytes += static_cast<std::int64_t>(
        sizeof(MaterializedRoute) - sizeof(bgp::Attributes) +
        bgp::attribute_bytes(routes[i].attrs));
  }
  for (auto _ : state) {
    std::vector<MaterializedRoute> copy = routes;
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * per_route_bytes);
}
BENCHMARK(BM_RouteCopyMaterialized);

/// Attribute bytes the convergence loop materializes, interned vs the
/// per-copy model.  Both variants run the identical 4-router RR convergence
/// workload; the AttrTable byte counters compare what interning allocated
/// (`bytes_allocated` delta) against what owned-attribute storage would have
/// built for the same intern requests (`bytes_requested` delta).  The
/// interned/copied ratio is the ≥30 % route-copy-byte reduction claim.
void run_convergence_attr_bytes(benchmark::State& state, bool interned) {
  const auto before = bgp::AttrTable::global().stats();
  run_fabric_convergence(state, nullptr);
  const auto after = bgp::AttrTable::global().stats();
  const auto allocated = after.bytes_allocated - before.bytes_allocated;
  const auto requested = after.bytes_requested - before.bytes_requested;
  state.SetBytesProcessed(static_cast<std::int64_t>(interned ? allocated : requested));
  state.counters["attr_bytes_per_iter"] = benchmark::Counter(
      static_cast<double>(interned ? allocated : requested),
      benchmark::Counter::kAvgIterations);
  if (interned && requested > 0) {
    state.counters["dedup_savings"] =
        1.0 - static_cast<double>(allocated) / static_cast<double>(requested);
  }
}

void BM_ConvergenceAttrBytesInterned(benchmark::State& state) {
  run_convergence_attr_bytes(state, /*interned=*/true);
}
BENCHMARK(BM_ConvergenceAttrBytesInterned);

void BM_ConvergenceAttrBytesCopied(benchmark::State& state) {
  run_convergence_attr_bytes(state, /*interned=*/false);
}
BENCHMARK(BM_ConvergenceAttrBytesCopied);

// --- data-plane resolution: RIB walk vs compiled FIB ------------------------

/// The paper-scale world (all known prefixes, 11 PoPs) shared by the
/// resolution and GeoIP pairs; built once, on first use.
measure::Workbench& resolve_world() {
  static std::unique_ptr<measure::Workbench> world =
      measure::Workbench::build(measure::WorkbenchConfig::paper_scale(1));
  return *world;
}

/// Deterministic address stream over the world's announced prefixes: every
/// query hits a known prefix, like the figure benches' probe loops.
net::Ipv4Address resolve_query(const measure::Workbench& w, std::uint32_t& lcg) {
  lcg = lcg * 1664525u + 1013904223u;
  const auto& prefixes = w.internet().prefixes();
  return prefixes[lcg % prefixes.size()].prefix.first_host();
}

void BM_ResolveTrie(benchmark::State& state) {
  // The pre-FIB data plane: PrefixTrie LPM over known_prefixes_, then the
  // viewpoint router's Loc-RIB hash, then the egress-router -> PoP map.
  auto& w = resolve_world();
  const auto& vns = w.vns();
  const auto& fabric = vns.fabric();
  std::uint32_t lcg = 0x01020304;
  core::PopId viewpoint = 0;
  for (auto _ : state) {
    const auto address = resolve_query(w, lcg);
    viewpoint = (viewpoint + 1) % static_cast<core::PopId>(vns.pops().size());
    std::optional<core::PopId> pop;
    if (const auto prefix = vns.match_prefix(address)) {
      const bgp::Route* route =
          fabric.router(vns.pop(viewpoint).routers[0]).best_route(*prefix);
      if (route != nullptr) {
        const core::PopId p = vns.pop_of_router(route->egress);
        if (p != core::kNoPop) pop = p;
      }
    }
    benchmark::DoNotOptimize(pop);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResolveTrie);

void BM_ResolveFib(benchmark::State& state) {
  // Same queries through the compiled per-viewpoint FIB: one lookup answers
  // {matched prefix, best route, egress PoP}.
  auto& w = resolve_world();
  const auto& vns = w.vns();
  // Warm every viewpoint's FIB so the loop measures probes, not compiles.
  for (core::PopId p = 0; p < vns.pops().size(); ++p) {
    benchmark::DoNotOptimize(vns.egress_pop(p, net::Ipv4Address{0x01000000u}));
  }
  std::uint32_t lcg = 0x01020304;
  core::PopId viewpoint = 0;
  for (auto _ : state) {
    const auto address = resolve_query(w, lcg);
    viewpoint = (viewpoint + 1) % static_cast<core::PopId>(vns.pops().size());
    benchmark::DoNotOptimize(vns.egress_pop(viewpoint, address));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResolveFib);

void BM_GeoIpTrie(benchmark::State& state) {
  // GeoIP resolution through the reference trie walk.
  auto& w = resolve_world();
  std::uint32_t lcg = 0xdeadbeef;
  for (auto _ : state) {
    const auto address = resolve_query(w, lcg);
    benchmark::DoNotOptimize(w.geoip().lookup_uncompiled(address));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GeoIpTrie);

void BM_GeoIpFib(benchmark::State& state) {
  // Same lookups through the database's compiled FIB fast path.
  auto& w = resolve_world();
  benchmark::DoNotOptimize(w.geoip().lookup(net::Ipv4Address{0x01000000u}));  // warm
  std::uint32_t lcg = 0xdeadbeef;
  for (auto _ : state) {
    const auto address = resolve_query(w, lcg);
    benchmark::DoNotOptimize(w.geoip().lookup(address));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GeoIpFib);

// --- incremental FIB patching vs full recompile -----------------------------

/// A synthetic full table at the `--scale full` size: the /16 pool runs out
/// partway through so the tail is /20s, exercising the spill tables exactly
/// like topo::Internet's allocator cascade does.
std::vector<net::FlatFib::Leaf> make_full_table(std::uint32_t count) {
  std::vector<net::FlatFib::Leaf> leaves;
  leaves.reserve(count);
  std::uint32_t b16 = 11, s20 = 0, s24 = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (b16 <= 0xffffu) {
      leaves.push_back({net::Ipv4Prefix{net::Ipv4Address{b16 << 16}, 16}, i});
      ++b16;
      if ((b16 >> 8) == 127) b16 = 128 << 8;
    } else if (s20 < 10u * 256u * 16u) {
      leaves.push_back({net::Ipv4Prefix{net::Ipv4Address{(1u << 24) + (s20 << 12)}, 20}, i});
      ++s20;
    } else {
      leaves.push_back({net::Ipv4Prefix{net::Ipv4Address{s24 << 8}, 24}, i});
      ++s24;
    }
  }
  return leaves;
}

/// Routes changed per churn event: a realistic convergence batch touches a
/// handful of prefixes out of the 100k-entry table.
constexpr int kChurnPerEvent = 64;
constexpr std::uint32_t kFullTableSize = 100000;

void BM_FibPatch(benchmark::State& state) {
  // One churn event via the RIB-delta path: patch only the changed leaves.
  const auto leaves = make_full_table(kFullTableSize);
  net::FlatFib fib = net::FlatFib::compile(leaves.begin(), leaves.end(), leaves.size());
  std::vector<net::FlatFib::Leaf> deltas(kChurnPerEvent);
  std::uint32_t lcg = 0x12345678;
  for (auto _ : state) {
    for (auto& delta : deltas) {
      lcg = lcg * 1664525u + 1013904223u;
      const auto& leaf = leaves[lcg % leaves.size()];
      delta = {leaf.prefix, leaf.value ^ 1u};
    }
    benchmark::DoNotOptimize(fib.patch(deltas));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["routes_per_event"] = kChurnPerEvent;
}

void BM_FibFullRebuild(benchmark::State& state) {
  // Same churn event through the old contract: recompile all 100k leaves.
  auto leaves = make_full_table(kFullTableSize);
  std::uint32_t lcg = 0x12345678;
  for (auto _ : state) {
    for (int k = 0; k < kChurnPerEvent; ++k) {
      lcg = lcg * 1664525u + 1013904223u;
      leaves[lcg % leaves.size()].value ^= 1u;
    }
    net::FlatFib fib = net::FlatFib::compile(leaves.begin(), leaves.end(), leaves.size());
    benchmark::DoNotOptimize(fib.lookup(net::Ipv4Address{11u << 16}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["routes_per_event"] = kChurnPerEvent;
}

BENCHMARK(BM_FibPatch);
BENCHMARK(BM_FibFullRebuild);

// --- full-table FIB compilation ---------------------------------------------

void BM_FibCompile(benchmark::State& state) {
  const auto leaves = make_full_table(kFullTableSize);
  for (auto _ : state) {
    net::FlatFib fib = net::FlatFib::compile(leaves.begin(), leaves.end(), leaves.size());
    benchmark::DoNotOptimize(fib.lookup(net::Ipv4Address{11u << 16}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kFullTableSize);
}
BENCHMARK(BM_FibCompile);

// --- heap-backed vs arena-backed RIB maps -----------------------------------

/// Route-churn workload over a Loc-RIB-shaped map: insert a full-table's
/// worth of entries, then flap a subset, exactly the allocation pattern the
/// fabric's adj-RIBs see during feed + convergence churn.
template <typename Map>
void rib_churn(benchmark::State& state, Map& map,
               const std::vector<net::FlatFib::Leaf>& leaves) {
  for (auto _ : state) {
    map.clear();
    for (const auto& leaf : leaves) map[leaf.prefix] = leaf.value;
    std::uint32_t lcg = 0xabcdef01;
    for (int k = 0; k < 4096; ++k) {
      lcg = lcg * 1664525u + 1013904223u;
      const auto& leaf = leaves[lcg % leaves.size()];
      map.erase(leaf.prefix);
      map[leaf.prefix] = leaf.value ^ 1u;
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(leaves.size()));
}

void BM_FeedRoutesHeap(benchmark::State& state) {
  // Per-node heap allocation: what the router RIBs did before the arena.
  const auto leaves = make_full_table(20000);
  std::unordered_map<net::Ipv4Prefix, std::uint32_t> map;
  rib_churn(state, map, leaves);
}

void BM_FeedRoutesArena(benchmark::State& state) {
  // Bump-pointer arena with per-size freelists: node frees recycle in place.
  const auto leaves = make_full_table(20000);
  util::Arena arena;
  std::unordered_map<net::Ipv4Prefix, std::uint32_t, std::hash<net::Ipv4Prefix>,
                     std::equal_to<net::Ipv4Prefix>,
                     util::ArenaAllocator<std::pair<const net::Ipv4Prefix, std::uint32_t>>>
      map{util::ArenaAllocator<std::pair<const net::Ipv4Prefix, std::uint32_t>>{arena}};
  rib_churn(state, map, leaves);
  state.counters["arena_reserved_kb"] =
      static_cast<double>(arena.stats().reserved_bytes) / 1024.0;
}

BENCHMARK(BM_FeedRoutesHeap);
BENCHMARK(BM_FeedRoutesArena);

void BM_MetricsRegistryAdd(benchmark::State& state) {
  // The hot-path update: one relaxed fetch_add on the metric's fixed cell,
  // with no lock and no name lookup.
  obs::MetricsRegistry registry;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) registry.add(obs::metric("counters.measure.probes_sent"));
  }
  benchmark::DoNotOptimize(registry.count(obs::metric("counters.measure.probes_sent")));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_MetricsRegistryAdd);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the repo-wide bench convention
// accepts --json (bench_smoke passes it everywhere), which google-benchmark
// would reject as unrecognized.  Translate it to the native JSON reporter.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  for (auto& arg : args) {
    if (arg == "--json") arg = "--benchmark_format=json";
  }
  std::vector<char*> argp;
  argp.reserve(args.size());
  for (auto& arg : args) argp.push_back(arg.data());
  int benchmark_argc = static_cast<int>(argp.size());
  benchmark::Initialize(&benchmark_argc, argp.data());
  if (benchmark::ReportUnrecognizedArguments(benchmark_argc, argp.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
