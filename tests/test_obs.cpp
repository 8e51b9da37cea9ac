// Tests for vns::obs and the observability surfaces wired through the
// stack: JSON primitives, the TraceSink ring buffer, the metrics registry
// and its serializer, decision provenance (trace_decision / Router::explain /
// VnsNetwork::explain_route), fabric trace determinism (including across
// campaign --threads settings), and convergence timelines.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "bgp/decision.hpp"
#include "bgp/fabric.hpp"
#include "core/vns_network.hpp"
#include "measure/workbench.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace vns {
namespace {

// ------------------------------------------------------- json primitives ---

TEST(ObsJson, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc"), "a\\nb\\tc");
  // Every control character below 0x20 must be escaped, not passed through.
  EXPECT_EQ(obs::json_escape(std::string_view{"\x01", 1}), "\\u0001");
  EXPECT_EQ(obs::json_escape(std::string_view{"\x1f", 1}), "\\u001f");
  EXPECT_EQ(obs::json_escape(std::string_view{"\0", 1}), "\\u0000");
}

TEST(ObsJson, NumbersAreFiniteOrNull) {
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_number(std::uint64_t{42}), "42");
  EXPECT_EQ(obs::json_number(std::int64_t{-7}), "-7");
}

TEST(ObsJson, StringsAreQuoted) {
  EXPECT_EQ(obs::json_string("x\ny"), "\"x\\ny\"");
}

// ------------------------------------------------------------ trace sink ---

obs::TraceEvent make_event(std::uint64_t when, obs::TraceEventKind kind) {
  obs::TraceEvent event;
  event.when = when;
  event.kind = kind;
  event.a = static_cast<std::uint32_t>(when);
  event.b = obs::kNoTraceId;
  return event;
}

TEST(TraceSink, RingBufferKeepsNewestAndCountsOverwrites) {
  obs::TraceSink sink{4};
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.record(make_event(i, obs::TraceEventKind::kAnnounce));
  }
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.overwritten(), 6u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, holding the last four records (when = 6..9).
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].when, 6u + i);
  }
}

TEST(TraceSink, CountsByKindAndClears) {
  obs::TraceSink sink{16};
  sink.record(make_event(0, obs::TraceEventKind::kAnnounce));
  sink.record(make_event(1, obs::TraceEventKind::kLinkDown));
  sink.record(make_event(2, obs::TraceEventKind::kLinkDown));
  EXPECT_EQ(sink.count(obs::TraceEventKind::kLinkDown), 2u);
  EXPECT_EQ(sink.count(obs::TraceEventKind::kAnnounce), 1u);
  EXPECT_EQ(sink.count(obs::TraceEventKind::kLinkUp), 0u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSink, JsonlIsOneObjectPerLineAndAlwaysHasSummary) {
  obs::TraceSink sink{8};
  const auto jsonl_empty = sink.to_jsonl();
  EXPECT_NE(jsonl_empty.find("\"type\":\"trace_summary\""), std::string::npos);
  sink.record(make_event(3, obs::TraceEventKind::kAnnounce));
  const auto jsonl = sink.to_jsonl();
  std::istringstream lines{jsonl};
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++n;
  }
  EXPECT_GE(n, 2u);  // at least one event + the summary
}

TEST(TraceSink, SummaryTrailerReportsDropCounts) {
  obs::TraceSink sink{4};
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.record(make_event(i, obs::TraceEventKind::kAnnounce));
  }
  // The trailer must make silent loss visible: 10 recorded, 4 held, 6
  // overwritten, and an explicit truncated flag.
  const auto jsonl = sink.to_jsonl();
  EXPECT_NE(jsonl.find("\"type\":\"trace_summary\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"recorded\":10"), std::string::npos);
  EXPECT_NE(jsonl.find("\"held\":4"), std::string::npos);
  EXPECT_NE(jsonl.find("\"overwritten\":6"), std::string::npos);
  EXPECT_NE(jsonl.find("\"truncated\":true"), std::string::npos);

  obs::TraceSink roomy{16};
  roomy.record(make_event(0, obs::TraceEventKind::kAnnounce));
  const auto clean = roomy.to_jsonl();
  EXPECT_NE(clean.find("\"overwritten\":0"), std::string::npos);
  EXPECT_NE(clean.find("\"truncated\":false"), std::string::npos);
}

// ------------------------------------------------------- metrics registry ---

TEST(MetricsRegistry, CountersGaugesAndSpans) {
  obs::MetricsRegistry registry;
  constexpr auto probes = obs::metric("counters.measure.probes_sent");
  registry.add(probes, 3);
  registry.add(probes, 2);
  EXPECT_EQ(registry.count(probes), 5u);
  EXPECT_EQ(registry.count(obs::metric("counters.measure.slots_analyzed")), 0u);

  constexpr auto links = obs::metric("traffic.links_loaded");
  registry.set(links, 17);
  registry.set(links, 4);  // gauges overwrite
  EXPECT_EQ(registry.count(links), 4u);
  constexpr auto widest = obs::metric("convergence.max_batch_messages");
  registry.raise(widest, 9);
  registry.raise(widest, 3);  // not a new maximum
  EXPECT_EQ(registry.count(widest), 9u);

  // Seconds accumulate as nanoseconds; real-valued cells hold doubles.
  constexpr auto seconds = obs::metric("memory.fib.patch_seconds");
  registry.add_seconds(seconds, 0.25);
  registry.add_seconds(seconds, 0.5);
  EXPECT_DOUBLE_EQ(registry.value(seconds), 0.75);
  constexpr auto util = obs::metric("traffic.util_max");
  registry.set_real(util, 0.9);
  EXPECT_DOUBLE_EQ(registry.value(util), 0.9);
  constexpr auto saved = obs::metric("traffic.wan_bytes_saved");
  registry.add_real(saved, 1.5e9);
  registry.add_real(saved, 0.5e9);
  EXPECT_DOUBLE_EQ(registry.value(saved), 2.0e9);

  registry.span_record("phase.one", 0.5);
  ASSERT_EQ(registry.spans().size(), 1u);
  EXPECT_EQ(registry.spans()[0].name, "phase.one");

  std::ostringstream jsonl;
  registry.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("{\"type\":\"counter\",\"block\":\"counters\",\"name\":"
                             "\"measure.probes_sent\",\"unit\":\"count\",\"value\":5}"),
            std::string::npos);
  EXPECT_NE(jsonl.str().find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(jsonl.str().find("{\"type\":\"span\",\"name\":\"phase.one\",\"seconds\":0.5}"),
            std::string::npos);
}

TEST(MetricsRegistry, CountersTrailerListsAddsAndSetsInKeyOrder) {
  obs::MetricsRegistry registry;
  constexpr auto slots = obs::metric("counters.measure.slots_analyzed");
  constexpr auto probes = obs::metric("counters.measure.probes_sent");
  constexpr auto delivered = obs::metric("counters.bgp.messages_delivered");
  registry.add(slots, 2);
  registry.add(probes, 1);
  registry.add(slots, 3);
  registry.set(delivered, 42);
  EXPECT_EQ(registry.count(slots), 5u);
  EXPECT_EQ(registry.count(obs::metric("counters.measure.vantages_sampled")), 0u);

  // Only the counters that moved are listed, sorted by key whatever order
  // they moved in; an idle registry prints nothing.
  std::ostringstream trailer;
  registry.print_counters(trailer);
  EXPECT_EQ(trailer.str(),
            "counters:\n"
            "  bgp.messages_delivered = 42\n"
            "  measure.probes_sent = 1\n"
            "  measure.slots_analyzed = 5\n");
  std::ostringstream idle;
  obs::MetricsRegistry{}.print_counters(idle);
  EXPECT_EQ(idle.str(), "");
}

TEST(MetricsRegistry, CountersBlockIsSortedByKey) {
  // The stdout trailer prints the counters block in table order; sorted keys
  // keep it in the order readers and diffs of older outputs expect.
  std::string_view previous;
  for (const obs::MetricDef& def : obs::kMetrics) {
    if (def.block != obs::Block::kCounters) continue;
    EXPECT_LT(previous, def.key);
    previous = def.key;
  }
}

TEST(MetricsRegistry, ConcurrentAddsAreLossless) {
  obs::MetricsRegistry registry;
  constexpr auto probes = obs::metric("counters.measure.probes_sent");
  constexpr auto saved = obs::metric("traffic.wan_bytes_saved");
  constexpr auto widest = obs::metric("convergence.max_batch_messages");
  util::ThreadPool pool{4};
  pool.parallel_for(1000, [&](std::size_t i) {
    registry.add(probes);
    registry.add_real(saved, 0.5);
    registry.raise(widest, i);
  });
  EXPECT_EQ(registry.count(probes), 1000u);
  EXPECT_DOUBLE_EQ(registry.value(saved), 500.0);
  EXPECT_EQ(registry.count(widest), 999u);
}

TEST(MetricsRegistry, SerializerWritesEveryMetricInItsBlock) {
  // Give every cell a distinct value, then find each `"key": value` pair in
  // the rendering of its own block.
  obs::MetricsRegistry registry;
  std::vector<std::string> expected(obs::kMetricCount);
  for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
    const obs::Metric id{i};
    const obs::Unit unit = obs::kMetrics[i].unit;
    if (unit == obs::Unit::kSeconds) {
      registry.add_seconds(id, static_cast<double>(i) + 0.5);
      expected[i] = obs::json_number(static_cast<double>(i) + 0.5);
    } else if (obs::is_real(unit)) {
      registry.set_real(id, static_cast<double>(i) + 0.25);
      expected[i] = obs::json_number(static_cast<double>(i) + 0.25);
    } else {
      registry.set(id, 1000 + i);
      expected[i] = std::to_string(1000 + i);
    }
  }
  const auto render = [&](obs::Block block) {
    std::ostringstream out;
    registry.write_block(out, block);
    return out.str();
  };
  for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
    const obs::MetricDef& def = obs::kMetrics[i];
    const std::string member = obs::json_string(def.key) + ": " + expected[i];
    EXPECT_NE(render(def.block).find(member), std::string::npos)
        << member << " missing from " << obs::block_path(def.block);
  }
  // memory.fib nests inside memory; the rest are top-level record members.
  const std::string fib = render(obs::Block::kFib);
  EXPECT_NE(render(obs::Block::kMemory).find("\"fib\": " + fib + "}"), std::string::npos);
  std::ostringstream record;
  registry.write_bench_blocks(record);
  for (const auto block : {obs::Block::kCounters, obs::Block::kMemory, obs::Block::kConvergence,
                           obs::Block::kTraffic}) {
    const std::string member =
        "\n  " + obs::json_string(obs::block_path(block)) + ": " + render(block);
    EXPECT_NE(record.str().find(member), std::string::npos) << obs::block_path(block);
  }
}

TEST(MetricsRegistry, ScopedTimerRecordsASpan) {
  obs::MetricsRegistry registry;
  {
    const obs::ScopedTimer timer{registry, "timed.block"};
  }
  ASSERT_EQ(registry.spans().size(), 1u);
  EXPECT_EQ(registry.spans()[0].name, "timed.block");
  EXPECT_GE(registry.spans()[0].seconds, 0.0);
}

// --------------------------------------------------- decision provenance ---

bgp::Route make_candidate(std::uint32_t local_pref, std::initializer_list<net::Asn> path,
                          bgp::RouterId id) {
  bgp::Route route;
  route.prefix = net::Ipv4Prefix{net::Ipv4Address{0x0A000000}, 16};
  bgp::Attributes attrs;
  attrs.local_pref = local_pref;
  attrs.as_path = bgp::AsPath{std::vector<net::Asn>{path}};
  route.set_attrs(std::move(attrs));
  route.egress = id;
  route.advertiser = id;
  route.neighbor = id;
  route.learned_via_ebgp = true;
  return route;
}

TEST(DecisionProvenance, LocalPrefDecidesWithMargin) {
  const std::vector<bgp::Route> candidates = {
      make_candidate(900, {174, 400}, 1),
      make_candidate(700, {3356, 400}, 2),
      make_candidate(500, {1299, 400}, 3),
  };
  const auto trace = bgp::trace_decision(candidates, bgp::DecisionContext{0, nullptr});
  ASSERT_TRUE(trace.has_best);
  EXPECT_EQ(trace.best.advertiser, 1u);
  ASSERT_EQ(trace.eliminated.size(), 2u);
  EXPECT_EQ(trace.decisive, bgp::DecisionRung::kLocalPref);
  // Strongest challenger first: lp 700 lost by 200, lp 500 lost by 400.
  EXPECT_EQ(trace.eliminated[0].route.advertiser, 2u);
  EXPECT_EQ(trace.eliminated[0].margin, 200);
  EXPECT_EQ(trace.eliminated[1].margin, 400);
  EXPECT_EQ(trace.decisive_margin, 200);
}

TEST(DecisionProvenance, LocalPrefTieFallsThroughToAsPath) {
  const std::vector<bgp::Route> candidates = {
      make_candidate(800, {174, 400}, 1),
      make_candidate(800, {3356, 7018, 400}, 2),
  };
  const auto trace = bgp::trace_decision(candidates, bgp::DecisionContext{0, nullptr});
  ASSERT_TRUE(trace.has_best);
  EXPECT_EQ(trace.best.advertiser, 1u);
  ASSERT_EQ(trace.eliminated.size(), 1u);
  EXPECT_EQ(trace.decisive, bgp::DecisionRung::kAsPathLength);
  EXPECT_EQ(trace.decisive_margin, 1);
}

TEST(DecisionProvenance, EmptyCandidateSet) {
  const auto trace = bgp::trace_decision(std::span<const bgp::Route>{}, bgp::DecisionContext{0, nullptr});
  EXPECT_FALSE(trace.has_best);
  EXPECT_TRUE(trace.eliminated.empty());
}

// ------------------------------------------------- fabric trace semantics ---

struct TracedFabric {
  obs::TraceSink sink{1u << 12};
  bgp::Fabric fabric{65000};
  bgp::RouterId a, b, c, rr;
  bgp::NeighborId up_a, up_c;

  explicit TracedFabric(bool traced = true) {
    a = fabric.add_router("A");
    b = fabric.add_router("B");
    c = fabric.add_router("C");
    rr = fabric.add_router("RR");
    for (auto client : {a, b, c}) {
      fabric.add_rr_client_session(rr, client);
      fabric.router(client).set_advertise_best_external(true);
    }
    fabric.add_igp_link(a, b, 10);
    fabric.add_igp_link(b, c, 10);
    fabric.add_igp_link(a, rr, 1);
    up_a = fabric.add_neighbor(a, 174, bgp::NeighborKind::kUpstream, "upA");
    up_c = fabric.add_neighbor(c, 3356, bgp::NeighborKind::kUpstream, "upC");
    if (traced) fabric.set_trace(&sink);
  }

  void announce_and_converge(std::uint32_t block) {
    const net::Ipv4Prefix prefix{net::Ipv4Address{block << 12}, 20};
    bgp::Attributes attrs;
    attrs.as_path = bgp::AsPath{{174, 400}};
    fabric.announce(up_a, prefix, attrs);
    bgp::Attributes attrs2;
    attrs2.as_path = bgp::AsPath{{3356, 401}};
    fabric.announce(up_c, prefix, attrs2);
    fabric.run_to_convergence();
  }
};

TEST(FabricTrace, RecordsAnnouncementsDeliveriesAndRibChanges) {
  TracedFabric t;
  t.announce_and_converge(4096);
  EXPECT_EQ(t.sink.count(obs::TraceEventKind::kAnnounce), 2u);
  EXPECT_GT(t.sink.count(obs::TraceEventKind::kUpdateDelivered), 0u);
  EXPECT_GT(t.sink.count(obs::TraceEventKind::kLocRibChanged), 0u);
  EXPECT_EQ(t.sink.count(obs::TraceEventKind::kConvergeBegin), 1u);
  EXPECT_EQ(t.sink.count(obs::TraceEventKind::kConvergeEnd), 1u);
  // Logical time is monotone non-decreasing across the recorded sequence.
  const auto events = t.sink.events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].when, events[i - 1].when);
  }
}

TEST(FabricTrace, FaultEventsAreRecorded) {
  TracedFabric t;
  t.announce_and_converge(4096);
  ASSERT_TRUE(t.fabric.fail_session(t.up_a));
  t.fabric.run_to_convergence();
  ASSERT_TRUE(t.fabric.restore_session(t.up_a));
  t.fabric.run_to_convergence();
  EXPECT_EQ(t.sink.count(obs::TraceEventKind::kEbgpSessionDown), 1u);
  EXPECT_EQ(t.sink.count(obs::TraceEventKind::kEbgpSessionUp), 1u);
  ASSERT_TRUE(t.fabric.fail_link(t.a, t.b));
  EXPECT_EQ(t.sink.count(obs::TraceEventKind::kLinkDown), 1u);
  ASSERT_TRUE(t.fabric.restore_link(t.a, t.b));
  EXPECT_EQ(t.sink.count(obs::TraceEventKind::kLinkUp), 1u);
}

TEST(FabricTrace, ConvergenceTimelinesTrackSettling) {
  TracedFabric t;
  t.announce_and_converge(4096);
  const auto timelines = t.sink.convergence_timelines();
  ASSERT_EQ(timelines.size(), 1u);
  const auto& timeline = timelines.front();
  EXPECT_EQ(timeline.prefix, (net::Ipv4Prefix{net::Ipv4Address{4096u << 12}, 20}));
  EXPECT_GT(timeline.messages, 0u);
  EXPECT_GE(timeline.last_rib_change, timeline.first_event);
  EXPECT_GE(timeline.settle_ticks(), 0u);
}

TEST(FabricTrace, IdenticalRunsProduceIdenticalTraces) {
  TracedFabric first, second;
  for (std::uint32_t block = 4096; block < 4100; ++block) {
    first.announce_and_converge(block);
    second.announce_and_converge(block);
  }
  ASSERT_EQ(first.sink.size(), second.sink.size());
  const auto lhs = first.sink.events();
  const auto rhs = second.sink.events();
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i], rhs[i]) << "event " << i << " diverged";
  }
}

TEST(FabricTrace, DisabledSinkLeavesStateIdentical) {
  TracedFabric traced{true}, untraced{false};
  for (std::uint32_t block = 4096; block < 4099; ++block) {
    traced.announce_and_converge(block);
    untraced.announce_and_converge(block);
  }
  EXPECT_EQ(untraced.sink.recorded(), 0u);
  // Same routes chosen with and without the sink attached.
  const net::Ipv4Prefix prefix{net::Ipv4Address{4096u << 12}, 20};
  for (auto id : {traced.a, traced.b, traced.c, traced.rr}) {
    const auto* with = traced.fabric.router(id).best_route(prefix);
    const auto* without = untraced.fabric.router(id).best_route(prefix);
    ASSERT_EQ(with == nullptr, without == nullptr);
    if (with != nullptr) {
      EXPECT_EQ(*with, *without);
    }
  }
  EXPECT_EQ(traced.fabric.messages_delivered(), untraced.fabric.messages_delivered());
}

// ---------------------------------- explain_route on the 11-PoP topology ---

obs::TraceSink& world_sink() {
  static obs::TraceSink sink{1u << 16};
  return sink;
}

measure::Workbench& world(int threads, obs::TraceSink& sink) {
  auto config = measure::WorkbenchConfig::small(17);
  config.threads = threads;
  config.trace = &sink;
  auto bench = measure::Workbench::build(config);
  bench->vns().set_geo_routing(true);
  return *bench.release();  // leaked intentionally: lives for the process
}

measure::Workbench& traced_world() {
  static measure::Workbench& instance = world(1, world_sink());
  return instance;
}

TEST(ExplainRoute, NamesGeoClosestEgressWithDecidingRung) {
  auto& w = traced_world();
  const auto viewpoint = *w.vns().find_pop("AMS");
  std::size_t explained = 0, geo_decided = 0;
  const auto total = w.internet().prefixes().size();
  for (std::size_t id = 5; id < total && explained < 24; id += total / 24) {
    const auto address = w.internet().prefix(id).prefix.first_host();
    const auto explanation = w.vns().explain_route(viewpoint, address);
    if (!explanation.matched || !explanation.routed) continue;
    ++explained;
    EXPECT_TRUE(explanation.geo_routing);
    EXPECT_EQ(explanation.viewpoint_name, "AMS");
    // The chosen egress agrees with the routing answer the data plane uses.
    const auto egress = w.vns().egress_pop(viewpoint, address);
    ASSERT_TRUE(egress.has_value());
    EXPECT_EQ(explanation.chosen.pop, *egress);
    if (explanation.decisive == bgp::DecisionRung::kLocalPref &&
        explanation.had_geo_location && !explanation.runners_up.empty() &&
        explanation.chosen.local_pref < 1000 && explanation.chosen.local_pref > 400 &&
        explanation.runners_up.front().geo_km >= 0.0 && explanation.chosen.geo_km >= 0.0) {
      // The chosen local-pref is an unclamped geo score, so the reflector
      // picked the geographically closest advertised exit: no runner-up PoP
      // (the local exit it beat) can be closer to the destination.
      ++geo_decided;
      ASSERT_TRUE(std::isfinite(explanation.won_by_km));
      EXPECT_GE(explanation.won_by_km, 0.0);
      EXPECT_LE(explanation.chosen.geo_km, explanation.runners_up.front().geo_km);
    }
    // Text and JSON render without throwing and carry the PoP name.
    const auto text = explanation.text();
    EXPECT_NE(text.find(explanation.chosen.pop_name), std::string::npos);
    const auto json = explanation.json();
    EXPECT_NE(json.find("\"type\":\"explain\""), std::string::npos);
  }
  EXPECT_GE(explained, 8u);
  EXPECT_GE(geo_decided, 1u);
}

TEST(ExplainRoute, UnroutedAddressReportsNoRoute) {
  auto& w = traced_world();
  const auto viewpoint = *w.vns().find_pop("AMS");
  // 240.0.0.0/4 is reserved: the generated internet never announces it.
  const auto explanation =
      w.vns().explain_route(viewpoint, *net::Ipv4Address::parse("240.1.2.3"));
  EXPECT_FALSE(explanation.matched && explanation.routed);
  const auto text = explanation.text();
  EXPECT_TRUE(text.find("no covering prefix") != std::string::npos ||
              text.find("no route installed") != std::string::npos)
      << text;
}

TEST(ExplainRoute, DeterministicAcrossCampaignThreadCounts) {
  auto& serial = traced_world();
  static obs::TraceSink parallel_sink{1u << 16};
  static measure::Workbench& parallel = world(4, parallel_sink);

  // The fabric feed is serial regardless of --threads, so the traces the two
  // worlds captured while feeding routes must be bit-identical.
  ASSERT_EQ(world_sink().recorded(), parallel_sink.recorded());
  ASSERT_EQ(world_sink().size(), parallel_sink.size());
  const auto lhs = world_sink().events();
  const auto rhs = parallel_sink.events();
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    ASSERT_EQ(lhs[i], rhs[i]) << "trace diverged at event " << i;
  }
  EXPECT_EQ(world_sink().to_jsonl(), parallel_sink.to_jsonl());

  // And so must the provenance answers.
  const auto viewpoint = *serial.vns().find_pop("LON");
  const auto total = serial.internet().prefixes().size();
  for (std::size_t id = 3; id < total; id += total / 12) {
    const auto address = serial.internet().prefix(id).prefix.first_host();
    EXPECT_EQ(serial.vns().explain_route(viewpoint, address).text(),
              parallel.vns().explain_route(viewpoint, address).text());
    EXPECT_EQ(serial.vns().explain_route(viewpoint, address).json(),
              parallel.vns().explain_route(viewpoint, address).json());
  }
}

}  // namespace
}  // namespace vns
