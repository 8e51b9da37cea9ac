// Serving-mode SLO harness tests: the HDR-style LatencyRecorder's bucket
// geometry, merge determinism, percentile error bound and null rule for
// under-sampled tails; the replayable update-trace round trip; and the
// engine-level contracts — record→replay byte-identity of the final fabric
// state at any thread count, and resolvers reading the published FIBs while
// the churn thread publishes.  Everything here runs under the
// tsan_concurrency_sweep (Serve.*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measure/workbench.hpp"
#include "obs/latency.hpp"
#include "serve/engine.hpp"
#include "serve/update_trace.hpp"

namespace vns {
namespace {

// Deterministic value stream for histogram tests (same LCG family as the
// trace generator; self-contained so the tests never depend on util RNGs).
class TestRng {
 public:
  explicit TestRng(std::uint64_t seed) : state_(seed * 2654435761u + 1) {}
  std::uint64_t next(std::uint64_t bound) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return (state_ >> 33) % bound;
  }

 private:
  std::uint64_t state_;
};

// ------------------------------------------------------- latency recorder ---

TEST(Serve, LatencyBucketGeometryRoundTrips) {
  using R = obs::LatencyRecorder;
  // Every bucket index maps to a lower bound that maps back to the same
  // bucket, and consecutive buckets tile the range without gaps.
  for (std::size_t bucket = 0; bucket + 1 < R::kBucketCount; ++bucket) {
    const std::uint64_t lo = R::bucket_lo(bucket);
    EXPECT_EQ(R::bucket_of(lo), bucket) << "bucket " << bucket;
    const std::uint64_t width = R::bucket_width(bucket);
    EXPECT_EQ(R::bucket_of(lo + width - 1), bucket) << "bucket " << bucket;
    EXPECT_EQ(R::bucket_lo(bucket + 1), lo + width) << "bucket " << bucket;
  }
  // Spot-check values across octaves, including the exact range boundary
  // and the top of the uint64 range.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, R::kSubBuckets - 1, R::kSubBuckets,
        std::uint64_t{1000}, std::uint64_t{1} << 32,
        std::numeric_limits<std::uint64_t>::max()}) {
    const std::size_t bucket = R::bucket_of(v);
    ASSERT_LT(bucket, R::kBucketCount);
    EXPECT_LE(R::bucket_lo(bucket), v);
    EXPECT_GE(R::bucket_lo(bucket) + (R::bucket_width(bucket) - 1), v);
  }
}

TEST(Serve, LatencyMergeIsDeterministicAcrossShardAssignment) {
  // The same multiset of samples, sprayed across different shard counts and
  // assignments, must merge to the identical snapshot.
  std::vector<std::uint64_t> values;
  TestRng rng{7};
  for (int i = 0; i < 20000; ++i) values.push_back(rng.next(200'000'000) + 1);

  obs::LatencyRecorder one{1};
  obs::LatencyRecorder four{4};
  obs::LatencyRecorder seven{7};
  for (std::size_t i = 0; i < values.size(); ++i) {
    one.shard(0).record(values[i]);
    four.shard(i % 4).record(values[i]);
    seven.shard((i * 31) % 7).record(values[i]);
  }
  const auto reference = one.snapshot();
  EXPECT_EQ(reference.total(), values.size());
  EXPECT_EQ(four.snapshot(), reference);
  EXPECT_EQ(seven.snapshot(), reference);

  // Merging per-shard snapshots by hand reproduces the recorder's merge.
  obs::LatencySnapshot merged;
  for (std::size_t s = 0; s < four.shard_count(); ++s) {
    merged.merge(four.shard(s).snapshot());
  }
  EXPECT_EQ(merged, reference);
}

TEST(Serve, LatencyQuantileRelativeErrorIsBounded) {
  // Reporting bucket midpoints bounds any percentile's relative error by
  // 2^-(kPrecisionBits+1); verify against exact order statistics.
  constexpr double kBound =
      1.0 / static_cast<double>(std::uint64_t{2}
                                << obs::LatencyRecorder::kPrecisionBits);
  std::vector<std::uint64_t> values;
  TestRng rng{11};
  for (int i = 0; i < 50000; ++i) values.push_back(rng.next(5'000'000'000ull) + 1);

  obs::LatencyRecorder recorder{1};
  for (const auto v : values) recorder.shard(0).record(v);
  std::sort(values.begin(), values.end());

  const auto snapshot = recorder.snapshot();
  for (const double q : {0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(std::max<double>(
        1.0, std::ceil(q * static_cast<double>(values.size()))));
    const double exact = static_cast<double>(values[rank - 1]);
    const double estimate = snapshot.quantile(q);
    EXPECT_LE(std::abs(estimate - exact), exact * kBound + 0.5)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
  EXPECT_GT(snapshot.quantile(0.5), 0.0);
  EXPECT_EQ(obs::LatencySnapshot{}.quantile(0.5), 0.0);
}

TEST(Serve, LatencyConcurrentRecordingMatchesSerialMerge) {
  // One shard per thread, heavy concurrent recording: the merged snapshot
  // must equal a serial recording of the union of all streams.
  constexpr std::size_t kThreads = 4;
  constexpr int kPerThread = 25000;
  obs::LatencyRecorder concurrent{kThreads};
  obs::LatencyRecorder serial{1};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&concurrent, t] {
      TestRng rng{1000 + t};
      auto& shard = concurrent.shard(t);
      for (int i = 0; i < kPerThread; ++i) shard.record(rng.next(1'000'000) + 1);
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    TestRng rng{1000 + t};
    for (int i = 0; i < kPerThread; ++i) serial.shard(0).record(rng.next(1'000'000) + 1);
  }
  EXPECT_EQ(concurrent.snapshot(), serial.snapshot());
  EXPECT_EQ(concurrent.snapshot().total(), kThreads * kPerThread);
}

TEST(Serve, LatencySnapshotJsonHasTheFixedLadder) {
  obs::LatencyRecorder recorder{1};
  for (std::uint64_t v = 1; v <= 1000; ++v) recorder.shard(0).record(v);
  const auto json = recorder.snapshot().to_json("ns");
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key : {"\"count\":1000", "\"p50_ns\":", "\"p90_ns\":",
                          "\"p99_ns\":", "\"p999_ns\":", "\"max_ns\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  }
  // 1000 samples leave ten beyond p99 but one beyond p999.
  EXPECT_EQ(json.find("\"p99_ns\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999_ns\":null"), std::string::npos) << json;

  // Small ladders print no fake tails: with 20 samples only p50 has ten
  // samples beyond it; max is an observation and stays.
  obs::LatencyRecorder small{1};
  for (std::uint64_t v = 1; v <= 20; ++v) small.shard(0).record(v);
  const auto small_json = small.snapshot().to_json("us");
  EXPECT_EQ(small_json,
            "{\"count\":20,\"p50_us\":10,\"p90_us\":null,\"p99_us\":null,"
            "\"p999_us\":null,\"max_us\":20}");

  // An empty ladder reports no value at all.
  EXPECT_EQ(obs::LatencySnapshot{}.to_json("us"),
            "{\"count\":0,\"p50_us\":null,\"p90_us\":null,\"p99_us\":null,"
            "\"p999_us\":null,\"max_us\":null}");
}

// ------------------------------------------------------------ update trace ---

TEST(Serve, TraceGenerationIsDeterministicAndRoundTripsThroughJsonl) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  world->vns().set_geo_routing(true);

  serve::GenerateConfig gen;
  gen.seed = 7;
  gen.batches = 6;
  gen.events_per_batch = 5;
  const auto trace = serve::generate_trace(world->vns(), gen);
  EXPECT_EQ(trace.seed, 7u);
  EXPECT_EQ(trace.batches, 6u);
  EXPECT_FALSE(trace.events.empty());

  // Pure function of (network shape, config): regeneration is identical,
  // and generation never mutates the network (the fabric state is unchanged).
  const std::string state_before = serve::dump_fabric_state(world->vns().fabric());
  const auto again = serve::generate_trace(world->vns(), gen);
  EXPECT_EQ(serve::dump_fabric_state(world->vns().fabric()), state_before);
  EXPECT_EQ(again.events, trace.events);
  EXPECT_EQ(serve::trace_to_jsonl(again), serve::trace_to_jsonl(trace));

  // save → load round trip preserves every field of every event.
  std::istringstream in{serve::trace_to_jsonl(trace)};
  const auto loaded = serve::load_trace(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, trace.seed);
  EXPECT_EQ(loaded->scale, trace.scale);
  EXPECT_EQ(loaded->batches, trace.batches);
  EXPECT_EQ(loaded->events, trace.events);

  // The generated trace names only what the world has.
  std::istringstream checked{serve::trace_to_jsonl(trace)};
  EXPECT_TRUE(serve::load_trace(checked, &world->vns()).has_value());

  // Malformed input is rejected, not misparsed.
  std::istringstream headerless{"{\"op\":\"announce\"}\n"};
  EXPECT_FALSE(serve::load_trace(headerless).has_value());
  const std::string header =
      "{\"type\":\"update_trace\",\"version\":1,\"scale\":\"small\",\"seed\":1,"
      "\"batches\":1,\"events\":1}\n";
  std::istringstream bad_op{header + "{\"op\":\"frobnicate\",\"batch\":0}\n"};
  EXPECT_FALSE(serve::load_trace(bad_op).has_value());
  // A header of another version, or one declaring more events than the
  // trace holds, is refused.
  const std::string jsonl = serve::trace_to_jsonl(trace);
  std::string future = jsonl;
  future.replace(future.find("\"version\":1,"), 12, "\"version\":7,");
  std::istringstream future_in{future};
  std::string header_error;
  EXPECT_FALSE(serve::load_trace(future_in, nullptr, &header_error).has_value());
  EXPECT_EQ(header_error, "line 1: unsupported version 7");
  ASSERT_GT(trace.events.size(), 3u);
  std::size_t cut = 0;
  for (int line = 0; line < 4; ++line) cut = jsonl.find('\n', cut) + 1;  // header + 3 events
  std::istringstream truncated{jsonl.substr(0, cut)};
  EXPECT_FALSE(serve::load_trace(truncated, nullptr, &header_error).has_value());
  EXPECT_EQ(header_error, "header declares " + std::to_string(trace.events.size()) +
                              " events, trace has 3");
  // Numbers that overflow or do not fit their field are rejected, never
  // wrapped into a different session, AS, MED, batch, PoP or upstream.
  for (const char* event : {
           R"({"type":"update_event","batch":0,"op":"announce","session":4294967296,)"
           R"("prefix":"10.0.0.0/8","as_path":[174,64512],"med":0})",
           R"({"type":"update_event","batch":0,"op":"announce","session":0,)"
           R"("prefix":"10.0.0.0/8","as_path":[4294967297,64512],"med":0})",
           R"({"type":"update_event","batch":0,"op":"announce","session":0,)"
           R"("prefix":"10.0.0.0/8","as_path":[174,64512],"med":4294967298})",
           R"({"type":"update_event","batch":18446744073709551616,"op":"withdraw",)"
           R"("session":0,"prefix":"10.0.0.0/8"})",
           R"({"type":"update_event","batch":18446744073709551615,"op":"withdraw",)"
           R"("session":0,"prefix":"10.0.0.0/8"})",
           R"({"type":"update_event","batch":0,"op":"upstream_down","pop":0,"which":4294967295})",
           R"({"type":"update_event","batch":0,"op":"upstream_down","pop":4294967296,"which":0})",
       }) {
    std::istringstream wrapped{header + event + "\n"};
    EXPECT_FALSE(serve::load_trace(wrapped).has_value()) << event;
  }

  // Checked against the world, an event naming a session, PoP, upstream or
  // link it lacks is rejected with its line number.
  for (const auto& [event, why] : std::vector<std::pair<std::string, std::string>>{
           {R"({"type":"update_event","batch":0,"op":"withdraw","session":9999,)"
            R"("prefix":"10.0.0.0/8"})",
            "line 2: unknown session 9999"},
           {R"({"type":"update_event","batch":0,"op":"upstream_down","pop":99,"which":0})",
            "line 2: unknown PoP 99"},
           {R"({"type":"update_event","batch":0,"op":"upstream_up","pop":0,"which":7})",
            "line 2: PoP 0 has no upstream 7"},
           {R"({"type":"update_event","batch":0,"op":"link_down","a":0,"b":99})",
            "line 2: no link between PoPs 0 and 99"},
       }) {
    std::istringstream unknown{header + event + "\n"};
    std::string error;
    EXPECT_FALSE(serve::load_trace(unknown, &world->vns(), &error).has_value()) << event;
    EXPECT_EQ(error, why);
    std::istringstream unchecked{header + event + "\n"};
    EXPECT_TRUE(serve::load_trace(unchecked).has_value()) << event;
  }
}

// ----------------------------------------------------------------- engine ---

serve::SloReport run_engine_on(core::VnsNetwork& vns, const serve::UpdateTrace& trace,
                               int threads, std::ostream* heartbeat_out = nullptr) {
  serve::EngineConfig config;
  config.resolver_threads = threads;
  config.duration_s = 0.0;  // schedule is event-driven; no need to dwell
  config.qps = 0.0;
  config.seed = 5;
  config.heartbeat_every = heartbeat_out != nullptr ? 2 : 0;
  config.heartbeat_out = heartbeat_out;
  serve::Engine engine(vns, config);
  return engine.run(trace);
}

TEST(Serve, RecordReplayIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract behind vns_serve --record/--replay: the same
  // trace applied under any resolver-thread count (and replayed from its
  // JSONL encoding) leaves the fabric in a byte-identical state.
  serve::GenerateConfig gen;
  gen.seed = 7;
  gen.batches = 6;
  gen.events_per_batch = 5;

  std::string dumps[3];
  const int thread_counts[] = {1, 4, 1};
  std::string recorded_jsonl;
  for (int run = 0; run < 3; ++run) {
    auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
    world->vns().set_geo_routing(true);
    serve::UpdateTrace trace;
    if (run < 2) {
      trace = serve::generate_trace(world->vns(), gen);  // record path
      recorded_jsonl = serve::trace_to_jsonl(trace);
    } else {
      std::istringstream in{recorded_jsonl};  // replay path
      auto loaded = serve::load_trace(in);
      ASSERT_TRUE(loaded.has_value());
      trace = *std::move(loaded);
    }
    const auto report = run_engine_on(world->vns(), trace, thread_counts[run]);
    EXPECT_EQ(report.batches, gen.batches);
    EXPECT_GT(report.events_applied, 0u);
    dumps[run] = serve::dump_fabric_state(world->vns().fabric());
  }
  ASSERT_FALSE(dumps[0].empty());
  EXPECT_EQ(dumps[0], dumps[1]) << "fabric state diverged across thread counts";
  EXPECT_EQ(dumps[0], dumps[2]) << "replayed trace diverged from recorded run";
}

TEST(Serve, ConcurrentResolveDuringPatchServesEveryProbeAndEndsFresh) {
  // Four resolvers read the viewpoint FIBs while the churn thread streams
  // twelve batches, publishing after every fault and every batch: every
  // probe lands in the single resolve ladder, every batch that applied an
  // event lands in the publish ladder, and the run ends with every viewpoint
  // answering as the converged RIBs do.
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();
  vns.set_geo_routing(true);
  serve::GenerateConfig gen;
  gen.seed = 9;
  gen.batches = 12;
  gen.events_per_batch = 6;
  const auto trace = serve::generate_trace(vns, gen);

  std::ostringstream heartbeats;
  const auto report = run_engine_on(vns, trace, 4, &heartbeats);

  EXPECT_EQ(report.batches, 12u);
  EXPECT_GT(report.events_applied, 0u);
  EXPECT_GT(report.probes, 0u);
  EXPECT_EQ(report.resolve_ns.total(), report.probes);
  EXPECT_GT(report.publish_us.total(), 0u);
  EXPECT_LE(report.publish_us.total(), report.batches);
  EXPECT_GT(report.fib_patches + report.fib_full_rebuilds, 0u);

  // Ends fresh: the last convergence published, so every viewpoint agrees
  // with the match_prefix -> best_route reference.
  const auto prefixes = vns.known_prefix_log();
  for (const auto& pop : vns.pops()) {
    const bgp::Router& router = vns.fabric().router(pop.routers[0]);
    for (std::size_t i = 0; i < prefixes.size(); i += 5) {
      const auto address = prefixes[i].first_host();
      std::optional<core::PopId> want;
      if (const auto prefix = vns.match_prefix(address)) {
        const bgp::Route* route = router.best_route(*prefix);
        if (route != nullptr && vns.pop_of_router(route->egress) != core::kNoPop) {
          want = vns.pop_of_router(route->egress);
        }
      }
      ASSERT_EQ(vns.egress_pop(pop.id, address), want)
          << "viewpoint " << pop.name << " left stale for " << address.to_string();
    }
  }

  // Heartbeats are one JSON object per line, typed and batch-stamped.
  std::istringstream lines{heartbeats.str()};
  std::string line;
  std::size_t heartbeat_count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* key : {"\"type\":\"slo_heartbeat\"", "\"batch\":", "\"resolve\":",
                            "\"publish\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " missing in " << line;
    }
    ++heartbeat_count;
  }
  EXPECT_EQ(heartbeat_count, 6u);  // every 2 of 12 batches

  // The slo JSON block embeds both ladders plus the patch counters.
  const auto json = report.to_json();
  for (const char* key : {"\"resolve\":", "\"publish\":", "\"probes\":",
                          "\"fib_patches\":", "\"fib_full_rebuilds\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
}

}  // namespace
}  // namespace vns
