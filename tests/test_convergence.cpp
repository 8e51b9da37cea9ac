// The frontier convergence engine: trace stamp goldens (queue depth, one
// logical tick per batch), the batch-atomic budget and the registry's
// convergence block.  The 50+ seeded churn schedules below (announce/
// withdraw/link/session/router faults) replay through every suite here.
//
// The FibPatch suite rides the same schedules to prove the RIB-delta
// protocol: per-router FlatFibs maintained only through
// Fabric::rib_deltas_since + FlatFib::patch must answer identically to
// from-scratch compiles after every convergence batch, and the delta log
// of fabrics replayed concurrently must match the serial replay's.
//
// The IgpRevisit suite holds the IGP-change rule (re-decide only what the
// change can move) to the full answer: a route refresh after every
// convergence of the corpus and of a small-world fault schedule must find
// nothing left to change, and both schedules' outputs (state, trace,
// message counts, RIB-delta log) must match pinned digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/fabric.hpp"
#include "measure/workbench.hpp"
#include "net/flat_fib.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "util/thread_pool.hpp"

namespace vns {
namespace {

using bgp::Fabric;
using bgp::NeighborId;
using bgp::NeighborKind;
using bgp::RouterId;
using net::Ipv4Prefix;

bgp::Attributes attrs_with_path(std::vector<net::Asn> path) {
  bgp::Attributes attrs;
  attrs.as_path = bgp::AsPath{std::move(path)};
  return attrs;
}

/// Fig. 2 shape plus one extra client so router faults leave survivors:
/// four border routers under one RR, two upstreams and a peer.
struct ConvergenceFixture {
  Fabric fabric{65000};
  obs::TraceSink sink{1u << 18};
  std::vector<RouterId> borders;
  RouterId rr;
  std::vector<NeighborId> uplinks;

  explicit ConvergenceFixture(bool traced = true) {
    for (int i = 0; i < 4; ++i) {
      borders.push_back(fabric.add_router("B" + std::to_string(i)));
    }
    rr = fabric.add_router("RR");
    for (std::size_t i = 0; i < borders.size(); ++i) {
      fabric.add_rr_client_session(rr, borders[i]);
      fabric.add_igp_link(rr, borders[i], 1);
      fabric.router(borders[i]).set_advertise_best_external(true);
    }
    fabric.add_igp_link(borders[0], borders[1], 10);
    fabric.add_igp_link(borders[1], borders[2], 10);
    fabric.add_igp_link(borders[2], borders[3], 10);
    uplinks.push_back(fabric.add_neighbor(borders[0], 174, NeighborKind::kUpstream, "up0"));
    uplinks.push_back(fabric.add_neighbor(borders[1], 3356, NeighborKind::kUpstream, "up1"));
    uplinks.push_back(fabric.add_neighbor(borders[2], 6939, NeighborKind::kPeer, "peer2"));
    uplinks.push_back(fabric.add_neighbor(borders[3], 1299, NeighborKind::kUpstream, "up3"));
    if (traced) fabric.set_trace(&sink);
  }

  [[nodiscard]] bool neighbor_session_up(NeighborId n) const {
    const auto& info = fabric.neighbor(n);
    return fabric.router(info.attached_to)
        .session_is_up(bgp::SessionKind::kEbgp, n);
  }
};

/// Sorted, fully materialized control-plane state: every router's Loc-RIB
/// and every neighbor's export sink rendered through Route::to_string.
std::string dump_state(const Fabric& fabric) {
  std::ostringstream out;
  for (RouterId r = 0; r < fabric.router_count(); ++r) {
    out << "router " << r << "\n";
    std::map<Ipv4Prefix, std::string> rows;
    for (const auto& [prefix, route] : fabric.router(r).loc_rib()) {
      rows[prefix] = route.to_string();
    }
    for (const auto& [prefix, row] : rows) {
      out << "  " << prefix.to_string() << " " << row << "\n";
    }
  }
  for (NeighborId n = 0; n < fabric.neighbor_count(); ++n) {
    out << "neighbor " << n << "\n";
    std::map<Ipv4Prefix, std::string> rows;
    for (const auto& [prefix, route] : fabric.exported_to(n)) {
      rows[prefix] = route.to_string();
    }
    for (const auto& [prefix, row] : rows) {
      out << "  " << prefix.to_string() << " " << row << "\n";
    }
  }
  return out.str();
}

/// Everything one churn replay observes, for digesting.
struct ReplayObservation {
  std::string state;             ///< dump_state at the end of the schedule
  std::string trace_jsonl;       ///< full trace, byte-for-byte
  std::vector<std::uint64_t> delta_heads;  ///< RIB-delta log head after each step
  std::string delta_log;  ///< every (router, prefix) the RIB-delta log appended
  std::size_t delivered = 0;
  std::size_t dropped = 0;
};

/// A tiny deterministic LCG: the schedule generator must not depend on
/// util::Rng internals so the op sequence is stable even if the RNG evolves.
struct ScheduleRng {
  std::uint64_t state;
  std::uint32_t next(std::uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((state >> 33) % bound);
  }
};

/// Replays `steps` pseudo-random churn operations.  Op choices consume RNG
/// draws unconditionally (guards are applied afterwards), so two replicas
/// walk the same op sequence as long as their fabric state is identical.
ReplayObservation replay_schedule(std::uint64_t seed, int steps = 14,
                                  const std::function<void(Fabric&)>& on_converge = {}) {
  ConvergenceFixture fx;
  ScheduleRng rng{seed * 0x9e3779b97f4a7c15ull + 1};
  ReplayObservation obs;

  const auto prefix_at = [](std::uint32_t i) {
    return Ipv4Prefix{net::Ipv4Address{(0xC600u + i * 7u) << 16}, 24};
  };

  // Seed routes so the first fault ops have something to tear down.
  for (std::uint32_t p = 0; p < 6; ++p) {
    const auto n = fx.uplinks[p % fx.uplinks.size()];
    fx.fabric.announce(n, prefix_at(p),
                       attrs_with_path({fx.fabric.neighbor(n).asn,
                                        static_cast<net::Asn>(4000 + p)}));
  }
  fx.fabric.run_to_convergence();
  if (on_converge) on_converge(fx.fabric);
  obs.delta_heads.push_back(fx.fabric.rib_deltas_since(0).next_cursor);

  for (int step = 0; step < steps; ++step) {
    const std::uint32_t op = rng.next(8);
    const std::uint32_t p = rng.next(8);
    const std::uint32_t n = rng.next(static_cast<std::uint32_t>(fx.uplinks.size()));
    const std::uint32_t r = rng.next(static_cast<std::uint32_t>(fx.borders.size()));
    const NeighborId neighbor = fx.uplinks[n];
    const RouterId border = fx.borders[r];
    switch (op) {
      case 0:
      case 1:  // announces are twice as likely as any single fault op
        if (fx.neighbor_session_up(neighbor)) {
          fx.fabric.announce(neighbor, prefix_at(p),
                             attrs_with_path({fx.fabric.neighbor(neighbor).asn,
                                              static_cast<net::Asn>(5000 + p)}));
        }
        break;
      case 2:
        if (fx.neighbor_session_up(neighbor)) fx.fabric.withdraw(neighbor, prefix_at(p));
        break;
      case 3:
        fx.fabric.fail_link(fx.rr, border);
        break;
      case 4:
        fx.fabric.restore_link(fx.rr, border);
        break;
      case 5:
        if (!fx.fabric.router_is_down(border)) {
          if (fx.fabric.router(border).session_is_up(bgp::SessionKind::kIbgp, fx.rr)) {
            fx.fabric.fail_session(border, fx.rr);
          } else {
            fx.fabric.restore_session(border, fx.rr);
          }
        }
        break;
      case 6:
        if (fx.neighbor_session_up(neighbor)) {
          fx.fabric.fail_session(neighbor);
        } else if (!fx.fabric.router_is_down(fx.fabric.neighbor(neighbor).attached_to)) {
          fx.fabric.restore_session(neighbor);
        }
        break;
      default:
        if (fx.fabric.router_is_down(border)) {
          fx.fabric.restore_router(border);
        } else {
          fx.fabric.fail_router(border);
        }
        break;
    }
    // Converge only every other step so some schedules build multi-op storms
    // (deeper batches exercise the shard merge harder).
    if (step % 2 == 1 || step == steps - 1) {
      fx.fabric.run_to_convergence();
      if (on_converge) on_converge(fx.fabric);
    }
    obs.delta_heads.push_back(fx.fabric.rib_deltas_since(0).next_cursor);
  }

  obs.state = dump_state(fx.fabric);
  obs.trace_jsonl = fx.sink.to_jsonl();
  std::ostringstream deltas;
  for (const auto& delta : fx.fabric.rib_deltas_since(0).deltas) {
    deltas << delta.router << ' ' << delta.prefix.to_string() << '\n';
  }
  obs.delta_log = deltas.str();
  obs.delivered = fx.fabric.messages_delivered();
  obs.dropped = fx.fabric.messages_dropped();
  return obs;
}

// ------------------------------------------- trace stamp goldens ------------

TEST(Convergence, AnnounceQueueDepthCountsItsOwnEmissions) {
  // The stamp-point contract: an announce's queue_depth covers the emissions
  // it just enqueued (it used to be stamped before the enqueue and read 0).
  ConvergenceFixture fx;
  fx.fabric.announce(fx.uplinks[0], Ipv4Prefix::parse("203.0.113.0/24").value(),
                     attrs_with_path({174, 400}));
  const auto events = fx.sink.events();
  ASSERT_FALSE(events.empty());
  const auto announce =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::TraceEventKind::kAnnounce;
      });
  ASSERT_NE(announce, events.end());
  // Border 0 advertises to the RR (and best-external handling may add more):
  // at least one emission must be visible in the announce's depth.
  EXPECT_GT(announce->queue_depth, 0u);

  // The depth the announce reported is exactly what convergence then finds.
  fx.fabric.run_to_convergence();
  const auto all = fx.sink.events();
  const auto begin =
      std::find_if(all.begin(), all.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::TraceEventKind::kConvergeBegin;
      });
  ASSERT_NE(begin, all.end());
  EXPECT_EQ(begin->a, announce->queue_depth);
  EXPECT_EQ(begin->queue_depth, announce->queue_depth);
}

TEST(Convergence, FaultEventsStampDepthAfterTheirStorm) {
  ConvergenceFixture fx;
  fx.fabric.announce(fx.uplinks[0], Ipv4Prefix::parse("203.0.113.0/24").value(),
                     attrs_with_path({174, 400}));
  fx.fabric.run_to_convergence();
  fx.sink.clear();

  ASSERT_TRUE(fx.fabric.fail_session(fx.uplinks[0]));
  const auto events = fx.sink.events();
  const auto down =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::TraceEventKind::kEbgpSessionDown;
      });
  ASSERT_NE(down, events.end());
  // The border router flushed the neighbor's route and queued the withdraw
  // storm before the event was cut: the depth covers it.
  EXPECT_GT(down->queue_depth, 0u);
  fx.fabric.run_to_convergence();
}

TEST(Convergence, LastBatchMessageReportsEmptyQueue) {
  ConvergenceFixture fx;
  fx.fabric.announce(fx.uplinks[0], Ipv4Prefix::parse("203.0.113.0/24").value(),
                     attrs_with_path({174, 400}));
  fx.fabric.announce(fx.uplinks[1], Ipv4Prefix::parse("198.51.100.0/24").value(),
                     attrs_with_path({3356, 500}));
  fx.fabric.run_to_convergence();
  const auto events = fx.sink.events();
  const auto end =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::TraceEventKind::kConvergeEnd;
      });
  ASSERT_NE(end, events.end());
  ASSERT_NE(end, events.begin());
  // The event replayed immediately before quiescence saw nothing pending.
  EXPECT_EQ(std::prev(end)->queue_depth, 0u);
}

TEST(Convergence, BatchMessagesShareOneLogicalTick) {
  constexpr auto batches = obs::metric("convergence.batches");
  const std::uint64_t batches_before = obs::MetricsRegistry::global().count(batches);
  ConvergenceFixture fx;
  for (std::uint32_t p = 0; p < 4; ++p) {
    fx.fabric.announce(fx.uplinks[p], Ipv4Prefix{net::Ipv4Address{(0xC000u + p) << 16}, 24},
                       attrs_with_path({fx.fabric.neighbor(fx.uplinks[p]).asn,
                                        static_cast<net::Asn>(900 + p)}));
  }
  fx.fabric.run_to_convergence();
  // Collect the logical times of delivery events: within one batch every
  // message shares a tick, and ticks never decrease in replay order.
  std::uint64_t last = 0;
  std::size_t delivery_ticks = 0;
  for (const auto& event : fx.sink.events()) {
    if (event.kind != obs::TraceEventKind::kUpdateDelivered &&
        event.kind != obs::TraceEventKind::kExportUpdate) {
      continue;
    }
    EXPECT_GE(event.when, last) << "logical clock went backwards";
    if (event.when != last) ++delivery_ticks;
    last = event.when;
  }
  EXPECT_LE(delivery_ticks, obs::MetricsRegistry::global().count(batches) - batches_before)
      << "deliveries used more distinct ticks than batches ran";
}

// ------------------------------------------- budget + stats -----------------

TEST(Convergence, BudgetDiagnosticsSurviveSharding) {
  ConvergenceFixture fx{/*traced=*/false};
  for (int i = 0; i < 8; ++i) {
    const Ipv4Prefix prefix{net::Ipv4Address{static_cast<std::uint32_t>((i + 1) << 16)}, 24};
    fx.fabric.announce(fx.uplinks[0], prefix,
                       attrs_with_path({174, static_cast<net::Asn>(900 + i)}));
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
  // Batch-atomic abort: the frontier survives, so a real budget converges.
  EXPECT_FALSE(fx.fabric.converged());
  EXPECT_GT(fx.fabric.run_to_convergence(), 0u);
  EXPECT_TRUE(fx.fabric.converged());
}

TEST(Convergence, EngineStatsAccountShardsAndMessages) {
  const auto& metrics = obs::MetricsRegistry::global();
  constexpr auto runs = obs::metric("convergence.runs");
  constexpr auto messages = obs::metric("convergence.messages");
  constexpr auto batches = obs::metric("convergence.batches");
  constexpr auto max_batch = obs::metric("convergence.max_batch_messages");
  const std::uint64_t runs_before = metrics.count(runs);
  const std::uint64_t messages_before = metrics.count(messages);
  const std::uint64_t batches_before = metrics.count(batches);
  ConvergenceFixture fx{/*traced=*/false};
  for (std::uint32_t p = 0; p < 12; ++p) {
    fx.fabric.announce(fx.uplinks[p % fx.uplinks.size()],
                       Ipv4Prefix{net::Ipv4Address{(0xC800u + p * 3u) << 16}, 24},
                       attrs_with_path({fx.fabric.neighbor(fx.uplinks[p % 4]).asn,
                                        static_cast<net::Asn>(700 + p)}));
  }
  const std::size_t processed = fx.fabric.run_to_convergence();
  ASSERT_GT(processed, 0u);
  EXPECT_EQ(fx.fabric.messages_delivered() + fx.fabric.messages_dropped(), processed);

  // The process-wide registry absorbed exactly this fabric's run.
  EXPECT_EQ(metrics.count(runs) - runs_before, 1u);
  EXPECT_EQ(metrics.count(messages) - messages_before, processed);
  const std::uint64_t ran = metrics.count(batches) - batches_before;
  EXPECT_GE(ran, 1u);
  EXPECT_LE(ran, processed);  // every batch delivers at least one message
  EXPECT_GE(metrics.count(max_batch), 1u);
  EXPECT_GE(metrics.count(max_batch) * ran, processed);  // the largest batch bounds the mean

  // A run with nothing queued converges at once and counts nothing.
  EXPECT_EQ(fx.fabric.run_to_convergence(), 0u);
  EXPECT_EQ(metrics.count(runs) - runs_before, 1u);
}

// ------------------------------------------- RIB-delta protocol ------------

/// The prefix universe the replay schedules can touch: the seed announces
/// plus every churn op draw (prefix_at(0..7) in replay_schedule).
std::vector<Ipv4Prefix> schedule_universe() {
  std::vector<Ipv4Prefix> universe;
  for (std::uint32_t i = 0; i < 8; ++i) {
    universe.push_back(Ipv4Prefix{net::Ipv4Address{(0xC600u + i * 7u) << 16}, 24});
  }
  return universe;
}

/// One router's data plane maintained the incremental way: a leaf per
/// universe prefix, payload index into `values` ("" = unrouted), refreshed
/// only through the fabric's RIB-delta log — never recompiled.
struct FibMirror {
  net::FlatFib fib;
  std::vector<std::string> values;
};

std::string render_route(const Fabric& fabric, RouterId router, const Ipv4Prefix& prefix) {
  const bgp::Route* route = fabric.router(router).best_route(prefix);
  return route != nullptr ? route->to_string() : std::string{};
}

FibMirror compile_mirror(const Fabric& fabric, RouterId router,
                         std::span<const Ipv4Prefix> universe) {
  FibMirror mirror;
  std::vector<net::FlatFib::Leaf> leaves;
  leaves.reserve(universe.size());
  for (const auto& prefix : universe) {
    leaves.push_back({prefix, static_cast<std::uint32_t>(mirror.values.size())});
    mirror.values.push_back(render_route(fabric, router, prefix));
  }
  mirror.fib = net::FlatFib::compile(std::move(leaves));
  return mirror;
}

void patch_mirror(FibMirror& mirror, const Fabric& fabric, RouterId router,
                  std::span<const bgp::RibDelta> deltas) {
  std::vector<Ipv4Prefix> dirty;
  for (const auto& delta : deltas) {
    if (delta.router == router) dirty.push_back(delta.prefix);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  std::vector<net::FlatFib::Leaf> patches;
  patches.reserve(dirty.size());
  for (const auto& prefix : dirty) {
    const std::string rendered = render_route(fabric, router, prefix);
    if (const net::FlatFib::Leaf* leaf = mirror.fib.lookup_exact(prefix)) {
      mirror.values[leaf->value] = rendered;
      patches.push_back({prefix, leaf->value});
    } else {
      patches.push_back({prefix, static_cast<std::uint32_t>(mirror.values.size())});
      mirror.values.push_back(rendered);
    }
  }
  mirror.fib.patch(patches);
}

TEST(FibPatch, ChurnPatchedFibsMatchScratchCompilesAcrossThreadCounts) {
  // The equivalence fuzz: over the full 52-seed churn corpus, a FIB
  // maintained purely through rib_deltas_since + patch() answers
  // byte-identically to a from-scratch compile after every batch.
  const auto universe = schedule_universe();
  constexpr std::uint64_t kSeeds = 52;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::vector<FibMirror> mirrors;
    std::uint64_t cursor = 0;
    std::size_t batches = 0;
    (void)replay_schedule(seed, 14, [&](Fabric& fabric) {
      const auto log = fabric.rib_deltas_since(cursor);
      ASSERT_TRUE(log.complete) << "schedules never overflow the delta log";
      if (mirrors.empty()) {
        for (RouterId r = 0; r < fabric.router_count(); ++r) {
          mirrors.push_back(compile_mirror(fabric, r, universe));
        }
      } else {
        for (RouterId r = 0; r < fabric.router_count(); ++r) {
          patch_mirror(mirrors[r], fabric, r, log.deltas);
        }
      }
      cursor = log.next_cursor;
      ++batches;
      for (RouterId r = 0; r < fabric.router_count(); ++r) {
        const FibMirror scratch = compile_mirror(fabric, r, universe);
        for (const auto& prefix : universe) {
          const auto* patched = mirrors[r].fib.lookup(prefix.first_host());
          const auto* expected = scratch.fib.lookup(prefix.first_host());
          ASSERT_NE(patched, nullptr);
          ASSERT_NE(expected, nullptr);
          ASSERT_EQ(mirrors[r].values[patched->value], scratch.values[expected->value])
              << "patched FIB diverged from scratch compile: seed " << seed << " router "
              << r << " prefix " << prefix.to_string();
        }
      }
    });
    EXPECT_GT(batches, 1u) << "seed " << seed << " exercised nothing";
  }
}

TEST(FibPatch, DirtySetIsBitIdenticalAcrossThreadCounts) {
  // The dirty-set determinism golden: convergence runs on one lane, but
  // fabrics replayed side by side share the process-wide AttrTable and
  // metrics registry.  Every replica's serialized delta log, replayed on 2,
  // 4 or 8 threads at once, must match the serial replay byte for byte.
  for (const std::uint64_t seed : {0ull, 7ull, 21ull, 43ull}) {
    const std::string baseline = replay_schedule(seed).delta_log;
    EXPECT_FALSE(baseline.empty()) << "seed " << seed << " produced no deltas";
    for (const int threads : {2, 4, 8}) {
      std::vector<std::string> logs(static_cast<std::size_t>(threads));
      util::parallel_for(logs.size(), threads,
                         [&](std::size_t i) { logs[i] = replay_schedule(seed).delta_log; });
      for (std::size_t i = 0; i < logs.size(); ++i) {
        ASSERT_EQ(logs[i], baseline)
            << "delta log diverged at seed " << seed << ", threads " << threads
            << ", replica " << i;
      }
    }
  }
}

TEST(FibPatch, DeltaLogRecordsStructuralChangesExactlyOnce) {
  // Semantic golden for the producer side: only structural Loc-RIB changes
  // (install / replace / erase) emit deltas; idempotent re-announcements are
  // silent, and the cursor contract flags lagging or bogus consumers.
  Fabric fabric{65000};
  const auto router = fabric.add_router("A");
  const auto up = fabric.add_neighbor(router, 174, NeighborKind::kUpstream, "up");
  const auto prefix = Ipv4Prefix::parse("203.0.113.0/24").value();

  const auto empty = fabric.rib_deltas_since(0);
  EXPECT_TRUE(empty.complete);
  EXPECT_EQ(empty.deltas.size(), 0u);
  EXPECT_EQ(empty.next_cursor, 0u);

  fabric.announce(up, prefix, attrs_with_path({174, 400}));
  fabric.run_to_convergence();
  const auto installed = fabric.rib_deltas_since(0);
  ASSERT_EQ(installed.deltas.size(), 1u);
  EXPECT_EQ(installed.deltas[0], (bgp::RibDelta{router, prefix}));

  // Re-announcing the identical route changes nothing: no delta.
  fabric.announce(up, prefix, attrs_with_path({174, 400}));
  fabric.run_to_convergence();
  const auto idempotent = fabric.rib_deltas_since(installed.next_cursor);
  EXPECT_TRUE(idempotent.complete);
  EXPECT_EQ(idempotent.deltas.size(), 0u);

  // A replacement (different path) and a withdrawal are one delta each.
  fabric.announce(up, prefix, attrs_with_path({174, 401}));
  fabric.run_to_convergence();
  const auto replaced = fabric.rib_deltas_since(idempotent.next_cursor);
  ASSERT_EQ(replaced.deltas.size(), 1u);
  EXPECT_EQ(replaced.deltas[0], (bgp::RibDelta{router, prefix}));
  fabric.withdraw(up, prefix);
  fabric.run_to_convergence();
  const auto withdrawn = fabric.rib_deltas_since(replaced.next_cursor);
  ASSERT_EQ(withdrawn.deltas.size(), 1u);
  EXPECT_EQ(withdrawn.deltas[0], (bgp::RibDelta{router, prefix}));

  // A cursor past the end of the log is not a valid consumer position.
  EXPECT_FALSE(fabric.rib_deltas_since(withdrawn.next_cursor + 1).complete);
}

// ------------------------------------------- IGP revisit rule -------------

/// FNV-1a 64, chained through `hash`: a stable digest for pinning outputs.
std::uint64_t fnv1a(std::string_view text, std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// A full route refresh re-imports and re-decides every prefix at every
/// router, so after a convergence it must find nothing left to change.
void expect_refresh_changes_nothing(Fabric& fabric, const std::string& where) {
  const std::size_t delivered = fabric.messages_delivered();
  const std::uint64_t head = fabric.rib_deltas_since(0).next_cursor;
  fabric.refresh_policies();
  EXPECT_EQ(fabric.run_to_convergence(), 0u) << "refresh sent messages " << where;
  EXPECT_EQ(fabric.messages_delivered(), delivered) << where;
  EXPECT_EQ(fabric.rib_deltas_since(0).next_cursor, head)
      << "refresh changed a Loc-RIB " << where;
}

TEST(IgpRevisit, RouteRefreshAfterEveryCorpusConvergenceChangesNothing) {
  // The corpus fails and restores RR-border links and whole border routers
  // (reachability changes) between announces, withdraws and session faults.
  for (std::uint64_t seed = 0; seed < 52; ++seed) {
    int convergence = 0;
    (void)replay_schedule(seed, 14, [&](Fabric& fabric) {
      expect_refresh_changes_nothing(fabric, "at seed " + std::to_string(seed) +
                                                 ", convergence " +
                                                 std::to_string(convergence++));
    });
  }
}

TEST(IgpRevisit, RouteRefreshAfterSmallWorldLinkAndPopFaultsChangesNothing) {
  for (const bool geo : {false, true}) {
    auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
    core::VnsNetwork& vns = world->vns();
    vns.set_geo_routing(geo);
    bgp::Fabric& fabric = vns.fabric();
    const std::string mode = geo ? "geo" : "hot-potato";
    for (const core::VnsLink& link : vns.links()) {
      const std::string where =
          std::to_string(link.a) + "-" + std::to_string(link.b) + " (" + mode + ")";
      ASSERT_TRUE(vns.fail_pop_link(link.a, link.b));
      expect_refresh_changes_nothing(fabric, "after failing link " + where);
      ASSERT_TRUE(vns.restore_pop_link(link.a, link.b));
      expect_refresh_changes_nothing(fabric, "after restoring link " + where);
    }
    const core::PopId pop = vns.find_pop("SIN").value();
    vns.fail_pop(pop);
    expect_refresh_changes_nothing(fabric, "after failing SIN (" + mode + ")");
    vns.restore_pop(pop);
    expect_refresh_changes_nothing(fabric, "after restoring SIN (" + mode + ")");
  }
}

// Digests of the outputs below as produced when every IGP change re-decides
// every IGP-dependent prefix; the revisit rule must reproduce them byte for
// byte.  State digests pin what the network converges to and must survive
// any change to how the control plane schedules its work; schedule digests
// pin the trace events, message counts and RIB-delta log that lead there,
// which a change to the message schedule may deliberately re-pin.
constexpr std::uint64_t kCorpusStateDigest = 0xc8c51317673f01e9ull;
constexpr std::uint64_t kCorpusTraceDigest = 0x17c3303413e34f1aull;
constexpr std::uint64_t kCorpusDeltaHeadDigest = 0x614eda1951d9db3dull;
constexpr std::uint64_t kCorpusDeltaLogDigest = 0x8a11e5d68c347534ull;
constexpr std::uint64_t kSmallWorldStateDigest = 0x47dc62b1a40525f4ull;
constexpr std::uint64_t kSmallWorldDeltaLogDigest = 0x290b9d3586394552ull;

TEST(IgpRevisit, CorpusOutputsMatchPinnedDigests) {
  std::uint64_t state = fnv1a("");
  std::uint64_t trace = fnv1a("");
  std::uint64_t heads = fnv1a("");
  std::uint64_t delta_log = fnv1a("");
  for (std::uint64_t seed = 0; seed < 52; ++seed) {
    const ReplayObservation replay = replay_schedule(seed);
    state = fnv1a(replay.state, state);
    trace = fnv1a(replay.trace_jsonl, trace);
    trace = fnv1a(std::to_string(replay.delivered) + " " + std::to_string(replay.dropped) + "\n",
                  trace);
    for (const std::uint64_t head : replay.delta_heads) {
      heads = fnv1a(std::to_string(head) + "\n", heads);
    }
    delta_log = fnv1a(replay.delta_log, delta_log);
  }
  EXPECT_EQ(state, kCorpusStateDigest);
  EXPECT_EQ(trace, kCorpusTraceDigest);
  EXPECT_EQ(heads, kCorpusDeltaHeadDigest);
  EXPECT_EQ(delta_log, kCorpusDeltaLogDigest);
}

TEST(IgpRevisit, SmallWorldFaultScheduleMatchesPinnedDigests) {
  // Every link down and up, every upstream session down and up, then one
  // PoP down and up, geo routing on; the state is digested after each event.
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  core::VnsNetwork& vns = world->vns();
  vns.set_geo_routing(true);
  const bgp::Fabric& fabric = vns.fabric();
  const std::uint64_t start = fabric.rib_deltas_since(0).next_cursor;
  std::uint64_t state = fnv1a("");
  const auto digest_state = [&] { state = fnv1a(serve::dump_fabric_state(fabric), state); };
  for (const core::VnsLink& link : vns.links()) {
    ASSERT_TRUE(vns.fail_pop_link(link.a, link.b));
    digest_state();
    ASSERT_TRUE(vns.restore_pop_link(link.a, link.b));
    digest_state();
  }
  for (const core::VnsPop& pop : vns.pops()) {
    for (std::size_t which = 0; which < pop.upstream_sessions.size(); ++which) {
      ASSERT_TRUE(vns.fail_upstream(pop.id, static_cast<int>(which)));
      digest_state();
      ASSERT_TRUE(vns.restore_upstream(pop.id, static_cast<int>(which)));
      digest_state();
    }
  }
  const core::PopId pop = vns.find_pop("SIN").value();
  vns.fail_pop(pop);
  digest_state();
  vns.restore_pop(pop);
  digest_state();

  const auto log = fabric.rib_deltas_since(start);
  ASSERT_TRUE(log.complete);
  std::ostringstream deltas;
  for (const auto& delta : log.deltas) {
    deltas << delta.router << ' ' << delta.prefix.to_string() << '\n';
  }
  EXPECT_EQ(state, kSmallWorldStateDigest);
  EXPECT_EQ(fnv1a(deltas.str()), kSmallWorldDeltaLogDigest);
}

}  // namespace
}  // namespace vns
