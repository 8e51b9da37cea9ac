#include "serve/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace vns::serve {

namespace {

/// Self-contained LCG for the resolvers' target/viewpoint pick stream; probe
/// choices never influence fabric state, so this stream is free to differ
/// across thread counts without breaking replay determinism.
struct PickRng {
  std::uint64_t state;
  std::uint32_t next(std::uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((state >> 33) % bound);
  }
};

/// One resolver's quiescent counter, alone on its cache line so the churn
/// thread's polling never shares a line with another resolver's writes.
/// Odd while a probe is in flight, even between probes.  Every update, on
/// either side, is a read-modify-write, so each one continues the release
/// sequence of the one before it.
struct alignas(64) QuiescentCounter {
  std::atomic<std::uint64_t> value{0};
};

/// Returns once every resolver has finished the probe it was in when the
/// caller's last publish landed, so no reader still holds a retired FIB
/// copy.  The poll is an RMW rather than a load: the resolver's next
/// probe-start RMW comes after it in the counter's modification order and
/// so synchronizes with it, which makes that probe's FIB load see this
/// publish.  An odd count is a probe that may predate the publish; it is
/// waited out.
void wait_for_resolvers(std::vector<QuiescentCounter>& counters) {
  for (auto& counter : counters) {
    const std::uint64_t seen = counter.value.fetch_add(0, std::memory_order_acq_rel);
    if (seen % 2 == 0) continue;
    while (counter.value.load(std::memory_order_acquire) == seen) std::this_thread::yield();
  }
}

bool is_fault(const UpdateEvent& event) {
  return event.op != UpdateOp::kAnnounce && event.op != UpdateOp::kWithdraw;
}

}  // namespace

bool Engine::apply(const UpdateEvent& event) {
  bgp::Fabric& fabric = vns_.fabric();
  switch (event.op) {
    case UpdateOp::kAnnounce:
    case UpdateOp::kWithdraw: {
      // Generated traces only schedule flaps on live sessions, but a replay
      // of a hand-edited trace must degrade to a no-op, not corrupt a downed
      // session's Adj-RIB-In.
      const auto& neighbor = fabric.neighbor(event.session);
      if (!fabric.router(neighbor.attached_to)
               .session_is_up(bgp::SessionKind::kEbgp, event.session)) {
        return false;
      }
      if (event.op == UpdateOp::kAnnounce) {
        bgp::Attributes attrs;
        attrs.as_path = bgp::AsPath{std::vector<net::Asn>(event.as_path)};
        attrs.med = event.med;
        fabric.announce(event.session, event.prefix, std::move(attrs));
      } else {
        fabric.withdraw(event.session, event.prefix);
      }
      return true;
    }
    case UpdateOp::kLinkDown:
      return vns_.fail_pop_link(event.a, event.b);
    case UpdateOp::kLinkUp:
      return vns_.restore_pop_link(event.a, event.b);
    case UpdateOp::kUpstreamDown:
      return vns_.fail_upstream(event.a, event.which);
    case UpdateOp::kUpstreamUp:
      return vns_.restore_upstream(event.a, event.which);
  }
  return false;
}

SloReport Engine::run(const UpdateTrace& trace) {
  using Clock = std::chrono::steady_clock;
  SloReport report;
  report.batches = trace.batches;

  const auto pops = vns_.pops();
  const auto prefixes = vns_.known_prefix_log();
  if (pops.empty() || prefixes.empty()) return report;

  // Probe pool: the first host of every known prefix (bounded; probes are
  // reads, so sampling the universe loses nothing but variety).
  constexpr std::size_t kMaxTargets = 4096;
  const std::size_t stride = std::max<std::size_t>(1, prefixes.size() / kMaxTargets);
  std::vector<net::Ipv4Address> targets;
  targets.reserve(std::min(prefixes.size(), kMaxTargets));
  for (std::size_t i = 0; i < prefixes.size(); i += stride) {
    targets.push_back(prefixes[i].first_host());
  }

  const int threads = std::max(1, config_.resolver_threads);
  obs::LatencyRecorder resolve(static_cast<std::size_t>(threads));
  obs::LatencyRecorder publish(1);  // churn thread is the only recorder
  std::vector<QuiescentCounter> quiescent(static_cast<std::size_t>(threads));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> probes{0};

  // FIB refreshes this run caused, read from the registry's cumulative cells.
  const auto& metrics = obs::MetricsRegistry::global();
  constexpr obs::Metric kPatches = obs::metric("memory.fib.patches");
  constexpr obs::Metric kFullRebuilds = obs::metric("memory.fib.full_rebuilds");
  const std::uint64_t patches0 = metrics.count(kPatches);
  const std::uint64_t full_rebuilds0 = metrics.count(kFullRebuilds);
  const auto wall0 = Clock::now();

  std::vector<std::thread> resolvers;
  resolvers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    resolvers.emplace_back([&, t] {
      auto& shard = resolve.shard(static_cast<std::size_t>(t));
      auto& counter = quiescent[static_cast<std::size_t>(t)].value;
      std::uint64_t probed = 0;
      PickRng rng{(config_.seed + 0x7ea7ull * static_cast<std::uint64_t>(t + 1)) *
                      0x9e3779b97f4a7c15ull +
                  1};
      const bool paced = config_.qps > 0.0;
      const auto interval =
          paced ? std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(1.0 / config_.qps))
                : Clock::duration::zero();
      auto next_slot = Clock::now();
      while (!stop.load(std::memory_order_acquire)) {
        if (paced) {
          std::this_thread::sleep_until(next_slot);
          next_slot += interval;
        }
        const core::PopId viewpoint =
            pops[rng.next(static_cast<std::uint32_t>(pops.size()))].id;
        const net::Ipv4Address target =
            targets[rng.next(static_cast<std::uint32_t>(targets.size()))];
        counter.fetch_add(1, std::memory_order_acquire);  // odd: probe in flight
        const auto t0 = Clock::now();
        (void)vns_.egress_pop(viewpoint, target);
        const auto elapsed = Clock::now() - t0;
        counter.fetch_add(1, std::memory_order_release);  // even: done with the FIB
        shard.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
        ++probed;
      }
      probes.fetch_add(probed, std::memory_order_relaxed);
    });
  }

  // Group the trace into batch ticks (events arrive batch-sorted from the
  // generator, but a loaded trace only promises the `batch` field).
  std::vector<std::vector<const UpdateEvent*>> by_batch(trace.batches);
  for (const UpdateEvent& event : trace.events) {
    if (event.batch < trace.batches) by_batch[event.batch].push_back(&event);
  }

  const double dwell_s =
      trace.batches > 0 ? std::max(config_.duration_s / static_cast<double>(trace.batches),
                                   0.0005)
                        : 0.0;
  const auto dwell = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(dwell_s));

  for (std::uint64_t tick = 0; tick < trace.batches; ++tick) {
    // A batch is live once the first convergence after its first applied
    // event has published: a fault's own, or the batch's closing one.
    std::optional<Clock::time_point> first_applied;
    bool published = false;
    const auto converged = [&] {
      if (first_applied && !published) {
        publish.shard(0).record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                  *first_applied)
                .count()));
        published = true;
      }
      wait_for_resolvers(quiescent);
    };
    for (const UpdateEvent* event : by_batch[tick]) {
      const auto t0 = Clock::now();
      if (!apply(*event)) continue;
      ++report.events_applied;
      if (!first_applied) first_applied = t0;
      if (is_fault(*event)) converged();
    }
    vns_.fabric().run_to_convergence();
    converged();
    if (config_.heartbeat_out != nullptr && config_.heartbeat_every != 0 &&
        (tick + 1) % config_.heartbeat_every == 0) {
      const auto resolved = resolve.snapshot();
      *config_.heartbeat_out
          << "{\"type\":\"slo_heartbeat\",\"batch\":" << obs::json_number(tick)
          << ",\"resolve\":" << resolved.to_json("ns")
          << ",\"publish\":" << publish.snapshot().to_json("us")
          << ",\"probes\":" << obs::json_number(resolved.total())
          << ",\"fib_patches\":" << obs::json_number(metrics.count(kPatches) - patches0)
          << ",\"fib_full_rebuilds\":"
          << obs::json_number(metrics.count(kFullRebuilds) - full_rebuilds0) << "}\n";
    }
    std::this_thread::sleep_for(dwell);
  }

  stop.store(true, std::memory_order_release);
  for (auto& worker : resolvers) worker.join();

  report.resolve_ns = resolve.snapshot();
  report.publish_us = publish.snapshot();
  report.probes = probes.load(std::memory_order_relaxed);
  report.fib_patches = metrics.count(kPatches) - patches0;
  report.fib_full_rebuilds = metrics.count(kFullRebuilds) - full_rebuilds0;
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  return report;
}

std::string SloReport::to_json() const {
  std::ostringstream out;
  out << "{\"resolve\": " << resolve_ns.to_json("ns")
      << ", \"publish\": " << publish_us.to_json("us")
      << ", \"probes\": " << obs::json_number(probes)
      << ", \"batches\": " << obs::json_number(batches)
      << ", \"events_applied\": " << obs::json_number(events_applied)
      << ", \"fib_patches\": " << obs::json_number(fib_patches)
      << ", \"fib_full_rebuilds\": " << obs::json_number(fib_full_rebuilds)
      << ", \"wall_seconds\": " << obs::json_number(wall_seconds) << "}";
  return out.str();
}

std::string dump_fabric_state(const bgp::Fabric& fabric) {
  std::ostringstream out;
  for (bgp::RouterId r = 0; r < fabric.router_count(); ++r) {
    out << "router " << r << "\n";
    std::map<net::Ipv4Prefix, std::string> rows;
    for (const auto& [prefix, route] : fabric.router(r).loc_rib()) {
      rows[prefix] = route.to_string();
    }
    for (const auto& [prefix, row] : rows) {
      out << "  " << prefix.to_string() << " " << row << "\n";
    }
  }
  for (bgp::NeighborId n = 0; n < fabric.neighbor_count(); ++n) {
    out << "neighbor " << n << "\n";
    std::map<net::Ipv4Prefix, std::string> rows;
    for (const auto& [prefix, route] : fabric.exported_to(n)) {
      rows[prefix] = route.to_string();
    }
    for (const auto& [prefix, row] : rows) {
      out << "  " << prefix.to_string() << " " << row << "\n";
    }
  }
  return out.str();
}

}  // namespace vns::serve
