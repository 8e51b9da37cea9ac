// Workload inputs, generated from `--seed` by the benchmark's own code.
//
// Nothing here calls a library generator (not the serving loop's churn-trace
// generator, not Workbench host selection, not util::Rng): the schedules,
// destination and caller sets and campaign task lists depend only on the
// seed and on the public shape of the built world, so no change to the
// program can alter what a workload asks of it.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/vns_network.hpp"
#include "topo/internet.hpp"

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }
  /// Independent child stream for one input family.
  [[nodiscard]] SeedRng fork(std::uint64_t tag) const noexcept {
    return SeedRng{state_ ^ (tag * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL)};
  }

 private:
  std::uint64_t state_;
};

/// Stream tags, so adding an input family never shifts another's draws.
enum class Family : std::uint64_t {
  kFlaps = 1,
  kFaults,
  kDestinations,
  kCallers,
  kStreams,
  kTrains,
  kTraffic,
  kChecks,
  kServeFlaps,
};
[[nodiscard]] inline SeedRng family_rng(std::uint64_t seed, Family family) noexcept {
  return SeedRng{seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL}.fork(
      static_cast<std::uint64_t>(family));
}

/// One route flap on an upstream transit session.
struct Flap {
  bool withdraw = false;
  vns::bgp::NeighborId session = vns::bgp::kNoNeighbor;
  vns::net::Ipv4Prefix prefix;
  /// Announce only: two-hop path through the session's AS to a synthetic
  /// origin, so a re-announce replaces the route rather than refreshing it.
  std::vector<vns::net::Asn> as_path;
  std::uint32_t med = 0;
};

/// Endless flap schedule over the prefixes the overlay knows, on upstream
/// sessions only (a peer announcing an arbitrary prefix would be a policy
/// violation the real feed never produces).  It tracks which (session,
/// prefix) routes it has withdrawn and re-announces those instead of
/// withdrawing again, so the table stays close to its fed size.  Each
/// schedule draws from its own input family, so two schedules flapping the
/// same world (the serve rounds' and the flap blocks') keep their own
/// sequences however a run interleaves them.
class FlapSchedule {
 public:
  FlapSchedule(const vns::core::VnsNetwork& vns, std::uint64_t seed,
               Family family = Family::kFlaps);
  [[nodiscard]] std::vector<Flap> next_batch(std::size_t events);

 private:
  struct Upstream {
    vns::bgp::NeighborId session;
    vns::net::Asn asn;
  };
  std::vector<Upstream> upstreams_;
  std::vector<vns::net::Ipv4Prefix> prefixes_;
  std::unordered_set<std::uint64_t> withdrawn_;  ///< upstream << 32 | prefix index
  SeedRng rng_;
};

/// Applies a flap batch through Fabric::announce / Fabric::withdraw.
void apply_flaps(vns::core::VnsNetwork& vns, const std::vector<Flap>& batch);

/// One PoP-link or upstream-session failure or repair.
struct Fault {
  enum class Kind : std::uint8_t { kLinkDown, kLinkUp, kUpstreamDown, kUpstreamUp };
  Kind kind = Kind::kLinkDown;
  vns::core::PopId a = vns::core::kNoPop;  ///< link end, or the upstream's PoP
  vns::core::PopId b = vns::core::kNoPop;  ///< other link end
  int which = 0;                           ///< upstream index at PoP `a`
  [[nodiscard]] bool upstream() const noexcept {
    return kind == Kind::kUpstreamDown || kind == Kind::kUpstreamUp;
  }
};

/// The run's failover pass: every PoP link failed and then repaired, and
/// kUpstreamTargets upstream sessions failed and then repaired, one target
/// after another in a seeded order.  A target's two events are adjacent, so
/// at most one link or session is down at a time and the feed is never
/// isolated.  Every run fails every link: the population of link events,
/// and with it where the failover median falls, is the same for every
/// seed (link events cost 160-220 ms and make up 40 of the 44 events, so
/// p50 sits inside the link class); the seed picks the order and the
/// two upstream sessions, whose repairs cost about 1 s and make the tail.
inline constexpr std::size_t kUpstreamTargets = 2;
struct FaultTarget {
  Fault down;
  Fault up;
};
[[nodiscard]] std::vector<FaultTarget> fault_pass(const vns::core::VnsNetwork& vns,
                                                  std::uint64_t seed);

/// Applies one fault event; returns false when the library refused it.
bool apply_fault(vns::core::VnsNetwork& vns, const Fault& fault);

/// Per-PoP sets of active-call destinations: random hosts inside random
/// known prefixes.  Small enough per PoP to stay cache-resident, so the
/// lookup rate measures resolution, not host memory latency.
[[nodiscard]] std::vector<std::vector<vns::net::Ipv4Address>> destination_sets(
    const vns::core::VnsNetwork& vns, std::uint64_t seed, std::size_t per_pop);

/// A conference participant placing calls: its access AS and location, and
/// the host it calls.
struct Caller {
  vns::topo::AsIndex as = vns::topo::kNoAs;
  vns::geo::GeoPoint location;
  vns::net::Ipv4Address callee;
};
/// Callers drawn from the world's originated prefixes: the caller sits at a
/// prefix's true host location inside its origin AS; the callee is a host
/// in another random prefix.
[[nodiscard]] std::vector<Caller> caller_set(const vns::topo::Internet& internet,
                                             std::uint64_t seed, std::size_t count);

/// A Fig-9-style streaming shard: a client PoP streams to a server PoP
/// either over the overlay's circuits or over the client's primary upstream.
struct StreamSpec {
  vns::core::PopId client = 0;
  vns::core::PopId server = 0;
  bool via_vns = true;
  bool hd720 = false;
  double start_s = 0.0;
};
/// `count` specs over distinct (client, server) PoP pairs, alternating the
/// route and the definition so every round has the same VNS/transit and
/// 720p/1080p mix.
[[nodiscard]] std::vector<StreamSpec> stream_specs(const vns::core::VnsNetwork& vns,
                                                   std::uint64_t seed, std::size_t count);

/// A Fig-12-style probing shard: last-mile trains from one PoP's local exit
/// to a host prefix.
struct TrainSpec {
  vns::core::PopId pop = 0;
  std::size_t prefix_id = 0;
  double start_s = 0.0;
};
/// `count` specs: prefixes drawn uniformly (geo-spread and stale-GeoIP
/// blocks excluded, as in the paper's host selection), PoPs round-robin.
[[nodiscard]] std::vector<TrainSpec> train_specs(const vns::core::VnsNetwork& vns,
                                                 const vns::topo::Internet& internet,
                                                 std::uint64_t seed, std::size_t count);

}  // namespace perfbench
