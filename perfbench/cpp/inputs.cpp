#include "inputs.hpp"

#include <stdexcept>
#include <utility>

#include "bgp/attr_table.hpp"

namespace perfbench {

namespace {

/// Synthetic flap origins sit in the 32-bit private-use range, clear of the
/// overlay's own ASN and every generated one.
constexpr vns::net::Asn kFlapOriginBase = 4'200'000'000u;

/// Fisher-Yates shuffle driven by the benchmark's own generator.
template <typename T>
void shuffle(std::vector<T>& items, SeedRng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// A random host inside `prefix` (never the network address itself).
vns::net::Ipv4Address host_in(const vns::net::Ipv4Prefix& prefix, SeedRng& rng) {
  const std::uint64_t size = prefix.size();
  const std::uint64_t offset = size > 2 ? 1 + rng.below(size - 2) : 0;
  return vns::net::Ipv4Address{prefix.address().value() + static_cast<std::uint32_t>(offset)};
}

}  // namespace

FlapSchedule::FlapSchedule(const vns::core::VnsNetwork& vns, std::uint64_t seed,
                           Family family)
    : rng_(family_rng(seed, family)) {
  for (const auto& pop : vns.pops()) {
    for (const auto session : pop.upstream_sessions) {
      upstreams_.push_back({session, vns.fabric().neighbor(session).asn});
    }
  }
  const auto known = vns.known_prefix_log();
  // The anycast service prefix is the overlay's own; flapping it on an
  // upstream would be a hijack, not churn.
  for (const auto& prefix : known) {
    if (prefix != vns.config().anycast_prefix) prefixes_.push_back(prefix);
  }
  if (upstreams_.empty() || prefixes_.empty()) {
    throw std::runtime_error("flap schedule: world has no upstream sessions or prefixes");
  }
}

std::vector<Flap> FlapSchedule::next_batch(std::size_t events) {
  std::vector<Flap> batch;
  batch.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    const std::uint64_t u = rng_.below(upstreams_.size());
    const std::uint64_t p = rng_.below(prefixes_.size());
    const std::uint64_t dice = rng_.below(10);
    const auto hop = static_cast<vns::net::Asn>(rng_.below(1024));
    const auto med = static_cast<std::uint32_t>(rng_.below(16));
    const std::uint64_t key = (u << 32) | p;
    Flap flap;
    flap.session = upstreams_[u].session;
    flap.prefix = prefixes_[p];
    // Route replacement dominates real feeds: 7 in 10 events re-announce.
    // A route this schedule withdrew is always re-announced next time.
    flap.withdraw = dice >= 7 && !withdrawn_.contains(key);
    if (flap.withdraw) {
      withdrawn_.insert(key);
    } else {
      withdrawn_.erase(key);
      flap.as_path = {upstreams_[u].asn, kFlapOriginBase + hop};
      flap.med = med;
    }
    batch.push_back(std::move(flap));
  }
  return batch;
}

void apply_flaps(vns::core::VnsNetwork& vns, const std::vector<Flap>& batch) {
  auto& fabric = vns.fabric();
  for (const Flap& flap : batch) {
    if (flap.withdraw) {
      fabric.withdraw(flap.session, flap.prefix);
    } else {
      vns::bgp::Attributes attrs;
      attrs.as_path = vns::bgp::AsPath{flap.as_path};
      attrs.med = flap.med;
      fabric.announce(flap.session, flap.prefix, std::move(attrs));
    }
  }
}

std::vector<FaultTarget> fault_pass(const vns::core::VnsNetwork& vns, std::uint64_t seed) {
  using Kind = Fault::Kind;
  std::vector<std::pair<vns::core::PopId, int>> upstreams;
  for (const auto& pop : vns.pops()) {
    for (std::size_t i = 0; i < pop.upstream_sessions.size(); ++i) {
      upstreams.emplace_back(pop.id, static_cast<int>(i));
    }
  }
  if (vns.links().empty() || upstreams.size() < kUpstreamTargets + 1) {
    throw std::runtime_error("fault pass: world has too few links or upstream sessions");
  }
  SeedRng rng = family_rng(seed, Family::kFaults);
  shuffle(upstreams, rng);
  std::vector<FaultTarget> pass;
  for (const auto& link : vns.links()) {
    pass.push_back({{Kind::kLinkDown, link.a, link.b, 0}, {Kind::kLinkUp, link.a, link.b, 0}});
  }
  for (std::size_t i = 0; i < kUpstreamTargets; ++i) {
    const auto [pop, which] = upstreams[i];
    pass.push_back({{Kind::kUpstreamDown, pop, vns::core::kNoPop, which},
                    {Kind::kUpstreamUp, pop, vns::core::kNoPop, which}});
  }
  shuffle(pass, rng);
  return pass;
}

bool apply_fault(vns::core::VnsNetwork& vns, const Fault& fault) {
  switch (fault.kind) {
    case Fault::Kind::kLinkDown: return vns.fail_pop_link(fault.a, fault.b);
    case Fault::Kind::kLinkUp: return vns.restore_pop_link(fault.a, fault.b);
    case Fault::Kind::kUpstreamDown: return vns.fail_upstream(fault.a, fault.which);
    case Fault::Kind::kUpstreamUp: return vns.restore_upstream(fault.a, fault.which);
  }
  return false;
}

std::vector<std::vector<vns::net::Ipv4Address>> destination_sets(
    const vns::core::VnsNetwork& vns, std::uint64_t seed, std::size_t per_pop) {
  SeedRng rng = family_rng(seed, Family::kDestinations);
  const auto known = vns.known_prefix_log();
  std::vector<std::vector<vns::net::Ipv4Address>> sets(vns.pops().size());
  for (auto& set : sets) {
    set.reserve(per_pop);
    for (std::size_t i = 0; i < per_pop; ++i) {
      set.push_back(host_in(known[rng.below(known.size())], rng));
    }
  }
  return sets;
}

std::vector<Caller> caller_set(const vns::topo::Internet& internet, std::uint64_t seed,
                               std::size_t count) {
  SeedRng rng = family_rng(seed, Family::kCallers);
  const auto prefixes = internet.prefixes();
  std::vector<Caller> callers;
  callers.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& home = prefixes[rng.below(prefixes.size())];
    const auto& callee = prefixes[rng.below(prefixes.size())];
    callers.push_back({home.origin, home.location, host_in(callee.prefix, rng)});
  }
  return callers;
}

std::vector<StreamSpec> stream_specs(const vns::core::VnsNetwork& vns, std::uint64_t seed,
                                     std::size_t count) {
  SeedRng rng = family_rng(seed, Family::kStreams);
  const auto pops = static_cast<std::uint64_t>(vns.pops().size());
  std::vector<StreamSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    StreamSpec spec;
    spec.client = static_cast<vns::core::PopId>(rng.below(pops));
    spec.server = static_cast<vns::core::PopId>(
        (spec.client + 1 + rng.below(pops - 1)) % pops);  // never the client itself
    spec.via_vns = i % 2 == 0;
    spec.hd720 = (i / 2) % 2 == 1;
    // Staggered within the half-hour cadence, like the paper's schedule.
    spec.start_s = static_cast<double>(rng.below(1800));
    specs.push_back(spec);
  }
  return specs;
}

std::vector<TrainSpec> train_specs(const vns::core::VnsNetwork& vns,
                                   const vns::topo::Internet& internet, std::uint64_t seed,
                                   std::size_t count) {
  SeedRng rng = family_rng(seed, Family::kTrains);
  const auto prefixes = internet.prefixes();
  std::vector<TrainSpec> specs;
  specs.reserve(count);
  while (specs.size() < count) {
    const std::size_t id = rng.below(prefixes.size());
    if (prefixes[id].geo_spread || prefixes[id].stale_geoip) continue;
    TrainSpec spec;
    spec.pop = static_cast<vns::core::PopId>(specs.size() % vns.pops().size());
    spec.prefix_id = id;
    spec.start_s = static_cast<double>(rng.below(600));
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace perfbench
