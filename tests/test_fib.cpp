// Tests for the compiled data plane (net::FlatFib): unit-level DIR-16-8-8
// behaviour, FIB/trie longest-prefix-match equivalence, viewpoint FIBs
// published by every convergence (and never refreshed by a read), concurrent
// reads of the published copies (the TSan target), and the GeoIP fast path.
// The FIB is a pure cache — every test here asserts it never answers
// differently from the trie + RIB state it was compiled from.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "bgp/fabric.hpp"
#include "bgp/router.hpp"
#include "core/vns_network.hpp"
#include "geo/geoip.hpp"
#include "measure/workbench.hpp"
#include "net/flat_fib.hpp"
#include "net/prefix_trie.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace vns {
namespace {

using core::PopId;
using net::FlatFib;
using net::Ipv4Address;
using net::Ipv4Prefix;

/// The registry's memory.fib cells, read together so tests can compare
/// before/after deltas.
struct FibCells {
  std::uint64_t full_rebuilds = 0;
  std::uint64_t patches = 0;
  std::uint64_t entries = 0;
  std::uint64_t spill_tables = 0;
  std::uint64_t bytes = 0;
  double full_build_seconds = 0.0;
};

FibCells fib_cells() {
  const auto& metrics = obs::MetricsRegistry::global();
  return {metrics.count(obs::metric("memory.fib.full_rebuilds")),
          metrics.count(obs::metric("memory.fib.patches")),
          metrics.count(obs::metric("memory.fib.entries")),
          metrics.count(obs::metric("memory.fib.spill_tables")),
          metrics.count(obs::metric("memory.fib.bytes")),
          metrics.value(obs::metric("memory.fib.full_build_seconds"))};
}

// ------------------------------------------------ FlatFib unit level --------

TEST(Fib, EmptyAndUncompiledLookupsReturnNull) {
  const FlatFib uncompiled;
  EXPECT_FALSE(uncompiled.compiled());
  EXPECT_EQ(uncompiled.lookup(Ipv4Address{192, 0, 2, 1}), nullptr);

  const FlatFib empty = FlatFib::compile({});
  EXPECT_TRUE(empty.compiled());
  EXPECT_EQ(empty.entry_count(), 0u);
  EXPECT_EQ(empty.lookup(Ipv4Address{192, 0, 2, 1}), nullptr);
  EXPECT_EQ(empty.lookup(Ipv4Address{0}), nullptr);
  EXPECT_EQ(empty.lookup(Ipv4Address{~0u}), nullptr);
}

TEST(Fib, NestedPrefixesResolveToLongestMatchAcrossStrides) {
  // One prefix per stride level, all nested: /8 (root), /16 (root), /24
  // (level-2 spill), /32 (level-3 spill).
  std::vector<FlatFib::Leaf> leaves = {
      {Ipv4Prefix::parse("10.0.0.0/8").value(), 8},
      {Ipv4Prefix::parse("10.1.0.0/16").value(), 16},
      {Ipv4Prefix::parse("10.1.2.0/24").value(), 24},
      {Ipv4Prefix::parse("10.1.2.3/32").value(), 32},
  };
  const FlatFib fib = FlatFib::compile(std::move(leaves));
  ASSERT_TRUE(fib.compiled());
  EXPECT_EQ(fib.entry_count(), 4u);
  // The /24 and /32 force spill tables under 10.1.0.0/16.
  EXPECT_GE(fib.stats().spill_tables, 2u);
  EXPECT_GE(fib.stats().bytes, std::size_t{1} << 18);  // 2^16 root slots

  const auto value_at = [&](const char* addr) -> std::uint32_t {
    const auto* leaf = fib.lookup(Ipv4Address::parse(addr).value());
    return leaf == nullptr ? 0u : leaf->value;
  };
  EXPECT_EQ(value_at("10.200.0.1"), 8u);   // only the /8 covers
  EXPECT_EQ(value_at("10.1.99.1"), 16u);   // /16 beats /8
  EXPECT_EQ(value_at("10.1.2.200"), 24u);  // /24 beats /16
  EXPECT_EQ(value_at("10.1.2.3"), 32u);    // exact host route wins
  EXPECT_EQ(fib.lookup(Ipv4Address{11, 0, 0, 1}), nullptr);
  // Backfill check: addresses in the /16 but outside the /24 still resolve
  // through the spill tables to the /16 leaf.
  EXPECT_EQ(value_at("10.1.2.2"), 24u);
  EXPECT_EQ(value_at("10.1.3.1"), 16u);
}

TEST(Fib, LookupMatchesTrieLongestMatchOnRandomTable) {
  util::Rng rng{0xF1BF1BULL};
  net::PrefixTrie<std::uint32_t> trie;
  std::uint32_t next_value = 0;
  while (trie.size() < 4000) {
    const auto length = static_cast<std::uint8_t>(rng.uniform_int(4, 32));
    const auto bits = static_cast<std::uint32_t>(rng());
    trie.insert(Ipv4Prefix{Ipv4Address{bits}, length}, next_value++);
  }
  const FlatFib fib = FlatFib::compile_from(
      trie, [](const Ipv4Prefix&, const std::uint32_t& value) { return value; });
  ASSERT_EQ(fib.entry_count(), trie.size());

  for (int i = 0; i < 200'000; ++i) {
    // Half purely random, half biased near stored prefixes via short flips.
    std::uint32_t probe = static_cast<std::uint32_t>(rng());
    if (i % 2 == 1) probe ^= (1u << (i % 32));
    const Ipv4Address address{probe};
    const auto* leaf = fib.lookup(address);
    const auto match = trie.longest_match(address);
    if (!match.has_value()) {
      ASSERT_EQ(leaf, nullptr) << address.to_string();
      continue;
    }
    ASSERT_NE(leaf, nullptr) << address.to_string();
    EXPECT_EQ(leaf->prefix, match->first) << address.to_string();
    EXPECT_EQ(leaf->value, *match->second) << address.to_string();
  }
}

TEST(Fib, MixedLengthTableMatchesTrie) {
  // 20k mixed-length leaves: root-wide leaves (len <= 16) under deep spills,
  // swept against the trie's longest match.
  util::Rng rng{0x9A11E7ULL};
  net::PrefixTrie<std::uint32_t> trie;
  std::uint32_t next_value = 0;
  while (trie.size() < 20'000) {
    const auto length = static_cast<std::uint8_t>(rng.uniform_int(4, 32));
    const auto bits = static_cast<std::uint32_t>(rng());
    trie.insert(Ipv4Prefix{Ipv4Address{bits}, length}, next_value++);
  }
  const FlatFib fib = FlatFib::compile_from(
      trie, [](const Ipv4Prefix&, const std::uint32_t& value) { return value; });
  ASSERT_EQ(fib.entry_count(), trie.size());

  for (int i = 0; i < 50'000; ++i) {
    std::uint32_t probe = static_cast<std::uint32_t>(rng());
    if (i % 2 == 1) probe ^= (1u << (i % 32));
    const Ipv4Address address{probe};
    const auto* leaf = fib.lookup(address);
    const auto match = trie.longest_match(address);
    if (!match.has_value()) {
      ASSERT_EQ(leaf, nullptr) << address.to_string();
      continue;
    }
    ASSERT_NE(leaf, nullptr) << address.to_string();
    EXPECT_EQ(leaf->prefix, match->first) << address.to_string();
    EXPECT_EQ(leaf->value, *match->second) << address.to_string();
  }
}

TEST(Fib, MetricsTrackLiveFootprintAndSurviveMoves) {
  net::PrefixTrie<std::uint32_t> trie;
  ASSERT_TRUE(trie.insert(Ipv4Prefix::parse("198.51.100.0/24").value(), 1));
  ASSERT_TRUE(trie.insert(Ipv4Prefix::parse("203.0.113.0/24").value(), 2));
  ASSERT_TRUE(trie.insert(Ipv4Prefix::parse("192.0.2.128/25").value(), 3));

  const auto before = fib_cells();
  {
    FlatFib fib = FlatFib::compile_from(
        trie, [](const Ipv4Prefix&, const std::uint32_t& value) { return value; });
    const auto during = fib_cells();
    EXPECT_EQ(during.full_rebuilds, before.full_rebuilds + 1);
    EXPECT_EQ(during.entries, before.entries + trie.size());
    EXPECT_GE(during.spill_tables, before.spill_tables + 1);
    EXPECT_GT(during.bytes, before.bytes);
    EXPECT_GE(during.full_build_seconds, before.full_build_seconds);

    // Moving the instance must not double-count or early-release.
    FlatFib moved = std::move(fib);
    FlatFib assigned;
    assigned = std::move(moved);
    EXPECT_EQ(fib_cells().entries, during.entries);
    EXPECT_NE(assigned.lookup(Ipv4Address{198, 51, 100, 7}), nullptr);
  }
  const auto after = fib_cells();
  EXPECT_EQ(after.full_rebuilds, before.full_rebuilds + 1);  // rebuild count is monotonic
  EXPECT_EQ(after.entries, before.entries);                  // footprint fully released
  EXPECT_EQ(after.spill_tables, before.spill_tables);
  EXPECT_EQ(after.bytes, before.bytes);
}

TEST(Fib, MetricsSurviveMoveAssignOverCompiledInstance) {
  // The hazard the audit chased: move-assigning one compiled FIB over
  // *another* compiled FIB must release exactly the overwritten footprint —
  // not leak it (assign without release) nor double-release (count the moved
  // footprint twice).  Re-publishing a viewpoint FIB does exactly this.
  net::PrefixTrie<std::uint32_t> small;
  ASSERT_TRUE(small.insert(Ipv4Prefix::parse("198.51.100.0/24").value(), 1));
  net::PrefixTrie<std::uint32_t> large;
  ASSERT_TRUE(large.insert(Ipv4Prefix::parse("198.51.100.0/24").value(), 1));
  ASSERT_TRUE(large.insert(Ipv4Prefix::parse("203.0.113.0/24").value(), 2));
  ASSERT_TRUE(large.insert(Ipv4Prefix::parse("192.0.2.128/25").value(), 3));
  const auto map = [](const Ipv4Prefix&, const std::uint32_t& value) { return value; };

  const auto before = fib_cells();
  {
    FlatFib current = FlatFib::compile_from(small, map);
    const auto first = fib_cells();
    EXPECT_EQ(first.full_rebuilds, before.full_rebuilds + 1);
    EXPECT_EQ(first.entries, before.entries + small.size());

    // The re-publish: a fresh compile replaces the live one.
    current = FlatFib::compile_from(large, map);
    const auto second = fib_cells();
    EXPECT_EQ(second.full_rebuilds, before.full_rebuilds + 2);  // one compile, one bump
    EXPECT_EQ(second.entries, before.entries + large.size())
        << "overwritten instance's footprint leaked or double-released";
    EXPECT_NE(current.lookup(Ipv4Address{203, 0, 113, 9}), nullptr);

    // Repeated re-publish never drifts.
    current = FlatFib::compile_from(large, map);
    EXPECT_EQ(fib_cells().entries,
              before.entries + large.size());
  }
  const auto after = fib_cells();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.spill_tables, before.spill_tables);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.full_rebuilds, before.full_rebuilds + 3);
}

// ------------------------------------------------ FlatFib::patch ------------

TEST(Fib, PatchUpdatesPayloadInPlaceWithoutSlotWrites) {
  std::vector<FlatFib::Leaf> leaves = {
      {Ipv4Prefix::parse("10.0.0.0/8").value(), 1},
      {Ipv4Prefix::parse("10.1.0.0/16").value(), 2},
      {Ipv4Prefix::parse("10.1.2.0/24").value(), 3},
  };
  FlatFib fib = FlatFib::compile(leaves);
  const std::size_t entries = fib.entry_count();
  const std::size_t tables = fib.stats().spill_tables;

  const std::vector<FlatFib::Leaf> deltas = {
      {Ipv4Prefix::parse("10.1.0.0/16").value(), 20},
  };
  const auto stats = fib.patch(deltas);
  EXPECT_EQ(stats.updated, 1u);
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(stats.slots_touched, 0u);  // payload rewrites never move slots
  EXPECT_EQ(fib.entry_count(), entries);
  EXPECT_EQ(fib.stats().spill_tables, tables);
  EXPECT_EQ(fib.lookup(Ipv4Address{10, 1, 99, 1})->value, 20u);
  EXPECT_EQ(fib.lookup(Ipv4Address{10, 200, 0, 1})->value, 1u);   // /8 untouched
  EXPECT_EQ(fib.lookup(Ipv4Address{10, 1, 2, 200})->value, 3u);   // /24 untouched
}

TEST(Fib, LookupExactDistinguishesAddressAndLength) {
  std::vector<FlatFib::Leaf> leaves = {
      {Ipv4Prefix::parse("10.1.0.0/16").value(), 16},
      {Ipv4Prefix::parse("10.1.0.0/24").value(), 24},  // same address, longer
      {Ipv4Prefix::parse("10.2.0.0/16").value(), 99},
  };
  const FlatFib fib = FlatFib::compile(std::move(leaves));
  ASSERT_NE(fib.lookup_exact(Ipv4Prefix::parse("10.1.0.0/16").value()), nullptr);
  EXPECT_EQ(fib.lookup_exact(Ipv4Prefix::parse("10.1.0.0/16").value())->value, 16u);
  EXPECT_EQ(fib.lookup_exact(Ipv4Prefix::parse("10.1.0.0/24").value())->value, 24u);
  EXPECT_EQ(fib.lookup_exact(Ipv4Prefix::parse("10.1.0.0/20").value()), nullptr);
  EXPECT_EQ(fib.lookup_exact(Ipv4Prefix::parse("10.3.0.0/16").value()), nullptr);
  EXPECT_EQ(fib.lookup_exact(Ipv4Prefix::parse("10.2.0.0/16").value())->value, 99u);
}

TEST(Fib, PatchInsertMatchesScratchCompileAcrossStrides) {
  // Inserts at every stride level, including the hard cases: a short prefix
  // arriving after spill tables already exist under its range (claim_slot
  // must descend, not clobber), and longer prefixes spawning fresh tables.
  std::vector<FlatFib::Leaf> leaves = {
      {Ipv4Prefix::parse("10.1.2.0/24").value(), 0},
      {Ipv4Prefix::parse("10.1.3.64/26").value(), 1},
      {Ipv4Prefix::parse("10.200.0.0/16").value(), 2},
  };
  FlatFib fib = FlatFib::compile(leaves);

  const std::vector<FlatFib::Leaf> additions = {
      {Ipv4Prefix::parse("10.0.0.0/8").value(), 10},    // covers the spills
      {Ipv4Prefix::parse("10.1.0.0/16").value(), 11},   // under existing tables
      {Ipv4Prefix::parse("10.1.2.128/25").value(), 12}, // more-specific of a /24
      {Ipv4Prefix::parse("10.1.4.0/24").value(), 13},   // fresh mid table slot
      {Ipv4Prefix::parse("10.1.3.66/32").value(), 14},  // host route, level 3
      {Ipv4Prefix::parse("192.168.0.0/12").value(), 15},  // disjoint short
  };
  const auto stats = fib.patch(additions);
  EXPECT_EQ(stats.updated, 0u);
  EXPECT_EQ(stats.inserted, additions.size());
  EXPECT_GT(stats.slots_touched, 0u);

  std::vector<FlatFib::Leaf> all = leaves;
  all.insert(all.end(), additions.begin(), additions.end());
  const FlatFib scratch = FlatFib::compile(std::move(all));

  // Exhaustive over the carved-up /16 plus a sampled sweep of the rest.
  for (std::uint32_t low = 0; low < (1u << 16); ++low) {
    const Ipv4Address address{(10u << 24) | (1u << 16) | low};
    const auto* patched = fib.lookup(address);
    const auto* expected = scratch.lookup(address);
    ASSERT_EQ(patched == nullptr, expected == nullptr) << address.to_string();
    if (patched != nullptr) {
      ASSERT_EQ(patched->value, expected->value) << address.to_string();
    }
  }
  util::Rng rng{0xBEEFULL};
  for (int i = 0; i < 200'000; ++i) {
    const Ipv4Address address{static_cast<std::uint32_t>(rng())};
    const auto* patched = fib.lookup(address);
    const auto* expected = scratch.lookup(address);
    ASSERT_EQ(patched == nullptr, expected == nullptr) << address.to_string();
    if (patched != nullptr) {
      ASSERT_EQ(patched->value, expected->value) << address.to_string();
    }
  }
}

TEST(Fib, PatchedFibMatchesScratchCompileOnRandomChurn) {
  // Unit-level churn fuzz: random batches of payload updates + fresh inserts
  // applied via patch() must stay equivalent to recompiling the union.
  util::Rng rng{0xC0FFEEULL};
  std::vector<FlatFib::Leaf> table;
  std::uint32_t next_value = 0;
  net::PrefixTrie<std::uint32_t> seen;  // prefix -> index in `table`
  const auto random_prefix = [&rng] {
    const auto length = static_cast<std::uint8_t>(rng.uniform_int(8, 28));
    return Ipv4Prefix{Ipv4Address{static_cast<std::uint32_t>(rng())}, length};
  };
  for (int i = 0; i < 800; ++i) {
    const auto prefix = random_prefix();
    if (seen.insert(prefix, static_cast<std::uint32_t>(table.size()))) {
      table.push_back({prefix, next_value++});
    }
  }
  FlatFib fib = FlatFib::compile(table);

  for (int batch = 0; batch < 20; ++batch) {
    std::vector<FlatFib::Leaf> deltas;
    for (int k = 0; k < 12; ++k) {
      if (!table.empty() && rng.uniform() < 0.5) {
        // Payload churn on an existing prefix.
        auto& leaf = table[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(table.size()) - 1))];
        leaf.value = next_value++;
        deltas.push_back(leaf);
      } else {
        const auto prefix = random_prefix();
        if (const std::uint32_t* index = seen.find(prefix)) {
          table[*index].value = next_value++;
          deltas.push_back(table[*index]);
        } else {
          ASSERT_TRUE(seen.insert(prefix, static_cast<std::uint32_t>(table.size())));
          table.push_back({prefix, next_value++});
          deltas.push_back(table.back());
        }
      }
    }
    fib.patch(deltas);

    const FlatFib scratch = FlatFib::compile(table);
    ASSERT_EQ(fib.entry_count(), scratch.entry_count());
    for (int i = 0; i < 20'000; ++i) {
      std::uint32_t probe = static_cast<std::uint32_t>(rng());
      if (i % 2 == 1 && !table.empty()) {
        // Bias half the probes into stored ranges.
        const auto& leaf = table[static_cast<std::size_t>(i) % table.size()];
        probe = leaf.prefix.address().value() +
                static_cast<std::uint32_t>(probe % leaf.prefix.size());
      }
      const Ipv4Address address{probe};
      const auto* patched = fib.lookup(address);
      const auto* expected = scratch.lookup(address);
      ASSERT_EQ(patched == nullptr, expected == nullptr)
          << "batch " << batch << " " << address.to_string();
      if (patched != nullptr) {
        ASSERT_EQ(patched->value, expected->value)
            << "batch " << batch << " " << address.to_string();
        ASSERT_EQ(patched->prefix, expected->prefix)
            << "batch " << batch << " " << address.to_string();
      }
    }
  }
}

// --------------------------------------- VNS data-plane equivalence ---------

/// Deterministic probe pool: biased toward announced prefixes (including
/// more-specific interiors, not just first hosts) with a random-miss tail.
std::vector<Ipv4Address> make_probe_pool(const measure::Workbench& w, std::size_t count) {
  util::Rng rng{0xD1'F1BULL};
  const auto prefixes = w.internet().prefixes();
  std::vector<Ipv4Address> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!prefixes.empty() && rng.uniform() < 0.75) {
      const auto& prefix =
          prefixes[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(prefixes.size()) - 1))]
              .prefix;
      const auto offset = static_cast<std::uint32_t>(rng() % prefix.size());
      pool.emplace_back(prefix.address().value() + offset);
    } else {
      pool.emplace_back(static_cast<std::uint32_t>(rng()));
    }
  }
  return pool;
}

/// Trie + Loc-RIB reference resolution, bypassing the compiled FIB entirely.
struct Reference {
  const bgp::Route* route = nullptr;
  std::optional<PopId> egress;
};

Reference reference_resolve(const core::VnsNetwork& vns, PopId viewpoint, Ipv4Address address) {
  Reference ref;
  const auto prefix = vns.match_prefix(address);
  if (prefix.has_value()) {
    ref.route = vns.fabric().router(vns.pop(viewpoint).routers[0]).best_route(*prefix);
  }
  if (ref.route != nullptr) {
    const PopId pop = vns.pop_of_router(ref.route->egress);
    if (pop != core::kNoPop) ref.egress = pop;
  }
  return ref;
}

/// Asserts FIB resolution == reference for every viewpoint over `probes`.
void expect_fib_matches_reference(const core::VnsNetwork& vns,
                                  std::span<const Ipv4Address> probes, const char* stage) {
  for (PopId viewpoint = 0; viewpoint < vns.pops().size(); ++viewpoint) {
    std::size_t routed = 0;
    for (const Ipv4Address address : probes) {
      const Reference want = reference_resolve(vns, viewpoint, address);
      ASSERT_EQ(vns.route_at(viewpoint, address), want.route)
          << stage << ": route_at diverged at " << vns.pop(viewpoint).name << " for "
          << address.to_string();
      ASSERT_EQ(vns.egress_pop(viewpoint, address), want.egress)
          << stage << ": egress_pop diverged at " << vns.pop(viewpoint).name << " for "
          << address.to_string();
      if (want.route != nullptr) ++routed;
    }
    if (!vns.pop_is_down(viewpoint)) {
      ASSERT_GT(routed, probes.size() / 4)
          << stage << ": probe pool barely exercises routed state at "
          << vns.pop(viewpoint).name;
    }
  }
}

/// A deterministic per-stage slice so each churn window checks fresh probes.
std::span<const Ipv4Address> slice(const std::vector<Ipv4Address>& pool, std::size_t stage,
                                   std::size_t width) {
  const std::size_t start = (stage * width) % (pool.size() - width);
  return std::span<const Ipv4Address>{pool}.subspan(start, width);
}

TEST(Fib, ResolutionMatchesTrieBeforeDuringAfterChurn) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();

  // >= 100k deterministic probes per viewpoint (the full pool is swept for
  // every viewpoint in the before/after states).
  const auto pool = make_probe_pool(*world, 100'000);

  expect_fib_matches_reference(vns, pool, "before churn (hot-potato)");
  if (HasFatalFailure()) return;

  vns.set_geo_routing(true);
  expect_fib_matches_reference(vns, slice(pool, 0, 16'384), "geo-routing enabled");
  if (HasFatalFailure()) return;

  // The existing all-pairs long-haul churn schedule, with the FIB queried
  // inside every degraded window.
  std::vector<std::pair<PopId, PopId>> long_hauls;
  for (const auto& link : vns.links()) {
    if (link.long_haul) long_hauls.emplace_back(link.a, link.b);
  }
  ASSERT_FALSE(long_hauls.empty());
  std::size_t stage = 1;
  for (const auto& [la, lb] : long_hauls) {
    ASSERT_TRUE(vns.fail_pop_link(la, lb));
    expect_fib_matches_reference(vns, slice(pool, stage++, 4'096), "long-haul link down");
    if (HasFatalFailure()) return;
    ASSERT_TRUE(vns.restore_pop_link(la, lb));
  }

  // Fault schedule: a whole-PoP outage and an upstream session loss.
  const PopId osl = *vns.find_pop("OSL");
  vns.fail_pop(osl);
  expect_fib_matches_reference(vns, slice(pool, stage++, 4'096), "PoP down");
  if (HasFatalFailure()) return;
  const PopId lon = *vns.find_pop("LON");
  ASSERT_TRUE(vns.fail_upstream(lon, 0));
  expect_fib_matches_reference(vns, slice(pool, stage++, 4'096), "PoP + upstream down");
  if (HasFatalFailure()) return;
  ASSERT_TRUE(vns.restore_upstream(lon, 0));
  vns.restore_pop(osl);

  // Full sweep again after complete restoration.
  expect_fib_matches_reference(vns, pool, "after restoration");
}

/// FIB copies caught up so far (patched or recompiled), process-wide.
std::uint64_t fib_refreshes() {
  const auto snap = fib_cells();
  return snap.patches + snap.full_rebuilds;
}

TEST(Fib, LookupsNeverRefresh) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();
  vns.set_geo_routing(true);
  const auto pool = make_probe_pool(*world, 4'096);

  // A read sweep of every viewpoint — including the first reads after the
  // geo flip and after a fault — compiles and patches nothing: the work
  // happened inside the convergence that published the FIBs.
  const auto sweep = [&] {
    const auto before = fib_cells();
    std::size_t answered = 0;
    for (PopId viewpoint = 0; viewpoint < vns.pops().size(); ++viewpoint) {
      for (const Ipv4Address address : pool) {
        answered += vns.egress_pop(viewpoint, address).has_value() ? 1 : 0;
        (void)vns.route_at(viewpoint, address);
        (void)vns.local_exit_route(viewpoint, address);
      }
    }
    const auto after = fib_cells();
    EXPECT_EQ(after.patches, before.patches);
    EXPECT_EQ(after.full_rebuilds, before.full_rebuilds);
    EXPECT_GT(answered, 0u);
  };
  sweep();

  const PopId lon = *vns.find_pop("LON");
  const std::uint64_t before_fault = fib_refreshes();
  ASSERT_TRUE(vns.fail_upstream(lon, 0));
  EXPECT_GT(fib_refreshes(), before_fault) << "the fault's convergence published nothing";
  sweep();

  // A convergence with nothing queued and nothing moved publishes nothing.
  const std::uint64_t before_idle = fib_refreshes();
  EXPECT_EQ(vns.fabric().run_to_convergence(), 0u);
  EXPECT_EQ(fib_refreshes(), before_idle);
}

TEST(Fib, EveryConvergingMutatorPublishes) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();
  // The GeoIP FIB compiles on its first lookup (the geo flip's); do it now so
  // the refresh counters below count viewpoint FIBs only.
  (void)world->geoip().lookup(Ipv4Address{0x0a000001u});
  const auto pool = make_probe_pool(*world, 16'384);

  // Override targets: prefixes whose hosts lead the probe slices, so every
  // management edit is visible to the reference comparison.
  const auto prefixes = world->internet().prefixes();
  ASSERT_GT(prefixes.size(), 40u);
  const Ipv4Prefix forced = prefixes[3].prefix;
  const Ipv4Prefix exempted = prefixes[17].prefix;
  const Ipv4Prefix queued = prefixes[29].prefix;
  const Ipv4Prefix covering = prefixes[37].prefix;
  ASSERT_LT(covering.length(), 32);
  const Ipv4Prefix more_specific{covering.address(),
                                 static_cast<std::uint8_t>(covering.length() + 1)};
  const PopId syd = *vns.find_pop("SYD");
  const PopId lon = *vns.find_pop("LON");
  const PopId osl = *vns.find_pop("OSL");
  std::pair<PopId, PopId> long_haul{core::kNoPop, core::kNoPop};
  for (const auto& link : vns.links()) {
    if (link.long_haul) {
      long_haul = {link.a, link.b};
      break;
    }
  }
  ASSERT_NE(long_haul.first, core::kNoPop);

  struct Step {
    const char* name;
    std::function<void()> apply;
  };
  const std::vector<Step> steps = {
      {"set_geo_routing(true)", [&] { vns.set_geo_routing(true); }},
      {"force_exit", [&] { vns.force_exit(forced, syd); }},
      {"exempt_prefix", [&] { vns.exempt_prefix(exempted); }},
      {"apply_policy_changes",
       [&] {
         vns.force_exit(queued, syd, /*refresh_now=*/false);
         vns.apply_policy_changes();
       }},
      {"add_static_more_specific", [&] { vns.add_static_more_specific(more_specific, lon); }},
      {"clear_overrides", [&] { vns.clear_overrides(); }},
      {"fail_pop_link", [&] { ASSERT_TRUE(vns.fail_pop_link(long_haul.first, long_haul.second)); }},
      {"restore_pop_link",
       [&] { ASSERT_TRUE(vns.restore_pop_link(long_haul.first, long_haul.second)); }},
      {"fail_pop", [&] { vns.fail_pop(osl); }},
      {"restore_pop", [&] { vns.restore_pop(osl); }},
      {"fail_upstream", [&] { ASSERT_TRUE(vns.fail_upstream(lon, 0)); }},
      {"restore_upstream", [&] { ASSERT_TRUE(vns.restore_upstream(lon, 0)); }},
      {"set_geo_routing(false)", [&] { vns.set_geo_routing(false); }},
  };

  std::size_t stage = 0;
  for (const Step& step : steps) {
    const std::uint64_t head = vns.fabric().rib_deltas_since(0).next_cursor;
    const std::size_t known = vns.known_prefix_log().size();
    const std::uint64_t refreshes = fib_refreshes();
    step.apply();
    if (HasFatalFailure()) return;
    // Publishing follows the one staleness signal: one catch-up per
    // viewpoint when the delta log or the known-prefix log moved, none
    // otherwise.
    const bool moved = vns.fabric().rib_deltas_since(0).next_cursor != head ||
                       vns.known_prefix_log().size() != known;
    EXPECT_EQ(fib_refreshes() - refreshes, moved ? vns.pops().size() : 0u) << step.name;

    std::vector<Ipv4Address> probes{forced.first_host(), exempted.first_host(),
                                    queued.first_host(), more_specific.first_host()};
    const auto window = slice(pool, stage++, 2'048);
    probes.insert(probes.end(), window.begin(), window.end());
    expect_fib_matches_reference(vns, probes, step.name);
    if (HasFatalFailure()) return;
  }
}

TEST(Fib, ResolutionNeverServesStaleStateAfterConvergence) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();
  vns.set_geo_routing(true);
  const PopId viewpoint = *vns.find_pop("AMS");

  // Pick a probe whose egress is a *remote* PoP we can fail.
  Ipv4Prefix prefix{};
  PopId egress_before = core::kNoPop;
  for (const auto& info : world->internet().prefixes()) {
    const auto egress = vns.egress_pop(viewpoint, info.prefix.first_host());
    if (egress.has_value() && *egress != viewpoint) {
      prefix = info.prefix;
      egress_before = *egress;
      break;
    }
  }
  ASSERT_NE(egress_before, core::kNoPop) << "no remotely-egressing prefix in the sample";
  const Ipv4Address probe = prefix.first_host();

  // Fault: the egress PoP goes dark.  Its convergence publishes, so the
  // very next resolution answers from post-fault state — a stale FIB would
  // still name the dead PoP.
  const std::uint64_t refreshes_before = fib_refreshes();
  vns.fail_pop(egress_before);
  EXPECT_GT(fib_refreshes(), refreshes_before) << "fail_pop published nothing";
  const auto egress_during = vns.egress_pop(viewpoint, probe);
  EXPECT_EQ(egress_during, reference_resolve(vns, viewpoint, probe).egress);
  if (egress_during.has_value()) {
    EXPECT_NE(*egress_during, egress_before);
  }

  // Repair: resolution converges back to the pre-fault answer.
  vns.restore_pop(egress_before);
  ASSERT_EQ(vns.egress_pop(viewpoint, probe), egress_before);

  // A direct fabric mutation publishes nothing until its convergence:
  // withdrawing the prefix everywhere leaves readers on the last converged
  // answer, and run_to_convergence — called on the fabric, not through
  // VnsNetwork — publishes the unrouted state.
  const std::uint64_t refreshes_converged = fib_refreshes();
  for (const auto& attachment : vns.attachments()) {
    vns.fabric().withdraw(attachment.session, prefix);
  }
  EXPECT_EQ(vns.egress_pop(viewpoint, probe), egress_before);
  EXPECT_EQ(fib_refreshes(), refreshes_converged);
  vns.fabric().run_to_convergence();
  EXPECT_FALSE(vns.egress_pop(viewpoint, probe).has_value());
  EXPECT_EQ(vns.route_at(viewpoint, probe), nullptr);
  EXPECT_EQ(vns.egress_pop(viewpoint, probe), reference_resolve(vns, viewpoint, probe).egress);
}

TEST(Fib, ConcurrentReadsOfPublishedFibsAreRaceFree) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  auto& vns = world->vns();

  // Publish a fresh generation of every viewpoint FIB, then resolve
  // concurrently: readers share the live copies (TSan checks the publish
  // happens-before every read).
  vns.set_geo_routing(true);
  const auto pool = make_probe_pool(*world, 2'048);

  // Trie-side reference answers, computed single-threaded without touching
  // any FIB (match_prefix and best_route are the uncompiled paths).
  std::vector<std::vector<std::optional<PopId>>> want(vns.pops().size());
  for (PopId viewpoint = 0; viewpoint < vns.pops().size(); ++viewpoint) {
    want[viewpoint].reserve(pool.size());
    for (const Ipv4Address address : pool) {
      want[viewpoint].push_back(reference_resolve(vns, viewpoint, address).egress);
    }
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<std::optional<PopId>>>> got(
      kThreads, std::vector<std::vector<std::optional<PopId>>>(vns.pops().size()));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&vns, &pool, &got, t] {
      // Stagger viewpoint order per thread so reads of one copy overlap.
      const auto viewpoints = static_cast<PopId>(vns.pops().size());
      for (PopId shift = 0; shift < viewpoints; ++shift) {
        const PopId viewpoint = (shift + static_cast<PopId>(t)) % viewpoints;
        auto& mine = got[static_cast<std::size_t>(t)][viewpoint];
        mine.reserve(pool.size());
        for (const Ipv4Address address : pool) {
          mine.push_back(vns.egress_pop(viewpoint, address));
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  for (int t = 0; t < kThreads; ++t) {
    for (PopId viewpoint = 0; viewpoint < vns.pops().size(); ++viewpoint) {
      // Threads filled viewpoints in shifted order; reorder by viewpoint id.
      const auto& mine = got[static_cast<std::size_t>(t)][viewpoint];
      ASSERT_EQ(mine.size(), pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        ASSERT_EQ(mine[i], want[viewpoint][i])
            << "thread " << t << " viewpoint " << vns.pop(viewpoint).name << " probe "
            << pool[i].to_string();
      }
    }
  }
}

TEST(FibPatch, ViewpointPatchingMatchesAlwaysFullRebuild) {
  // Two identical worlds, one consuming RIB deltas (threshold 1.0: patch
  // whenever the log is usable), one with patching disabled (threshold < 0:
  // every refresh is a from-scratch compile).  Same fault schedule on both;
  // every probe must answer identically at every stage.
  auto patched_config = measure::WorkbenchConfig::small(11);
  patched_config.vns.fib_patch_max_dirty_fraction = 1.0;
  auto full_config = measure::WorkbenchConfig::small(11);
  full_config.vns.fib_patch_max_dirty_fraction = -1.0;
  auto patched_world = measure::Workbench::build(patched_config);
  auto full_world = measure::Workbench::build(full_config);
  auto& patched = patched_world->vns();
  auto& full = full_world->vns();

  const auto pool = make_probe_pool(*patched_world, 16'384);
  std::size_t stage_index = 0;
  const auto compare_worlds = [&](const char* stage) {
    const auto probes = slice(pool, stage_index++, 2'048);
    for (PopId viewpoint = 0; viewpoint < patched.pops().size(); ++viewpoint) {
      for (const Ipv4Address address : probes) {
        const bgp::Route* a = patched.route_at(viewpoint, address);
        const bgp::Route* b = full.route_at(viewpoint, address);
        ASSERT_EQ(a == nullptr, b == nullptr)
            << stage << ": routedness diverged at viewpoint " << viewpoint << " for "
            << address.to_string();
        if (a != nullptr) {
          ASSERT_EQ(a->to_string(), b->to_string())
              << stage << ": route diverged at viewpoint " << viewpoint << " for "
              << address.to_string();
        }
        ASSERT_EQ(patched.egress_pop(viewpoint, address), full.egress_pop(viewpoint, address))
            << stage << ": egress diverged at viewpoint " << viewpoint << " for "
            << address.to_string();
      }
    }
  };

  compare_worlds("initial convergence");
  if (HasFatalFailure()) return;
  const auto before = fib_cells();

  std::pair<PopId, PopId> long_haul{core::kNoPop, core::kNoPop};
  for (const auto& link : patched.links()) {
    if (link.long_haul) {
      long_haul = {link.a, link.b};
      break;
    }
  }
  ASSERT_NE(long_haul.first, core::kNoPop);

  ASSERT_TRUE(patched.fail_pop_link(long_haul.first, long_haul.second));
  ASSERT_TRUE(full.fail_pop_link(long_haul.first, long_haul.second));
  compare_worlds("long-haul link down");
  if (HasFatalFailure()) return;
  ASSERT_TRUE(patched.restore_pop_link(long_haul.first, long_haul.second));
  ASSERT_TRUE(full.restore_pop_link(long_haul.first, long_haul.second));
  compare_worlds("long-haul link restored");
  if (HasFatalFailure()) return;

  const PopId lon = *patched.find_pop("LON");
  ASSERT_TRUE(patched.fail_upstream(lon, 0));
  ASSERT_TRUE(full.fail_upstream(lon, 0));
  compare_worlds("upstream session down");
  if (HasFatalFailure()) return;
  ASSERT_TRUE(patched.restore_upstream(lon, 0));
  ASSERT_TRUE(full.restore_upstream(lon, 0));
  compare_worlds("upstream session restored");
  if (HasFatalFailure()) return;

  const PopId osl = *patched.find_pop("OSL");
  patched.fail_pop(osl);
  full.fail_pop(osl);
  compare_worlds("PoP down");
  if (HasFatalFailure()) return;
  patched.restore_pop(osl);
  full.restore_pop(osl);
  compare_worlds("PoP restored");
  if (HasFatalFailure()) return;

  patched.set_geo_routing(true);
  full.set_geo_routing(true);
  compare_worlds("geo-routing enabled");
  if (HasFatalFailure()) return;

  // The patching world must actually have taken the incremental path.
  const auto after = fib_cells();
  EXPECT_GT(after.patches, before.patches)
      << "the threshold-1.0 world never patched: the incremental path is dead code";
}

// ------------------------------------------------ GeoIP fast path -----------

TEST(Fib, GeoIpCompiledLookupMatchesUncompiled) {
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(7));
  const auto& geoip = world->geoip();
  const auto pool = make_probe_pool(*world, 100'000);

  std::size_t located = 0;
  for (const Ipv4Address address : pool) {
    const auto fast = geoip.lookup(address);
    const auto reference = geoip.lookup_uncompiled(address);
    ASSERT_EQ(fast, reference) << address.to_string();
    if (fast.has_value()) ++located;
  }
  EXPECT_GT(located, pool.size() / 4) << "probe pool barely exercises the database";
}

TEST(Fib, GeoIpLookupSeesWritesAfterCompile) {
  geo::GeoIpDatabase db;
  const auto coarse = Ipv4Prefix::parse("203.0.113.0/24").value();
  db.add_with_report(coarse, geo::GeoPoint{52.37, 4.90}, geo::GeoPoint{52.37, 4.90},
                     geo::GeoIpErrorClass::kAccurate);

  const Ipv4Address probe{203, 0, 113, 77};
  const auto first = db.lookup(probe);  // compiles the FIB
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, (geo::GeoPoint{52.37, 4.90}));

  // A more-specific added after the compile must be served immediately —
  // the write retires the compiled table.
  const auto fine = Ipv4Prefix::parse("203.0.113.64/26").value();
  db.add_with_report(fine, geo::GeoPoint{59.91, 10.75}, geo::GeoPoint{59.91, 10.75},
                     geo::GeoIpErrorClass::kAccurate);
  const auto second = db.lookup(probe);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, (geo::GeoPoint{59.91, 10.75}));
  EXPECT_EQ(db.lookup(probe), db.lookup_uncompiled(probe));
  // Addresses outside the more-specific still resolve to the covering /24.
  EXPECT_EQ(*db.lookup(Ipv4Address{203, 0, 113, 10}), (geo::GeoPoint{52.37, 4.90}));
}

TEST(Fib, GeoIpIncrementalAddPatchesInsteadOfRecompiling) {
  geo::GeoIpDatabase db;
  db.add_with_report(Ipv4Prefix::parse("203.0.113.0/24").value(), geo::GeoPoint{52.37, 4.90},
                     geo::GeoPoint{52.37, 4.90}, geo::GeoIpErrorClass::kAccurate);
  ASSERT_TRUE(db.lookup(Ipv4Address{203, 0, 113, 1}).has_value());  // full compile

  // A post-compile add is served via patch(): the patches counter moves, the
  // full-rebuild counter does not.
  const auto before = fib_cells();
  db.add_with_report(Ipv4Prefix::parse("198.51.100.0/24").value(), geo::GeoPoint{59.91, 10.75},
                     geo::GeoPoint{59.91, 10.75}, geo::GeoIpErrorClass::kAccurate);
  const auto found = db.lookup(Ipv4Address{198, 51, 100, 7});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, (geo::GeoPoint{59.91, 10.75}));
  const auto after = fib_cells();
  EXPECT_EQ(after.patches, before.patches + 1);
  EXPECT_EQ(after.full_rebuilds, before.full_rebuilds);

  // Overwriting an existing prefix is visible in place: no patch, no
  // rebuild, new value served immediately (trie nodes are heap-stable).
  db.add_with_report(Ipv4Prefix::parse("198.51.100.0/24").value(), geo::GeoPoint{48.85, 2.35},
                     geo::GeoPoint{48.85, 2.35}, geo::GeoIpErrorClass::kAccurate);
  const auto overwritten = db.lookup(Ipv4Address{198, 51, 100, 7});
  ASSERT_TRUE(overwritten.has_value());
  EXPECT_EQ(*overwritten, (geo::GeoPoint{48.85, 2.35}));
  const auto final_snap = fib_cells();
  EXPECT_EQ(final_snap.patches, after.patches);
  EXPECT_EQ(final_snap.full_rebuilds, after.full_rebuilds);
  EXPECT_EQ(db.lookup(Ipv4Address{198, 51, 100, 7}),
            db.lookup_uncompiled(Ipv4Address{198, 51, 100, 7}));
}

}  // namespace
}  // namespace vns
