#include "topo/internet.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>

namespace vns::topo {
namespace {

/// Cities eligible for AS placement (excludes pseudo-entries like the
/// Russia centroid, which exists only as a GeoIP artefact).
std::vector<geo::City> placement_cities(geo::WorldRegion region) {
  std::vector<geo::City> cities;
  for (const auto& city : geo::cities_in(region)) {
    if (city.name != "RussiaCentroid") cities.push_back(city);
  }
  return cities;
}

geo::City sample_city(const std::vector<geo::City>& cities, util::Rng& rng) {
  assert(!cities.empty());
  return cities[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(cities.size()) - 1))];
}

/// Samples a city near `home` (among the k nearest in the list): regional
/// carriers cluster their PoPs around their home market.
geo::City sample_city_near(const std::vector<geo::City>& cities, const geo::City& home,
                           util::Rng& rng, std::size_t k_nearest = 5) {
  std::vector<geo::City> sorted = cities;
  std::sort(sorted.begin(), sorted.end(), [&](const geo::City& a, const geo::City& b) {
    return geo::great_circle_km(a.location, home.location) <
           geo::great_circle_km(b.location, home.location);
  });
  sorted.resize(std::min(k_nearest, sorted.size()));
  return sample_city(sorted, rng);
}

/// Adds a provider->customer edge, deduplicated.
void add_provider(std::vector<AsNode>& ases, AsIndex provider, AsIndex customer) {
  if (provider == customer) return;
  auto& p = ases[provider];
  auto& c = ases[customer];
  if (std::find(c.providers.begin(), c.providers.end(), provider) != c.providers.end()) return;
  c.providers.push_back(provider);
  p.customers.push_back(customer);
}

/// Adds a peering edge, deduplicated.
void add_peering(std::vector<AsNode>& ases, AsIndex a, AsIndex b) {
  if (a == b) return;
  auto& na = ases[a];
  if (std::find(na.peers.begin(), na.peers.end(), b) != na.peers.end()) return;
  na.peers.push_back(b);
  ases[b].peers.push_back(a);
}

geo::WorldRegion sample_region(const InternetConfig& config, util::Rng& rng) {
  return static_cast<geo::WorldRegion>(rng.weighted_index(
      std::span<const double>{config.region_weights, geo::kWorldRegionCount}));
}

}  // namespace

std::vector<AsIndex> RouteTable::path_from(AsIndex src) const {
  std::vector<AsIndex> path;
  if (!reachable(src)) return path;
  AsIndex current = src;
  path.push_back(current);
  // hops bound guards against (impossible) next-hop cycles.
  for (std::uint32_t guard = 0; current != dest_ && guard < entries_.size(); ++guard) {
    current = entries_[current].next_hop;
    if (current == kNoAs) return {};
    path.push_back(current);
  }
  return path;
}

std::optional<AsIndex> Internet::index_of(net::Asn asn) const noexcept {
  const auto it = asn_index_.find(asn);
  if (it == asn_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<InternetScale> scale_from_string(std::string_view name) noexcept {
  if (name == "small") return InternetScale::kSmall;
  if (name == "paper") return InternetScale::kPaper;
  if (name == "full") return InternetScale::kFull;
  if (name == "xl") return InternetScale::kXL;
  return std::nullopt;
}

InternetConfig InternetConfig::preset(InternetScale scale, std::uint64_t seed) {
  InternetConfig config;
  config.seed = seed;
  config.scale = scale;
  switch (scale) {
    case InternetScale::kSmall:
      // The bench `--scale small` world (WorkbenchConfig::small delegates here).
      config.ltp_count = 6;
      config.stp_count = 40;
      config.cahp_count = 80;
      config.ec_count = 160;
      break;
    case InternetScale::kPaper:
      break;  // the defaults above
    case InternetScale::kFull:
      // ~10.4k ASes originating ~107k prefixes (full-table scale target,
      // ROADMAP item 2).  The sequential /16 pool runs out partway through,
      // so the allocator cascades to /20s and /24s — which is exactly what
      // a real full table looks like and what the FlatFib spill tables are
      // for.  Expected prefix volume (uniform-mean origination):
      //   16·26 + 1200·20 + 3200·18.5 + 6000·4 ≈ 107 016.
      config.ltp_count = 16;
      config.stp_count = 1200;
      config.cahp_count = 3200;
      config.ec_count = 6000;
      config.stp_prefixes_min = 8;
      config.stp_prefixes_max = 32;
      config.cahp_prefixes_min = 7;
      config.cahp_prefixes_max = 30;
      config.ec_prefixes_min = 2;
      config.ec_prefixes_max = 6;
      break;
    case InternetScale::kXL:
      // ~30k ASes originating ~1.03M prefixes — real-Internet-table scale
      // (ROADMAP item 2's end state).  The /16 + /20 + /24 pools cover only
      // ~172k blocks, so most of the volume comes from the nested-/24 tier
      // carved inside already-allocated /16 space: the table is dominated
      // by more-specifics exactly like a production full table.  Worlds
      // this size are meant to be *streamed* (Internet::stream_prefixes),
      // not materialized.  Expected volume (uniform-mean origination):
      //   20·45 + 3000·60 + 9000·80 + 18000·7 ≈ 1 026 900.
      config.ltp_count = 20;
      config.stp_count = 3000;
      config.cahp_count = 9000;
      config.ec_count = 18000;
      config.ltp_prefixes_min = 30;
      config.ltp_prefixes_max = 60;
      config.stp_prefixes_min = 40;
      config.stp_prefixes_max = 80;
      config.cahp_prefixes_min = 50;
      config.cahp_prefixes_max = 110;
      config.ec_prefixes_min = 4;
      config.ec_prefixes_max = 10;
      break;
  }
  return config;
}

Internet Internet::generate(const InternetConfig& config) {
  Internet internet = generate_topology(config);
  internet.materialize_prefixes();
  return internet;
}

Internet Internet::generate_topology(const InternetConfig& config) {
  Internet internet;
  internet.config_ = config;
  auto& ases = internet.ases_;

  util::Rng master{config.seed};
  util::Rng place_rng = master.fork("placement");
  util::Rng edge_rng = master.fork("edges");
  // Forked here — in the same master order as always — but consumed later
  // by generate_prefixes, so materialized and streamed worlds draw the
  // exact same origination stream.
  internet.prefix_rng_ = master.fork("prefixes");

  const std::size_t total = config.ltp_count + config.stp_count + config.cahp_count +
                            config.ec_count;
  ases.reserve(total);

  // Pre-split the placement city lists per region.
  std::vector<std::vector<geo::City>> region_cities(geo::kWorldRegionCount);
  for (int r = 0; r < geo::kWorldRegionCount; ++r) {
    region_cities[static_cast<std::size_t>(r)] =
        placement_cities(static_cast<geo::WorldRegion>(r));
  }
  std::vector<geo::City> all_cities;
  for (const auto& list : region_cities) all_cities.insert(all_cities.end(), list.begin(), list.end());

  net::Asn next_asn = 1000;

  // --- LTPs: tier-1-like, global footprints, fully meshed clique. ----------
  for (std::size_t i = 0; i < config.ltp_count; ++i) {
    AsNode node;
    node.asn = next_asn++;
    node.type = AsType::kLTP;
    node.region = sample_region(config, place_rng);
    node.home = sample_city(region_cities[static_cast<std::size_t>(node.region)], place_rng);
    node.pops.push_back(node.home);
    // Dense presence in the three measured regions plus a sample of the
    // rest: Tier-1 backbones interconnect at essentially every major hub,
    // which is what keeps hot-potato hand-offs local.
    for (geo::WorldRegion must :
         {geo::WorldRegion::kEurope, geo::WorldRegion::kNorthCentralAmerica,
          geo::WorldRegion::kAsiaPacific}) {
      for (const auto& city : region_cities[static_cast<std::size_t>(must)]) {
        if (place_rng.bernoulli(0.85)) node.pops.push_back(city);
      }
    }
    // At least one Oceania landing point (all Tier-1s land trans-Pacific
    // capacity in Sydney or Auckland) and a sample of everything else.
    node.pops.push_back(sample_city(
        region_cities[static_cast<std::size_t>(geo::WorldRegion::kOceania)], place_rng));
    const int extras = static_cast<int>(place_rng.uniform_int(4, 9));
    for (int k = 0; k < extras; ++k) node.pops.push_back(sample_city(all_cities, place_rng));
    ases.push_back(std::move(node));
  }
  for (AsIndex a = 0; a < config.ltp_count; ++a) {
    for (AsIndex b = a + 1; b < config.ltp_count; ++b) add_peering(ases, a, b);
  }

  // --- STPs: regional carriers, customers of 1-2 LTPs, regional peering. ---
  const AsIndex stp_begin = static_cast<AsIndex>(ases.size());
  for (std::size_t i = 0; i < config.stp_count; ++i) {
    AsNode node;
    node.asn = next_asn++;
    node.type = AsType::kSTP;
    node.region = sample_region(config, place_rng);
    const auto& cities = region_cities[static_cast<std::size_t>(node.region)];
    node.home = sample_city(cities, place_rng);
    node.pops.push_back(node.home);
    const int extras = static_cast<int>(place_rng.uniform_int(1, 3));
    for (int k = 0; k < extras; ++k) node.pops.push_back(sample_city_near(cities, node.home, place_rng));
    // Some Asian carriers interconnect only on the US west coast and haul
    // traffic home across their own trans-Pacific capacity (§4.1).
    if (node.region == geo::WorldRegion::kAsiaPacific && place_rng.bernoulli(0.30)) {
      node.interconnects.push_back(
          place_rng.bernoulli(0.5) ? geo::city("LosAngeles") : geo::city("SanJose"));
    }
    ases.push_back(std::move(node));
  }
  const AsIndex stp_end = static_cast<AsIndex>(ases.size());
  for (AsIndex s = stp_begin; s < stp_end; ++s) {
    const int providers = static_cast<int>(edge_rng.uniform_int(1, 2));
    for (int k = 0; k < providers; ++k) {
      add_provider(ases, static_cast<AsIndex>(edge_rng.uniform_int(0, static_cast<std::int64_t>(config.ltp_count) - 1)), s);
    }
    // Same-region STP peering (IXP-style).
    for (AsIndex other = stp_begin; other < s; ++other) {
      if (ases[other].region == ases[s].region && edge_rng.bernoulli(0.08)) {
        add_peering(ases, s, other);
      }
    }
  }

  // --- CAHPs: access/hosting, customers of regional STPs (or LTPs). -------
  const AsIndex cahp_begin = static_cast<AsIndex>(ases.size());
  for (std::size_t i = 0; i < config.cahp_count; ++i) {
    AsNode node;
    node.asn = next_asn++;
    node.type = AsType::kCAHP;
    node.region = sample_region(config, place_rng);
    const auto& cities = region_cities[static_cast<std::size_t>(node.region)];
    node.home = sample_city(cities, place_rng);
    node.pops.push_back(node.home);
    if (place_rng.bernoulli(0.4)) node.pops.push_back(sample_city_near(cities, node.home, place_rng));
    if (node.region == geo::WorldRegion::kAsiaPacific && place_rng.bernoulli(0.18)) {
      node.interconnects.push_back(
          place_rng.bernoulli(0.5) ? geo::city("LosAngeles") : geo::city("SanJose"));
    }
    ases.push_back(std::move(node));
  }
  const AsIndex cahp_end = static_cast<AsIndex>(ases.size());
  // Region -> STP indices, for provider selection.
  std::vector<std::vector<AsIndex>> stps_in_region(geo::kWorldRegionCount);
  for (AsIndex s = stp_begin; s < stp_end; ++s) {
    stps_in_region[static_cast<std::size_t>(ases[s].region)].push_back(s);
  }
  // Edge networks buy transit from carriers *near them*: among the k
  // geographically nearest same-region STPs (this locality is what keeps
  // real transit paths direct), falling back to an LTP.
  auto pick_regional_transit = [&](geo::WorldRegion region, const geo::City& home) -> AsIndex {
    auto local = stps_in_region[static_cast<std::size_t>(region)];  // copy
    if (!local.empty() && edge_rng.bernoulli(0.8)) {
      std::sort(local.begin(), local.end(), [&](AsIndex a, AsIndex b) {
        const double da = geo::great_circle_km(ases[a].home.location, home.location);
        const double db = geo::great_circle_km(ases[b].home.location, home.location);
        return da != db ? da < db : a < b;
      });
      const auto k = std::min<std::size_t>(local.size(), 3);
      return local[static_cast<std::size_t>(
          edge_rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))];
    }
    return static_cast<AsIndex>(edge_rng.uniform_int(0, static_cast<std::int64_t>(config.ltp_count) - 1));
  };
  for (AsIndex c = cahp_begin; c < cahp_end; ++c) {
    const int providers = static_cast<int>(edge_rng.uniform_int(1, 2));
    for (int k = 0; k < providers; ++k) {
      add_provider(ases, pick_regional_transit(ases[c].region, ases[c].home), c);
    }
    // Occasional CAHP-CAHP peering inside a region.
    for (AsIndex other = cahp_begin; other < c; ++other) {
      if (ases[other].region == ases[c].region && edge_rng.bernoulli(0.01)) {
        add_peering(ases, c, other);
      }
    }
  }

  // --- ECs: stubs, customers of regional CAHP/STP (rarely an LTP). --------
  const AsIndex ec_begin = static_cast<AsIndex>(ases.size());
  std::vector<std::vector<AsIndex>> cahps_in_region(geo::kWorldRegionCount);
  for (AsIndex c = cahp_begin; c < cahp_end; ++c) {
    cahps_in_region[static_cast<std::size_t>(ases[c].region)].push_back(c);
  }
  for (std::size_t i = 0; i < config.ec_count; ++i) {
    AsNode node;
    node.asn = next_asn++;
    node.type = AsType::kEC;
    node.region = sample_region(config, place_rng);
    const auto& cities = region_cities[static_cast<std::size_t>(node.region)];
    node.home = sample_city(cities, place_rng);
    node.pops.push_back(node.home);
    ases.push_back(std::move(node));
  }
  for (AsIndex e = ec_begin; e < static_cast<AsIndex>(ases.size()); ++e) {
    const auto region = ases[e].region;
    auto local_cahps = cahps_in_region[static_cast<std::size_t>(region)];  // copy
    // Enterprises likewise buy from nearby access providers.
    std::sort(local_cahps.begin(), local_cahps.end(), [&](AsIndex a, AsIndex b) {
      const double da = geo::great_circle_km(ases[a].home.location, ases[e].home.location);
      const double db = geo::great_circle_km(ases[b].home.location, ases[e].home.location);
      return da != db ? da < db : a < b;
    });
    if (local_cahps.size() > 4) local_cahps.resize(4);
    const int providers = edge_rng.bernoulli(0.25) ? 2 : 1;
    for (int k = 0; k < providers; ++k) {
      AsIndex provider;
      const double roll = edge_rng.uniform();
      if (roll < 0.55 && !local_cahps.empty()) {
        provider = local_cahps[static_cast<std::size_t>(
            edge_rng.uniform_int(0, static_cast<std::int64_t>(local_cahps.size()) - 1))];
      } else if (roll < 0.92) {
        provider = pick_regional_transit(region, ases[e].home);
      } else {
        provider = static_cast<AsIndex>(
            edge_rng.uniform_int(0, static_cast<std::int64_t>(config.ltp_count) - 1));
      }
      add_provider(ases, provider, e);
    }
  }

  // Pick the "acquired ISP": an AP-region CAHP homed in India, whose block
  // keeps stale Canadian GeoIP records (the paper's TATA example).
  AsIndex stale_as = kNoAs;
  for (AsIndex c = cahp_begin; c < cahp_end && stale_as == kNoAs; ++c) {
    if (ases[c].home.country == "IN") stale_as = c;
  }
  // The acquired ISP and its transit chain interconnect normally in-region;
  // otherwise the trans-Pacific self-haul would mask the stale-record
  // cluster the paper attributes to this block.
  if (stale_as != kNoAs) {
    ases[stale_as].interconnects.clear();
    for (const AsIndex p : ases[stale_as].providers) ases[p].interconnects.clear();
  }
  if (stale_as == kNoAs && cahp_end > cahp_begin) {
    // Force one: re-home the first AP-region CAHP to Mumbai.
    for (AsIndex c = cahp_begin; c < cahp_end; ++c) {
      if (ases[c].region == geo::WorldRegion::kAsiaPacific) {
        ases[c].home = geo::city("Mumbai");
        ases[c].pops.front() = ases[c].home;
        stale_as = c;
        break;
      }
    }
  }
  internet.stale_as_ = stale_as;

  for (AsIndex i = 0; i < internet.ases_.size(); ++i) {
    internet.asn_index_.emplace(internet.ases_[i].asn, i);
  }
  return internet;
}

void Internet::materialize_prefixes() {
  // Reserve the uniform-mean origination volume up front: at full-table
  // scale the vector holds 100k+ PrefixInfo records and reallocation
  // doubling would transiently hold ~2x that (the generation path is meant
  // to stay memory-bounded).
  const auto mean_count = [](int lo, int hi) {
    return static_cast<std::size_t>((lo + hi) / 2 + 1);
  };
  prefixes_.reserve(
      config_.ltp_count * mean_count(config_.ltp_prefixes_min, config_.ltp_prefixes_max) +
      config_.stp_count * mean_count(config_.stp_prefixes_min, config_.stp_prefixes_max) +
      config_.cahp_count * mean_count(config_.cahp_prefixes_min, config_.cahp_prefixes_max) +
      config_.ec_count * mean_count(config_.ec_prefixes_min, config_.ec_prefixes_max) +
      static_cast<std::size_t>(config_.stale_block_prefixes));
  generate_prefixes([this](AsIndex, std::size_t, std::vector<PrefixInfo>& batch) {
    for (auto& info : batch) prefixes_.push_back(std::move(info));
  });
}

void Internet::stream_prefixes(const PrefixSink& sink) {
  generate_prefixes([&sink](AsIndex origin, std::size_t first_id,
                            std::vector<PrefixInfo>& batch) {
    sink(PrefixBatch{origin, first_id, std::span<const PrefixInfo>{batch}});
  });
}

void Internet::generate_prefixes(
    const std::function<void(AsIndex, std::size_t, std::vector<PrefixInfo>&)>& consume) {
  assert(!prefixes_generated_ && "prefixes already generated for this world");
  prefixes_generated_ = true;

  // Re-derive the placement city lists (deterministic, RNG-free).
  std::vector<std::vector<geo::City>> region_cities(geo::kWorldRegionCount);
  for (int r = 0; r < geo::kWorldRegionCount; ++r) {
    region_cities[static_cast<std::size_t>(r)] =
        placement_cities(static_cast<geo::WorldRegion>(r));
  }

  // Distinct prefixes from a sequential pool cascade: first /16s (byte-
  // identical to the historical allocator for every pre-`full` world), then
  // /20s, then /24s, then — at kXL scale — /24 more-specifics carved inside
  // the already-allocated /16 space.  The mixed lengths and nesting make
  // the big worlds exercise the FlatFib spill tables the way a real full
  // table does; uniqueness and LPM-compatibility are what the experiments
  // actually depend on.
  std::uint32_t next_block = 11;  // /16 pool: block 11 upward
  std::uint32_t s20 = 0;          // /20 pool: 1.0.0.0/20 .. 10.255.240.0/20
  std::uint32_t s24 = 0;          // /24 pool: 0.0.0.0/24 .. 0.255.255.0/24
  std::uint32_t nested_block = 11u << 8;  // nested-/24 pool: inside 11.0.0.0/16 up
  std::uint32_t nested_z = 1;             // third octet; 0 skipped so the /16's
                                          // first_host keeps resolving to the /16
  auto allocate_prefix = [&]() {
    if (next_block <= 0xffffu) {
      const net::Ipv4Prefix prefix{net::Ipv4Address{next_block << 16}, 16};
      ++next_block;
      if ((next_block >> 8) == 127) next_block = 128 << 8;  // skip loopback /8
      return prefix;
    }
    constexpr std::uint32_t kSlash20Count = 10u * 256u * 16u;  // 1.0.0.0..10.255.240.0
    if (s20 < kSlash20Count) {
      const net::Ipv4Prefix prefix{net::Ipv4Address{(1u << 24) + (s20 << 12)}, 20};
      ++s20;
      return prefix;
    }
    if (s24 < (1u << 16)) {
      const net::Ipv4Prefix prefix{net::Ipv4Address{s24 << 8}, 24};
      ++s24;
      return prefix;
    }
    // Nested tier: x.y.z.0/24 with z >= 1 inside the /16 blocks handed out
    // above — more-specifics of live /16s, never colliding with the 0.x.y.0
    // /24 pool or the 1..10.x /20 pool, and never covering a /16 probe host.
    assert(nested_block <= 0xffffu && "prefix pool exhausted");
    const net::Ipv4Prefix prefix{net::Ipv4Address{(nested_block << 16) | (nested_z << 8)}, 24};
    if (++nested_z == 256) {
      nested_z = 1;
      ++nested_block;
      if ((nested_block >> 8) == 127) nested_block = 128u << 8;  // skip loopback /8
    }
    return prefix;
  };

  const geo::GeoPoint stale_registered = geo::city("Toronto").location;

  std::vector<PrefixInfo> batch;
  for (AsIndex index = 0; index < ases_.size(); ++index) {
    auto& node = ases_[index];
    int count = 0;
    switch (node.type) {
      case AsType::kLTP:
        count = static_cast<int>(prefix_rng_.uniform_int(config_.ltp_prefixes_min, config_.ltp_prefixes_max));
        break;
      case AsType::kSTP:
        count = static_cast<int>(prefix_rng_.uniform_int(config_.stp_prefixes_min, config_.stp_prefixes_max));
        break;
      case AsType::kCAHP:
        count = static_cast<int>(prefix_rng_.uniform_int(config_.cahp_prefixes_min, config_.cahp_prefixes_max));
        break;
      case AsType::kEC:
        count = static_cast<int>(prefix_rng_.uniform_int(config_.ec_prefixes_min, config_.ec_prefixes_max));
        break;
    }
    if (index == stale_as_) count = std::max(count, config_.stale_block_prefixes);

    const std::size_t first_id = prefix_count_;
    batch.clear();
    batch.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
      PrefixInfo info;
      info.prefix = allocate_prefix();
      info.origin = index;
      info.country = std::string{node.home.country};

      // Hosts scatter around one of the AS's PoP cities (heavier around home).
      const geo::City& anchor =
          (k == 0 || prefix_rng_.bernoulli(0.6)) ? node.home
              : node.pops[static_cast<std::size_t>(prefix_rng_.uniform_int(
                    0, static_cast<std::int64_t>(node.pops.size()) - 1))];
      const double scatter_km = prefix_rng_.exponential(35.0);
      info.location = geo::destination_point(anchor.location, prefix_rng_.uniform(0.0, 360.0),
                                             std::min(scatter_km, 400.0));
      info.registered_location = info.location;

      if (index == stale_as_ && k < config_.stale_block_prefixes) {
        info.stale_geoip = true;
        info.registered_location = stale_registered;
      } else if (prefix_rng_.bernoulli(config_.geo_spread_fraction)) {
        // Geo-spread block: the registry sees the home region, but the live
        // hosts sit in a different region entirely.
        info.geo_spread = true;
        const auto far_region = static_cast<geo::WorldRegion>(
            (static_cast<int>(node.region) + 3 + static_cast<int>(prefix_rng_.uniform_int(0, 2))) %
            geo::kWorldRegionCount);
        const auto& far_cities = region_cities[static_cast<std::size_t>(far_region)];
        info.registered_location = info.location;
        info.location = sample_city(far_cities, prefix_rng_).location;
      }

      node.prefix_ids.push_back(prefix_count_);
      ++prefix_count_;
      batch.push_back(std::move(info));
    }
    consume(index, first_id, batch);
  }
}

RouteTable Internet::routes_to(AsIndex dest) const {
  RouteTable table{ases_.size(), dest};

  // Candidate update honouring (class, hops, next-hop-index) preference.
  auto offer = [&](AsIndex as, PathClass cls, std::uint16_t hops, AsIndex next_hop) {
    auto& entry = table.at(as);
    const bool better =
        cls < entry.cls ||
        (cls == entry.cls && hops < entry.hops) ||
        (cls == entry.cls && hops == entry.hops && next_hop < entry.next_hop);
    if (!better) return false;
    entry = {cls, hops, next_hop};
    return true;
  };

  // Pass A: customer routes — BFS from the destination along provider edges
  // (each AS on such a path hears the route from a customer).
  table.at(dest) = {PathClass::kCustomer, 0, kNoAs};
  std::queue<AsIndex> frontier;
  frontier.push(dest);
  while (!frontier.empty()) {
    const AsIndex current = frontier.front();
    frontier.pop();
    const auto& entry = table.at(current);
    for (AsIndex provider : ases_[current].providers) {
      if (offer(provider, PathClass::kCustomer,
                static_cast<std::uint16_t>(entry.hops + 1), current)) {
        frontier.push(provider);
      }
    }
  }

  // Pass B: peer routes — one peer hop on top of a customer route.
  for (AsIndex as = 0; as < ases_.size(); ++as) {
    if (table.at(as).cls != PathClass::kCustomer) continue;
    const auto hops = table.at(as).hops;
    for (AsIndex peer : ases_[as].peers) {
      offer(peer, PathClass::kPeer, static_cast<std::uint16_t>(hops + 1), as);
    }
  }

  // Pass C: provider routes — anything an AS selected is exported to its
  // customers; propagate downward by increasing hop count.
  using Item = std::pair<std::uint16_t, AsIndex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> downhill;
  for (AsIndex as = 0; as < ases_.size(); ++as) {
    if (table.at(as).cls != PathClass::kNone) downhill.push({table.at(as).hops, as});
  }
  while (!downhill.empty()) {
    const auto [hops, current] = downhill.top();
    downhill.pop();
    if (table.at(current).hops != hops || table.at(current).cls == PathClass::kNone) continue;
    for (AsIndex customer : ases_[current].customers) {
      if (offer(customer, PathClass::kProvider, static_cast<std::uint16_t>(hops + 1), current)) {
        downhill.push({static_cast<std::uint16_t>(hops + 1), customer});
      }
    }
  }

  return table;
}

std::vector<AsIndex> Internet::ases_near(const geo::GeoPoint& where, double radius_km,
                                         std::span<const AsType> types) const {
  std::vector<AsIndex> result;
  for (AsIndex i = 0; i < ases_.size(); ++i) {
    const auto& node = ases_[i];
    if (std::find(types.begin(), types.end(), node.type) == types.end()) continue;
    for (const auto& pop : node.pops) {
      if (geo::great_circle_km(pop.location, where) <= radius_km) {
        result.push_back(i);
        break;
      }
    }
  }
  return result;
}

geo::GeoIpDatabase Internet::build_geoip(const geo::GeoIpErrorModel& model,
                                         std::uint64_t seed) const {
  geo::GeoIpDatabase db;
  util::Rng rng{seed};
  append_geoip_records(db, prefixes_, model, rng);
  return db;
}

void Internet::append_geoip_records(geo::GeoIpDatabase& db,
                                    std::span<const PrefixInfo> batch,
                                    const geo::GeoIpErrorModel& model, util::Rng& rng) {
  for (const auto& info : batch) {
    if (info.stale_geoip) {
      db.add_with_report(info.prefix, info.location, info.registered_location,
                        geo::GeoIpErrorClass::kStaleRecord);
    } else if (info.geo_spread) {
      // The registry record (home region) is honest for the covering block,
      // but the probed hosts moved: reported != truth by a region.
      db.add_with_report(info.prefix, info.location, info.registered_location,
                        geo::GeoIpErrorClass::kJittered);
    } else {
      db.add(info.prefix, info.location, info.country, model, rng);
    }
  }
}

}  // namespace vns::topo
