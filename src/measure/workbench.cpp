#include "measure/workbench.hpp"

#include <algorithm>
#include <map>

#include "obs/metrics.hpp"
#include "sim/path_model.hpp"
#include "sim/time.hpp"
#include "util/thread_pool.hpp"

namespace vns::measure {

std::vector<StreamTaskResult> run_stream_campaign(std::span<const StreamTask> tasks,
                                                  const util::Rng& base, int threads) {
  const obs::ScopedTimer span{obs::MetricsRegistry::global(), "campaign.stream"};
  std::vector<StreamTaskResult> results(tasks.size());
  // Substream i is i+1 jumps past `base`, laid out serially up front so the
  // draw sequence of a shard never depends on worker scheduling.
  std::vector<util::Rng> streams;
  streams.reserve(tasks.size());
  util::Rng cursor = base;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    cursor.jump();
    streams.push_back(cursor);
  }
  util::parallel_for(tasks.size(), threads, [&](std::size_t i) {
    const StreamTask& task = tasks[i];
    util::Rng shard_rng = streams[i];
    const sim::PathModel path{task.segments, task.horizon_s, shard_rng.fork("path")};
    util::Rng session_rng = shard_rng.fork("sessions");
    StreamTaskResult& result = results[i];
    const double end = task.end_s > 0.0 ? task.end_s : task.horizon_s;
    std::uint64_t slots = 0;
    for (double t = task.start_s; t < end; t += task.interval_s) {
      auto stats = media::run_session(path, task.profile, t, task.session, session_rng);
      result.loss_percent.add(stats.loss_percent());
      result.jitter_ms.add(stats.jitter_ms);
      slots += stats.slot_packets.size();
      result.sessions.push_back(std::move(stats));
    }
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add(obs::metric("counters.measure.sessions_streamed"), result.sessions.size());
    metrics.add(obs::metric("counters.measure.slots_analyzed"), slots);
  });
  return results;
}

namespace {

/// Scales the circuit/transit capacities with the world's prefix population
/// so the traffic matrix (whose offered load is proportional to modelled
/// users, i.e. prefixes) drives comparable utilization at every
/// InternetScale.  The VnsConfig defaults are the paper-scale sizes.
void scale_capacities(core::VnsConfig& vns, double factor) {
  vns.long_haul_capacity_mbps *= factor;
  vns.regional_capacity_mbps *= factor;
  vns.upstream_capacity_mbps *= factor;
}

}  // namespace

WorkbenchConfig WorkbenchConfig::small(std::uint64_t seed) {
  WorkbenchConfig config;
  config.internet = topo::InternetConfig::preset(topo::InternetScale::kSmall, seed);
  config.vns.seed = seed ^ 0x5eed;
  // ~1/25th of the paper world's prefixes.
  scale_capacities(config.vns, 1.0 / 25.0);
  return config;
}

WorkbenchConfig WorkbenchConfig::paper_scale(std::uint64_t seed) {
  WorkbenchConfig config;
  // Preset defaults: ~2.2k ASes, ~10k prefixes.
  config.internet = topo::InternetConfig::preset(topo::InternetScale::kPaper, seed);
  config.vns.seed = seed ^ 0x5eed;
  return config;
}

WorkbenchConfig WorkbenchConfig::full_scale(std::uint64_t seed) {
  WorkbenchConfig config;
  // ~10.4k ASes / ~107k prefixes: the ROADMAP full-table target.  Everything
  // else (GeoIP model, VNS overlay config) matches paper_scale, so figures
  // differ only in world size.
  config.internet = topo::InternetConfig::preset(topo::InternetScale::kFull, seed);
  config.vns.seed = seed ^ 0x5eed;
  scale_capacities(config.vns, 10.0);
  return config;
}

WorkbenchConfig WorkbenchConfig::xl_scale(std::uint64_t seed) {
  WorkbenchConfig config;
  // ~30k ASes / ~1M prefixes: the million-route tier.  A materialized
  // PrefixInfo table alone would be hundreds of MB, so this preset streams
  // generation through GeoIP construction and the VNS feed by default.
  config.internet = topo::InternetConfig::preset(topo::InternetScale::kXL, seed);
  config.vns.seed = seed ^ 0x5eed;
  scale_capacities(config.vns, 100.0);
  config.stream_generation = true;
  return config;
}

Workbench::Workbench(const WorkbenchConfig& config)
    : config_(config),
      internet_(config.stream_generation
                    ? topo::Internet::generate_topology(config.internet)
                    : topo::Internet::generate(config.internet)),
      geoip_(config.stream_generation
                 ? geo::GeoIpDatabase{}
                 : internet_.build_geoip(config.geoip_model, config.geoip_seed)),
      vns_(std::make_unique<core::VnsNetwork>(internet_, geoip_, config.vns)) {
  delay_ = config.vns.delay;
}

std::unique_ptr<Workbench> Workbench::build(const WorkbenchConfig& config) {
  // Not make_unique: the constructor is private.
  auto bench = std::unique_ptr<Workbench>(new Workbench(config));
  // Attach the sink before the feed storm so traces cover initial convergence.
  if (config.trace != nullptr) bench->vns_->fabric().set_trace(config.trace);
  if (config.stream_generation) {
    // Streamed pipeline: each origin's batch flows topology -> GeoIP ->
    // announcements without the full table ever existing.  One RNG across
    // all batches makes the GeoIP database byte-identical to build_geoip()
    // on a materialized world.
    util::Rng geoip_rng{config.geoip_seed};
    bench->internet_.stream_prefixes([&](const topo::Internet::PrefixBatch& batch) {
      topo::Internet::append_geoip_records(bench->geoip_, batch.prefixes,
                                           config.geoip_model, geoip_rng);
      if (config.feed_routes) bench->vns_->feed_prefix_batch(batch.origin, batch.prefixes);
    });
    if (config.feed_routes) bench->vns_->finish_streamed_feed();
  } else if (config.feed_routes) {
    bench->vns_->feed_routes();
  }
  return bench;
}

std::vector<topo::AsIndex> Workbench::local_exit_as_path(core::PopId pop,
                                                         std::size_t prefix_id,
                                                         bool upstreams_only) const {
  const auto& info = internet_.prefix(prefix_id);
  const auto route = vns_->local_exit_route(pop, info.prefix.first_host(), upstreams_only);
  std::vector<topo::AsIndex> path;
  if (!route) return path;
  path.reserve(route->attrs().as_path.length());
  for (const auto asn : route->attrs().as_path.hops()) {
    const auto index = internet_.index_of(asn);
    if (index) path.push_back(*index);
  }
  return path;
}

std::vector<sim::SegmentProfile> Workbench::probe_segments(core::PopId pop,
                                                           std::size_t prefix_id,
                                                           bool include_last_mile,
                                                           bool upstreams_only) const {
  const auto& info = internet_.prefix(prefix_id);
  const auto& origin = internet_.as_at(info.origin);
  const auto as_path = local_exit_as_path(pop, prefix_id, upstreams_only);
  const auto& site = vns_->pop(pop);

  // Geo-spread blocks (§3.2 case two) are *served locally* in the far
  // region — the organization has unregistered presence there — so the
  // probe's data path runs to the host's actual location through generic
  // local transit, not back through the origin AS's home infrastructure.
  if (info.geo_spread) {
    return topo::transit_path_segments(internet_, site.city.location, site.city.region,
                                       /*as_path=*/{}, info.location, origin.type,
                                       geo::region_of(info.location), catalog_, delay_,
                                       include_last_mile);
  }

  // §5.2.2's London anomaly: the US-centred Tier-1 serves intra-European
  // destinations over a thin, congested European backbone, and hauls some
  // of that traffic ("some of the hosts") across the Atlantic and back.
  // Both effects apply whenever a European PoP's exit enters that provider
  // for a European destination — in practice that is London, where it is
  // the primary upstream.
  const bool via_us_backbone =
      config_.model_us_backbone_detour && !as_path.empty() &&
      as_path.front() == vns_->us_centred_upstream() &&
      site.city.region == geo::WorldRegion::kEurope &&
      origin.region == geo::WorldRegion::kEurope;
  if (via_us_backbone) {
    std::vector<sim::SegmentProfile> segments;
    // Thin intra-EU backbone: a hot segment on every such path.
    sim::SegmentProfile thin;
    thin.label = "us-tier1-thin-eu-backbone";
    thin.congestion_loss = 0.048;
    thin.diurnal = sim::DiurnalProfile{0.06, 0.50, 0.45};
    thin.tz_offset_hours = sim::tz_from_longitude(info.location.longitude_deg);
    thin.jitter_base_ms = 0.1;
    thin.jitter_peak_ms = 1.5;
    segments.push_back(std::move(thin));
    // A deterministic eighth of destinations additionally take the full
    // transatlantic round trip (the RTT-visible part of the anomaly).
    if ((info.prefix.address().value() >> 16) % 8 == 0) {
      const auto& ltp = internet_.as_at(as_path.front());
      const auto& na_core = topo::nearest_pop(ltp, geo::city("NewYork").location);
      auto crossing = catalog_.transit_hop(site.city.location, na_core.location,
                                           topo::RegionClass::kEU, topo::RegionClass::kNA);
      crossing.rtt_ms = geo::great_circle_km(site.city.location, na_core.location) *
                            delay_.rtt_ms_per_km * delay_.path_inflation +
                        delay_.per_hop_rtt_ms;
      crossing.label += "-backbone-detour";
      segments.push_back(std::move(crossing));
      auto rest = topo::transit_path_segments(internet_, na_core.location, na_core.region,
                                              as_path, info.location, origin.type,
                                              origin.region, catalog_, delay_,
                                              include_last_mile);
      segments.insert(segments.end(), std::make_move_iterator(rest.begin()),
                      std::make_move_iterator(rest.end()));
      return segments;
    }
    auto rest = topo::transit_path_segments(internet_, site.city.location, site.city.region,
                                            as_path, info.location, origin.type, origin.region,
                                            catalog_, delay_, include_last_mile);
    segments.insert(segments.end(), std::make_move_iterator(rest.begin()),
                    std::make_move_iterator(rest.end()));
    return segments;
  }

  // The first AS on the exit path is the neighbor at this PoP (its handoff
  // is local); transit_path_segments starts hand-offs from the second.
  return topo::transit_path_segments(internet_, site.city.location, site.city.region, as_path,
                                     info.location, origin.type, origin.region, catalog_,
                                     delay_, include_last_mile);
}

std::vector<Workbench::LastMileHost> Workbench::select_last_mile_hosts(
    int per_cell, std::uint64_t seed) const {
  const geo::WorldRegion regions[] = {geo::WorldRegion::kNorthCentralAmerica,
                                      geo::WorldRegion::kEurope,
                                      geo::WorldRegion::kAsiaPacific};
  util::Rng rng{seed};
  std::vector<LastMileHost> hosts;
  for (const auto region : regions) {
    for (int t = 0; t < topo::kAsTypeCount; ++t) {
      const auto type = static_cast<topo::AsType>(t);
      // Group candidate prefixes by origin AS, then round-robin across ASes
      // so the sample maximizes AS and prefix diversity (§5.2.1).
      std::map<topo::AsIndex, std::vector<std::size_t>> by_as;
      for (std::size_t id = 0; id < internet_.prefixes().size(); ++id) {
        const auto& info = internet_.prefix(id);
        if (info.geo_spread || info.stale_geoip) continue;
        const auto& origin = internet_.as_at(info.origin);
        if (origin.type != type || origin.region != region) continue;
        by_as[info.origin].push_back(id);
      }
      std::vector<std::vector<std::size_t>> pools;
      pools.reserve(by_as.size());
      for (auto& [as, ids] : by_as) {
        rng.shuffle(ids);
        pools.push_back(std::move(ids));
      }
      rng.shuffle(pools);
      int taken = 0;
      for (std::size_t round = 0; taken < per_cell; ++round) {
        bool any = false;
        for (auto& pool : pools) {
          if (round >= pool.size()) continue;
          any = true;
          hosts.push_back({pool[round], type, region});
          if (++taken >= per_cell) break;
        }
        if (!any) break;  // cell exhausted below per_cell
      }
    }
  }
  return hosts;
}

FailoverReport Workbench::run_failover_probes(std::span<const FaultEvent> schedule,
                                              const FailoverConfig& config) {
  return measure::run_failover_probes(*vns_, schedule, config);
}

FailoverStreamReport Workbench::run_failover_streams(std::span<const FaultEvent> schedule,
                                                     const FailoverConfig& config,
                                                     const media::VideoProfile& profile,
                                                     const util::Rng& base) {
  return measure::run_failover_streams(*vns_, catalog_, schedule, config, profile, base);
}

double Workbench::probe_base_rtt_ms(core::PopId pop, std::size_t prefix_id,
                                    bool upstreams_only) const {
  double rtt = 0.0;
  for (const auto& seg :
       probe_segments(pop, prefix_id, /*include_last_mile=*/true, upstreams_only)) {
    rtt += seg.rtt_ms;
  }
  return rtt;
}

}  // namespace vns::measure
