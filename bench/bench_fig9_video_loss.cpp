// Figure 9 + §5.1.1 — HD video loss through VNS vs through Internet transit.
//
// Methodology (§5.1): clients at the Amsterdam, San Jose and Sydney PoPs
// stream two-minute HD sessions to echo servers inside VNS in EU (AMS, FRA),
// AP (HKG, SIN) and NA (ASH, NYC), twice per hour, simultaneously through
// VNS's dedicated links ("I-") and through upstream transit ("T-").
//
// Paper highlights:
//   - videos through VNS consistently lose less, often nothing at all;
//   - streams >0.15 % loss to AP through transit: Amsterdam ~10 %,
//     San Jose ~5 %, Sydney ~43 %; through VNS: 0.7 %, 0.8 %, 0 %;
//   - jitter sub-10 ms for 99 % of 1080p (97 % of 720p) streams both ways;
//   - no qualitative 720p/1080p loss difference.
#include <iostream>
#include <map>

#include "bench/bench_common.hpp"
#include "media/session.hpp"
#include "sim/path_model.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

using namespace vns;

namespace {

struct SeriesKey {
  std::string client;
  geo::PopRegion server_region;
  bool via_vns;

  [[nodiscard]] std::string label() const {
    return (via_vns ? "I-" : "T-") + std::string{to_string(server_region)} + " (" + client + ")";
  }
  friend bool operator<(const SeriesKey& a, const SeriesKey& b) {
    return std::tie(a.client, a.server_region, a.via_vns) <
           std::tie(b.client, b.server_region, b.via_vns);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  auto world = bench::build_world(args, "bench_fig9_video_loss",
                                  "Fig. 9 (video loss CCDF) + §5.1.1 jitter");
  auto& w = *world;
  const double days = bench::campaign_days(args, 2.0, 7.0);
  const double horizon = days * sim::kSecondsPerDay;
  const util::Rng rng{args.seed ^ 0xf16'9ULL};

  const char* clients[] = {"AMS", "SJS", "SYD"};
  const std::pair<const char*, geo::PopRegion> servers[] = {
      {"AMS", geo::PopRegion::kEU}, {"FRA", geo::PopRegion::kEU},
      {"HKG", geo::PopRegion::kAP}, {"SIN", geo::PopRegion::kAP},
      {"ASH", geo::PopRegion::kUS}, {"NYC", geo::PopRegion::kUS},
  };

  std::map<SeriesKey, std::vector<double>> loss_series;   // loss %
  std::vector<double> jitter_1080, jitter_720;
  std::map<bool, util::Summary> loss_by_profile;  // 720p vs 1080p mean loss

  const auto profile_1080 = media::VideoProfile::hd1080();
  const auto profile_720 = media::VideoProfile::hd720();
  media::SessionConfig session_config;

  // One streaming shard per (client, server, route, definition); the paper
  // streams both definitions on both routes simultaneously.
  struct TaskKey {
    const char* client;
    std::size_t server;
    bool via_vns;
    bool hd720;
  };
  std::vector<TaskKey> keys;
  std::vector<measure::StreamTask> tasks;
  for (const char* client_name : clients) {
    const auto client = *w.vns().find_pop(client_name);
    for (std::size_t s = 0; s < std::size(servers); ++s) {
      const auto server = *w.vns().find_pop(servers[s].first);
      if (server == client) continue;  // the co-located echo is not a path

      // The two simultaneous paths of §5.1: VNS's dedicated links, and a
      // ride on the client PoP's primary upstream between the two cities.
      const auto vns_segments = w.vns().internal_segments(client, server, w.catalog());
      std::vector<topo::AsIndex> transit_as_path;
      for (const auto& attachment : w.vns().attachments()) {
        if (attachment.pop == client && attachment.upstream) {
          transit_as_path.push_back(attachment.as);
          break;
        }
      }
      const auto transit_segments = topo::transit_path_segments(
          w.internet(), w.vns().pop(client).city.location, w.vns().pop(client).city.region,
          transit_as_path, w.vns().pop(server).city.location, topo::AsType::kLTP,
          w.vns().pop(server).city.region, w.catalog(), w.delay(),
          /*include_last_mile=*/false);

      for (const bool via_vns : {true, false}) {
        for (const bool hd720 : {false, true}) {
          measure::StreamTask task;
          task.segments = via_vns ? vns_segments : transit_segments;
          task.horizon_s = horizon;
          // Two sessions per hour for `days`, staggered per server.
          task.start_s = s * 150.0;
          task.end_s = horizon - 150.0;
          task.interval_s = 1800.0;
          task.profile = hd720 ? profile_720 : profile_1080;
          task.session = session_config;
          keys.push_back({client_name, s, via_vns, hd720});
          tasks.push_back(std::move(task));
        }
      }
    }
  }

  const auto campaign_t0 = std::chrono::steady_clock::now();
  const auto results = measure::run_stream_campaign(tasks, rng, args.threads);
  const double campaign_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - campaign_t0).count();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& key = keys[i];
    for (const auto& stats : results[i].sessions) {
      if (key.hd720) {
        jitter_720.push_back(stats.jitter_ms);
        loss_by_profile[true].add(stats.loss_fraction());
      } else {
        loss_series[{key.client, servers[key.server].second, key.via_vns}].push_back(
            stats.loss_percent());
        jitter_1080.push_back(stats.jitter_ms);
        loss_by_profile[false].add(stats.loss_fraction());
      }
    }
  }

  util::TextTable table{{"series", "streams", "no loss", ">0.01%", ">0.15%", ">1%", "mean %"}};
  for (const auto& [key, losses] : loss_series) {
    util::Percentiles p{std::vector<double>(losses)};
    util::Summary mean;
    for (const double loss : losses) mean.add(loss);
    table.add_row({key.label(), std::to_string(losses.size()),
                   util::format_percent(p.fraction_at_most(0.0), 1),
                   util::format_percent(p.fraction_above(0.01), 1),
                   util::format_percent(p.fraction_above(0.15), 2),
                   util::format_percent(p.fraction_above(1.0), 2),
                   util::format_double(mean.mean(), 4)});
  }
  std::cout << "Fig 9 - 1080p stream loss, I- = through VNS, T- = through transit:\n";
  table.print(std::cout);
  std::cout << "paper: >0.15% to AP through transit: AMS 10% / SJS 5% / SYD 43%;\n"
               "       through VNS: AMS 0.7% / SJS 0.8% / SYD 0%; T-EU/T-NA small but nonzero\n\n";

  // ---- §5.1.1 jitter ---------------------------------------------------------
  util::Percentiles j1080{std::move(jitter_1080)};
  util::Percentiles j720{std::move(jitter_720)};
  util::TextTable jitter{{"definition", "streams", "jitter<10ms", "jitter<20ms", "p99 (ms)"}};
  jitter.add_row({"1080p", std::to_string(j1080.count()),
                  util::format_percent(j1080.fraction_at_most(10.0), 1),
                  util::format_percent(j1080.fraction_at_most(20.0), 1),
                  util::format_double(j1080.quantile(0.99), 2)});
  jitter.add_row({"720p", std::to_string(j720.count()),
                  util::format_percent(j720.fraction_at_most(10.0), 1),
                  util::format_percent(j720.fraction_at_most(20.0), 1),
                  util::format_double(j720.quantile(0.99), 2)});
  std::cout << "S5.1.1 - interarrival jitter:\n";
  jitter.print(std::cout);
  std::cout << "paper: sub-10 ms for 99% (1080p) / 97% (720p); below the 20 ms guideline\n\n";

  std::cout << "720p vs 1080p mean loss: " << util::format_percent(loss_by_profile[true].mean(), 4)
            << " vs " << util::format_percent(loss_by_profile[false].mean(), 4)
            << " (paper: no qualitative difference)\n";
  bench::metric("streams_1080p", j1080.count());
  bench::metric("streams_720p", j720.count());
  bench::metric("jitter_1080p_sub10ms", j1080.fraction_at_most(10.0));
  bench::metric("jitter_720p_sub10ms", j720.fraction_at_most(10.0));
  bench::metric("mean_loss_720p", loss_by_profile[true].mean());
  bench::metric("mean_loss_1080p", loss_by_profile[false].mean());
  bench::finish_run(args, campaign_s);
  return 0;
}
