// Figure 12 — diurnal patterns in last-mile loss, from the San Jose PoP.
//
// Methodology (§5.2.3): for each hour of the day (CET), count measurement
// rounds that experienced loss, per destination AS type and region.
//
// Paper highlights:
//   - clear diurnal patterns everywhere;
//   - loss toward EU/NA destinations peaks with the *destination's* peak
//     hours; toward AP it is dominated by AP's own local day (AP congestion
//     masks remote peaks);
//   - CAHPs in AP show ~8x more loss occurrences during local busy hours;
//   - LTP loss in AP peaks in local evening (home-user traffic).
#include <iostream>
#include <map>

#include "bench/bench_common.hpp"
#include "measure/prober.hpp"
#include "sim/path_model.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

using namespace vns;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  auto world = bench::build_world(args, "bench_fig12_diurnal",
                                  "Fig. 12 (hourly loss frequency from SJS by type x region)");
  auto& w = *world;
  const double days = bench::campaign_days(args, 2.0, 6.0);
  const double horizon = days * sim::kSecondsPerDay;
  const int per_cell = args.scale == topo::InternetScale::kSmall ? 12 : 50;
  const util::Rng rng{args.seed ^ 0xf16'12ULL};

  const auto hosts = w.select_last_mile_hosts(per_cell, args.seed ^ 0x605);
  const auto sjs = *w.vns().find_pop("SJS");

  // counters[type][region] over hour-of-day in CET.
  std::map<topo::AsType, std::map<geo::WorldRegion, measure::HourlyLossCounter>> counters;
  for (const auto& host : hosts) {
    counters[host.type].try_emplace(host.region, sim::kTzCet);
  }
  // One probing shard per host, each drawing from its own RNG substream;
  // per-round outcomes come back in host order and are binned serially.
  std::vector<measure::TrainTask> tasks;
  tasks.reserve(hosts.size());
  for (const auto& host : hosts) {
    measure::TrainTask task;
    task.segments = w.probe_segments(sjs, host.prefix_id, true);
    task.horizon_s = horizon;
    task.interval_s = 600.0;
    task.packets = 100;
    tasks.push_back(std::move(task));
  }
  const auto campaign_t0 = std::chrono::steady_clock::now();
  const auto results = measure::run_train_campaign(tasks, rng, args.threads);
  const double campaign_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - campaign_t0).count();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    auto& counter = counters[hosts[i].type].at(hosts[i].region);
    for (const auto& round : results[i].rounds) counter.record(round.t, round.lost > 0);
  }

  const std::pair<const char*, geo::WorldRegion> regions[] = {
      {"AP", geo::WorldRegion::kAsiaPacific},
      {"EU", geo::WorldRegion::kEurope},
      {"NA", geo::WorldRegion::kNorthCentralAmerica}};
  const char* type_names[] = {"LTP", "STP", "CAHP", "EC"};

  for (int t = 0; t < topo::kAsTypeCount; ++t) {
    const auto type = static_cast<topo::AsType>(t);
    util::TextTable table{{"hour (CET)", "AP", "EU", "NA"}};
    for (int hour = 0; hour < 24; ++hour) {
      std::vector<std::string> row{std::to_string(hour)};
      for (const auto& [name, region] : regions) {
        (void)name;
        row.push_back(std::to_string(counters[type].at(region).lossy_rounds(hour)));
      }
      table.add_row(row);
    }
    std::cout << "Fig 12 (" << type_names[t] << ") - lossy rounds per CET hour, SJS vantage:\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  // ---- pattern checks -----------------------------------------------------------
  // Peak CET hour per (type, region) and busy/quiet contrast.
  util::TextTable peaks{{"type", "region", "peak hour CET", "peak/trough", "paper expectation"}};
  for (int t = 0; t < topo::kAsTypeCount; ++t) {
    const auto type = static_cast<topo::AsType>(t);
    for (const auto& [name, region] : regions) {
      const auto& counter = counters[type].at(region);
      int peak_hour = 0;
      std::uint32_t peak = 0, trough = ~0u;
      for (int hour = 0; hour < 24; ++hour) {
        if (counter.lossy_rounds(hour) > peak) {
          peak = counter.lossy_rounds(hour);
          peak_hour = hour;
        }
        trough = std::min(trough, counter.lossy_rounds(hour));
      }
      // Expected peak window in CET, from the type's dominant load (business
      // ~13:00 local, residential evening ~20:30 local) shifted by the
      // destination region's timezone (AP ~ UTC+8, EU ~ UTC+1, NA ~ UTC-6).
      std::string expectation;
      const bool evening_driven =
          type == topo::AsType::kCAHP ||
          (type == topo::AsType::kLTP && region != geo::WorldRegion::kEurope);
      if (region == geo::WorldRegion::kAsiaPacific) {
        expectation = evening_driven ? "AP evening (10-16 CET)" : "AP day (3-11 CET)";
      } else if (region == geo::WorldRegion::kEurope) {
        expectation = evening_driven ? "EU evening (18-22 CET)" : "EU day (10-17 CET)";
      } else {
        expectation = evening_driven ? "NA evening (1-6 CET)" : "NA day (16-23 CET)";
      }
      peaks.add_row({type_names[t], name, std::to_string(peak_hour),
                     util::format_double(trough ? double(peak) / trough : double(peak), 1) + "x",
                     expectation});
    }
  }
  std::cout << "diurnal peak summary:\n";
  peaks.print(std::cout);

  // Busiest vs quietest 3-hour window for AP CAHPs (the paper's "8 times
  // more loss occurrences during working hours").
  const auto& ap_cahp = counters[topo::AsType::kCAHP].at(geo::WorldRegion::kAsiaPacific);
  double busiest = 0.0, quietest = 1e18;
  for (int start = 0; start < 24; ++start) {
    double window = 0.0;
    for (int k = 0; k < 3; ++k) window += ap_cahp.lossy_rounds((start + k) % 24);
    busiest = std::max(busiest, window);
    quietest = std::min(quietest, window);
  }
  std::cout << "\nAP CAHP busiest vs quietest 3h window: "
            << util::format_double(quietest > 0 ? busiest / quietest : busiest, 1)
            << "x (paper: ~8x more during busy hours)\n";
  bench::metric("ap_cahp_busy_vs_quiet_3h",
                quietest > 0 ? busiest / quietest : busiest);
  bench::finish_run(args, campaign_s);
  return 0;
}
