// Table 1 — average loss from Amsterdam to ASes of different types in
// different regions.
//
// Methodology (§5.2.3): the 600-host campaign viewed from the Amsterdam
// vantage, broken down by destination AS type (LTP/STP/CAHP/EC) and region.
//
// Paper values (average loss %):
//   AP: 0.45 / 1.30 / 2.80 / 1.92     EU: 0.11 / 0.62 / 1.58 / 0.52
//   NA: 0.57 / 0.49 / 0.46 / 0.55
// Orderings: in AP and EU the transit hierarchy shows (LTP best, CAHP
// worst, with EC better than STP in EU); in NA the types blur.
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
  auto world = bench::build_world(args, "bench_table1_lastmile_astype",
                                  "Table 1 (avg loss from Amsterdam by AS type x region)");
  auto& w = *world;
  const double days = bench::campaign_days(args, 1.0, 5.0);
  const double horizon = days * sim::kSecondsPerDay;
  const int per_cell = args.scale == topo::InternetScale::kSmall ? 12 : 50;
  util::Rng rng{args.seed ^ 0x7ab1e'1ULL};
  measure::Prober prober{rng.fork("trains")};

  const auto hosts = w.select_last_mile_hosts(per_cell, args.seed ^ 0x605);
  const auto ams = *w.vns().find_pop("AMS");

  std::map<geo::WorldRegion, std::map<topo::AsType, util::Summary>> results;
  for (const auto& host : hosts) {
    const sim::PathModel path{w.probe_segments(ams, host.prefix_id, true), horizon,
                              util::Rng{args.seed ^ (host.prefix_id * 17 + 3)}};
    for (double t = 0.0; t < horizon; t += 600.0) {
      results[host.region][host.type].add(prober.train(path, t, 100).loss_fraction() * 100.0);
    }
  }

  const double paper[3][4] = {// [region][type], region order AP, EU, NA
                              {0.45, 1.30, 2.80, 1.92},
                              {0.11, 0.62, 1.58, 0.52},
                              {0.57, 0.49, 0.46, 0.55}};
  const std::pair<const char*, geo::WorldRegion> regions[] = {
      {"AP", geo::WorldRegion::kAsiaPacific},
      {"EU", geo::WorldRegion::kEurope},
      {"NA", geo::WorldRegion::kNorthCentralAmerica}};

  util::TextTable table{{"Region", "LTP %", "STP %", "CAHP %", "EC %", "paper (LTP/STP/CAHP/EC)"}};
  for (int r = 0; r < 3; ++r) {
    std::vector<std::string> row{regions[r].first};
    for (int t = 0; t < topo::kAsTypeCount; ++t) {
      row.push_back(util::format_double(
          results[regions[r].second][static_cast<topo::AsType>(t)].mean(), 2));
    }
    std::string ref;
    for (int t = 0; t < 4; ++t) ref += (t ? " / " : "") + util::format_double(paper[r][t], 2);
    row.push_back(ref);
    table.add_row(row);
  }
  std::cout << "Table 1 - average loss from Amsterdam by destination AS type and region:\n";
  table.print(std::cout);

  // Ordering checks the paper highlights.
  auto mean = [&](geo::WorldRegion region, topo::AsType type) {
    return results[region][type].mean();
  };
  std::cout << "\nordering checks:\n";
  std::cout << "  AP: CAHP worst, LTP best: "
            << (mean(geo::WorldRegion::kAsiaPacific, topo::AsType::kCAHP) >
                        mean(geo::WorldRegion::kAsiaPacific, topo::AsType::kEC) &&
                    mean(geo::WorldRegion::kAsiaPacific, topo::AsType::kLTP) <
                        mean(geo::WorldRegion::kAsiaPacific, topo::AsType::kSTP)
                ? "yes"
                : "NO")
            << '\n';
  std::cout << "  EU: EC outperforms STP: "
            << (mean(geo::WorldRegion::kEurope, topo::AsType::kEC) <
                        mean(geo::WorldRegion::kEurope, topo::AsType::kSTP)
                ? "yes"
                : "NO")
            << '\n';
  double na_min = 1e18, na_max = 0.0;
  for (int t = 0; t < topo::kAsTypeCount; ++t) {
    const double v = mean(geo::WorldRegion::kNorthCentralAmerica, static_cast<topo::AsType>(t));
    na_min = std::min(na_min, v);
    na_max = std::max(na_max, v);
  }
  std::cout << "  NA: types blurred (max/min " << util::format_double(na_max / na_min, 2)
            << "x, paper ~1.2x)\n";
  bench::metric("ap_cahp_mean_loss", mean(geo::WorldRegion::kAsiaPacific, topo::AsType::kCAHP));
  bench::metric("ap_ltp_mean_loss", mean(geo::WorldRegion::kAsiaPacific, topo::AsType::kLTP));
  bench::metric("na_type_spread", na_min > 0 ? na_max / na_min : 0.0);
  bench::finish_run(args, 0.0);
  return 0;
}
