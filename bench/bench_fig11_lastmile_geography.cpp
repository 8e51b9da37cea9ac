// Figure 11 — geography and loss in the last mile.
//
// Methodology (§5.2): 600 end hosts (50 per AS type per region, NA/EU/AP),
// probed with 100 back-to-back packets every 10 minutes from 10 PoPs
// (ATL/ASH/SJS, AMS/FRA/LON/OSL, HKG/SIN/SYD) for three weeks.  Plots the
// average loss rate per (vantage PoP, destination region).
//
// Paper highlights:
//   - distance raises loss: EU PoPs to AP see 1.6-3.3x the loss AP PoPs see;
//     AP PoPs to EU see 2.1-14.2x the loss EU PoPs see (excluding London);
//   - London to EU destinations loses >2x other EU PoPs — its US-centred
//     upstream hauls some intra-European traffic across the Atlantic;
//   - SJS to AP matches AP-local loss (AP operators peer on the US west
//     coast).
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
  auto world = bench::build_world(args, "bench_fig11_lastmile_geography",
                                  "Fig. 11 (average last-mile loss by PoP and region)");
  auto& w = *world;
  const double days = bench::campaign_days(args, 1.0, 4.0);
  const double horizon = days * sim::kSecondsPerDay;
  const int per_cell = args.scale == topo::InternetScale::kSmall ? 12 : 50;
  util::Rng rng{args.seed ^ 0xf16'11ULL};
  measure::Prober prober{rng.fork("trains")};

  const auto hosts = w.select_last_mile_hosts(per_cell, args.seed ^ 0x605);
  const char* vantages[] = {"ATL", "ASH", "SJS", "AMS", "FRA", "LON", "OSL",
                            "HKG", "SIN", "SYD"};
  const geo::WorldRegion regions[] = {geo::WorldRegion::kAsiaPacific,
                                      geo::WorldRegion::kEurope,
                                      geo::WorldRegion::kNorthCentralAmerica};

  // avg loss%[vantage][dest region]
  std::map<std::string, std::map<geo::WorldRegion, util::Summary>> results;
  for (const char* name : vantages) {
    const auto pop = *w.vns().find_pop(name);
    for (const auto& host : hosts) {
      const sim::PathModel path{w.probe_segments(pop, host.prefix_id, true), horizon,
                                util::Rng{args.seed ^ (host.prefix_id * 13 + pop)}};
      // One 100-packet train every 10 minutes.
      for (double t = 0.0; t < horizon; t += 600.0) {
        const auto train = prober.train(path, t, 100);
        results[name][host.region].add(train.loss_fraction() * 100.0);
      }
    }
  }

  util::TextTable table{{"PoP", "to AP %", "to EU %", "to NA %"}};
  for (const char* name : vantages) {
    std::vector<std::string> row{name};
    for (const auto region : regions) {
      row.push_back(util::format_double(results[name][region].mean(), 3));
    }
    table.add_row(row);
  }
  std::cout << "Fig 11 - average loss (" << hosts.size() << " hosts, " << days
            << " days, 100-packet trains / 10 min):\n";
  table.print(std::cout);

  // ---- the paper's ratio checks ------------------------------------------------
  auto avg_of = [&](std::initializer_list<const char*> pops, geo::WorldRegion region) {
    util::Summary s;
    for (const char* p : pops) s.add(results[p][region].mean());
    return s.mean();
  };
  const double eu_to_ap = avg_of({"AMS", "FRA", "LON", "OSL"}, geo::WorldRegion::kAsiaPacific);
  const double ap_to_ap = avg_of({"HKG", "SIN"}, geo::WorldRegion::kAsiaPacific);
  const double ap_to_eu = avg_of({"HKG", "SIN", "SYD"}, geo::WorldRegion::kEurope);
  const double eu_to_eu_sans_london = avg_of({"AMS", "FRA", "OSL"}, geo::WorldRegion::kEurope);
  const double london_to_eu = results["LON"][geo::WorldRegion::kEurope].mean();
  const double sjs_to_ap = results["SJS"][geo::WorldRegion::kAsiaPacific].mean();

  util::TextTable ratios{{"relationship", "measured", "paper"}};
  ratios.add_row({"EU PoPs->AP vs AP PoPs->AP",
                  util::format_double(eu_to_ap / ap_to_ap, 2) + "x", "1.6-3.3x"});
  ratios.add_row({"AP PoPs->EU vs EU PoPs->EU (excl LON)",
                  util::format_double(ap_to_eu / eu_to_eu_sans_london, 2) + "x", "2.1-14.2x"});
  ratios.add_row({"London->EU vs other EU PoPs->EU",
                  util::format_double(london_to_eu / eu_to_eu_sans_london, 2) + "x", ">2x"});
  ratios.add_row({"SJS->AP vs AP PoPs->AP",
                  util::format_double(sjs_to_ap / ap_to_ap, 2) + "x", "~1x"});
  std::cout << "\ndistance/anomaly checks:\n";
  ratios.print(std::cout);
  bench::metric("hosts", hosts.size());
  bench::metric("eu_to_ap_vs_ap_to_ap", ap_to_ap > 0 ? eu_to_ap / ap_to_ap : 0.0);
  bench::metric("london_vs_other_eu",
                eu_to_eu_sans_london > 0 ? london_to_eu / eu_to_eu_sans_london : 0.0);
  bench::finish_run(args, 0.0);
  return 0;
}
