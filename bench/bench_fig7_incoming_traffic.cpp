// Figure 7 — where incoming service traffic enters VNS.
//
// Methodology (§4.4): VNS TURN relays share one anycast address; 60k user
// authentication requests over a day are mapped to the PoP region where
// they entered.  VNS shapes this with geographically-limited transit,
// traffic engineering and BGP communities; the figure shows the world-region
// -> PoP-region flow following geography.
#include <iostream>

#include "bench/bench_common.hpp"

using namespace vns;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  auto world = bench::build_world(args, "bench_fig7_incoming_traffic",
                                  "Fig. 7 (anycast ingress by origin region)");
  auto& w = *world;
  util::Rng rng{args.seed ^ 0xf16'7ULL};

  // Request population: stub/access networks originate user traffic,
  // weighted towards larger networks.
  std::vector<topo::AsIndex> user_ases;
  std::vector<double> weights;
  for (topo::AsIndex as = 0; as < w.internet().as_count(); ++as) {
    const auto& node = w.internet().as_at(as);
    if (node.type != topo::AsType::kEC && node.type != topo::AsType::kCAHP) continue;
    user_ases.push_back(as);
    weights.push_back(node.type == topo::AsType::kCAHP ? 4.0 : 1.0);
  }

  const int requests = args.scale == topo::InternetScale::kSmall ? 6000 : 60000;
  // counts[world region][pop region]
  std::vector<std::vector<int>> counts(geo::kWorldRegionCount,
                                       std::vector<int>(geo::kPopRegionCount, 0));
  int diagonal = 0;
  for (int i = 0; i < requests; ++i) {
    const auto as = user_ases[rng.weighted_index(weights)];
    const auto& node = w.internet().as_at(as);
    // Users scatter around their network's home.
    const auto user_loc = geo::destination_point(
        node.home.location, rng.uniform(0.0, 360.0), rng.exponential(60.0));
    const auto pop = w.vns().select_ingress(as, user_loc);
    const auto pop_region = w.vns().pop(pop).region;
    counts[static_cast<int>(node.region)][static_cast<int>(pop_region)]++;
    diagonal += pop_region == geo::expected_pop_region(node.region);
  }

  util::TextTable table{{"origin region", "requests", "->EU", "->US", "->AP", "->OC"}};
  for (int region = 0; region < geo::kWorldRegionCount; ++region) {
    int total = 0;
    for (int pr = 0; pr < geo::kPopRegionCount; ++pr) total += counts[region][pr];
    if (total == 0) continue;
    std::vector<std::string> row{
        std::string{to_string(static_cast<geo::WorldRegion>(region))}, std::to_string(total)};
    for (int pr = 0; pr < geo::kPopRegionCount; ++pr) {
      row.push_back(util::format_percent(double(counts[region][pr]) / total, 1));
    }
    table.add_row(row);
  }
  std::cout << "Fig 7 - ingress PoP region by request origin region (" << requests
            << " anycast TURN requests):\n";
  table.print(std::cout);
  std::cout << "\ngeography-following share (origin region -> its expected PoP region): "
            << util::format_percent(double(diagonal) / requests, 1) << '\n'
            << "paper: incoming traffic follows geography to a large extent\n";
  bench::metric("requests", std::uint64_t(requests));
  bench::metric("geography_following_share", double(diagonal) / requests);
  bench::finish_run(args, 0.0);
  return 0;
}
