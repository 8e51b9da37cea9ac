// Ablation — loss-repair strategies on the paper's paths.
//
// §2 frames the repair design space: FEC handles random loss but fails when
// loss is bursty; relay-based selective retransmission handles bursts but
// needs a relay close to the user (low RTT).  VNS's PoPs are those relays.
// This bench runs both strategies over loss processes matching the Fig. 9
// path classes (clean VNS, random transit baseline, bursty transit) and
// over relay distances matching VNS-PoP vs remote-server placement.
#include <iostream>

#include "bench/bench_common.hpp"
#include "media/repair.hpp"

using namespace vns;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::begin_bench(args, "bench_ablation_repair",
                     "ablation: FEC vs relay retransmission (S2 discussion)");
  util::Rng rng{args.seed ^ 0xf1c5ULL};
  const std::uint64_t packets = args.scale == topo::InternetScale::kSmall ? 100000 : 400000;

  struct Scenario {
    const char* name;
    double mean_loss;
    double burst;
  };
  const Scenario scenarios[] = {
      {"VNS path (0.01% random)", 0.0001, 1.0},
      {"transit baseline (0.1% random)", 0.001, 1.0},
      {"congested transit (1% random)", 0.01, 1.0},
      {"bursty transit (1%, bursts of 10)", 0.01, 10.0},
      {"severe bursts (3%, bursts of 25)", 0.03, 25.0},
  };

  util::TextTable table{{"loss process", "raw loss", "FEC(10,1)", "FEC(10,3)",
                         "RTX via PoP (30ms)", "RTX far relay (250ms)"}};
  for (const auto& scenario : scenarios) {
    const auto fec1 = media::run_fec(scenario.mean_loss, scenario.burst, packets, {10, 1}, rng);
    const auto fec3 = media::run_fec(scenario.mean_loss, scenario.burst, packets, {10, 3}, rng);
    media::RetransmitConfig near_relay{.deadline_ms = 150.0, .relay_rtt_ms = 30.0};
    media::RetransmitConfig far_relay{.deadline_ms = 150.0, .relay_rtt_ms = 250.0};
    const auto rtx_near =
        media::run_retransmit(scenario.mean_loss, scenario.burst, packets, near_relay, rng);
    const auto rtx_far =
        media::run_retransmit(scenario.mean_loss, scenario.burst, packets, far_relay, rng);
    table.add_row({scenario.name, util::format_percent(fec1.raw_loss(), 3),
                   util::format_percent(fec1.residual_loss(), 3),
                   util::format_percent(fec3.residual_loss(), 3),
                   util::format_percent(rtx_near.residual_loss(), 3),
                   util::format_percent(rtx_far.residual_loss(), 3)});
  }
  std::cout << "residual loss after repair (" << packets << " packets per cell):\n";
  table.print(std::cout);
  std::cout << "paper (S2): FEC mitigates random loss but 'performs poorly when loss is\n"
               "very high or bursty'; retransmission needs 'a video relay server close\n"
               "to end users' - which is what VNS's PoP relays provide\n";
  bench::metric("packets_per_cell", packets);
  bench::finish_run(args, 0.0);
  return 0;
}
