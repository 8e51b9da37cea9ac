// Ablation: capacity-aware WAN offload (DESIGN §14).
//
// Drives the metro traffic matrix at an offered load that pushes the
// long-haul leased circuits past the offload threshold at the diurnal peak,
// then lets traffic::OffloadPolicy move whole conferencing flows onto
// Internet transit wherever the measured transit-path quality clears the
// QoE floor.  The bench quantifies the trade the policy makes:
//
//   - wan_bytes_saved — leased-circuit bytes kept off the long-hauls over
//     the accounting window;
//   - QoE before/after — demand-weighted expected loss and RTT over every
//     backbone cell, with moved flows charged the *measured* Internet-path
//     quality instead of the (now cooler) backbone path.
//
// Everything is deterministic for a given seed: the matrix build is
// chunk-sharded with fixed substreams, assignment walks cells in fixed
// order, and each demand cell's Internet probe runs on its own derived RNG.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "measure/prober.hpp"
#include "sim/path_model.hpp"
#include "sim/time.hpp"
#include "traffic/assignment.hpp"
#include "traffic/matrix.hpp"
#include "traffic/offload.hpp"
#include "util/table.hpp"

using namespace vns;

namespace {

/// Demand-weighted QoE of the whole backbone at time t under a given load
/// snapshot, with per-cell overrides for flows moved to the Internet.
struct QoeSummary {
  double demand_mbps = 0.0;
  double mean_loss = 0.0;
  double mean_rtt_ms = 0.0;
};

/// Expected loss / base+queue RTT of the internal path S->E under the
/// snapshot's utilization.  Horizon 0 keeps burst timelines out of it: the
/// number is the stationary expectation the policy reasons about, not one
/// noisy draw.
std::pair<double, double> backbone_quality(const measure::Workbench& world,
                                           core::PopId ingress, core::PopId egress,
                                           double t,
                                           const traffic::LoadSnapshot& snapshot,
                                           std::uint64_t seed) {
  auto segments =
      world.vns().internal_segments(ingress, egress, world.catalog(),
                                    snapshot.link_utilization);
  if (segments.empty()) return {0.0, 0.0};
  const sim::PathModel path{std::move(segments), 0.0,
                            util::Rng{seed}.fork("qoe").fork(
                                std::uint64_t{ingress} << 16 | egress)};
  return {path.loss_probability(t), path.base_rtt_ms() + path.utilization_queue_ms()};
}

QoeSummary weigh_qoe(const measure::Workbench& world, const traffic::Matrix& matrix,
                     double t, const traffic::LoadSnapshot& snapshot,
                     const std::vector<double>& moved_mbps,
                     const std::vector<traffic::PathQuality>& internet,
                     std::uint64_t seed) {
  const std::size_t pop_count = matrix.pop_count();
  QoeSummary out;
  double loss_weighted = 0.0;
  double rtt_weighted = 0.0;
  for (core::PopId s = 0; s < pop_count; ++s) {
    for (core::PopId e = 0; e < pop_count; ++e) {
      if (s == e) continue;
      const double demand = matrix.demand_mbps(s, e, t);
      if (demand <= 0.0) continue;
      const std::size_t cell = std::size_t{s} * pop_count + e;
      const auto [loss, rtt] = backbone_quality(world, s, e, t, snapshot, seed);
      const double moved =
          moved_mbps.empty() ? 0.0 : std::min(moved_mbps[cell], demand);
      const double kept = demand - moved;
      out.demand_mbps += demand;
      loss_weighted += kept * loss;
      rtt_weighted += kept * rtt;
      if (moved > 0.0 && internet[cell].valid) {
        loss_weighted += moved * internet[cell].loss;
        rtt_weighted += moved * internet[cell].rtt_ms;
      } else {
        loss_weighted += moved * loss;
        rtt_weighted += moved * rtt;
      }
    }
  }
  if (out.demand_mbps > 0.0) {
    out.mean_loss = loss_weighted / out.demand_mbps;
    out.mean_rtt_ms = rtt_weighted / out.demand_mbps;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  auto world = bench::build_world(
      args, "bench_ablation_wan_offload",
      "ablation: capacity-aware WAN offload (DESIGN S14)");
  auto& vns = world->vns();
  const auto campaign_t0 = std::chrono::steady_clock::now();

  // ---- build the matrix ---------------------------------------------------
  // Default offered load: hot enough that the busiest long-haul clears the
  // threshold at the diurnal peak.  The gravity matrix is diagonal-heavy
  // (most users' egress is their ingress PoP), so only a sliver of the total
  // crosses any one circuit — hence the large multiplier.
  traffic::MatrixConfig mconfig;
  mconfig.offered_load_mbps =
      args.offered_load_mbps > 0.0
          ? args.offered_load_mbps
          : 48.0 * vns.config().long_haul_capacity_mbps;
  mconfig.seed = args.seed * 1315423911ULL + 17;
  mconfig.threads = args.threads;
  const auto matrix = traffic::Matrix::build(vns, world->internet(), mconfig);

  // Busiest half-hour of the day: scan the diurnal curve for the instant of
  // maximum total offered load — the snapshot the circuits are sized for.
  double peak_t = 0.0;
  double peak_total = -1.0;
  for (int slot = 0; slot < 48; ++slot) {
    const double t = 1800.0 * slot;
    double total = 0.0;
    for (core::PopId s = 0; s < matrix.pop_count(); ++s)
      for (core::PopId e = 0; e < matrix.pop_count(); ++e)
        if (s != e) total += matrix.demand_mbps(s, e, t);
    if (total > peak_total) {
      peak_total = total;
      peak_t = t;
    }
  }
  std::cout << "offered load " << util::format_double(mconfig.offered_load_mbps, 0)
            << " Mbps at peak; busiest instant "
            << util::format_double(peak_t / sim::kSecondsPerHour, 1) << " h UTC ("
            << util::format_double(peak_total, 0) << " Mbps offered)\n";

  // ---- assign + snapshot the hot state ------------------------------------
  auto snapshot = traffic::assign_load(vns, matrix, peak_t);
  const auto before = snapshot;  // pre-offload picture for the QoE delta

  // ---- the Internet-transit quality probe ---------------------------------
  // For a cell the policy wants to move, probe the representative prefix's
  // local-exit transit path from the ingress PoP: a 500-packet train for
  // loss, a 5-ping burst for min RTT — each cell on its own derived RNG so
  // decisions never depend on evaluation order elsewhere.
  const std::uint64_t probe_seed = args.seed ^ 0x0ff10adULL;
  traffic::QualityProbe probe = [&](core::PopId ingress,
                                    core::PopId egress) -> traffic::PathQuality {
    traffic::PathQuality quality;
    const auto rep = matrix.representative_prefix(ingress, egress);
    if (!rep) return quality;
    auto segments = world->probe_segments(ingress, *rep, /*include_last_mile=*/false,
                                          /*upstreams_only=*/true);
    if (segments.empty()) return quality;
    util::Rng cell_rng = util::Rng{probe_seed}.fork(
        std::uint64_t{ingress} << 16 | egress);
    const sim::PathModel path{std::move(segments), 0.0, cell_rng.fork("path")};
    measure::Prober prober{cell_rng.fork("probe")};
    const auto train = prober.train(path, peak_t, 500);
    const auto ping = prober.ping(path, peak_t, 5);
    quality.valid = true;
    quality.loss = train.loss_fraction();
    quality.rtt_ms = ping.min_rtt_ms.value_or(path.base_rtt_ms());
    return quality;
  };

  // ---- evaluate the policy ------------------------------------------------
  traffic::OffloadConfig oconfig;
  oconfig.threshold = args.offload_threshold;
  oconfig.target = std::min(0.75, args.offload_threshold);
  const traffic::OffloadPolicy policy{oconfig, probe};
  const auto report = policy.evaluate(vns, matrix, peak_t, snapshot);

  // ---- long-haul utilization, before vs after -----------------------------
  util::TextTable links{{"circuit", "capacity", "util before", "util after", "state"}};
  for (std::size_t i = 0; i < vns.links().size(); ++i) {
    const auto& link = vns.links()[i];
    if (!link.long_haul) continue;
    const double util_before = before.link_utilization[i];
    const double util_after = snapshot.link_utilization[i];
    const char* state = util_before < oconfig.threshold ? "cool"
                        : util_after <= oconfig.target + 1e-9
                            ? "relieved"
                            : "still hot";
    links.add_row({std::string{vns.pops()[link.a].name} + "-" +
                       std::string{vns.pops()[link.b].name},
                   util::format_double(link.capacity_mbps, 0) + " Mbps",
                   util::format_percent(util_before),
                   util::format_percent(util_after), state});
  }
  std::cout << "\nlong-haul circuits at the peak:\n";
  links.print(std::cout);

  // ---- per-decision detail ------------------------------------------------
  util::TextTable decisions{
      {"cell", "verdict", "flows", "moved", "inet loss", "inet rtt"}};
  for (const auto& d : report.decisions) {
    decisions.add_row(
        {std::string{vns.pops()[d.ingress].name} + "->" +
             std::string{vns.pops()[d.egress].name},
         d.accepted ? "offload" : "reject (QoE)",
         std::to_string(d.flows),
         util::format_double(d.moved_mbps, 0) + " Mbps",
         d.internet.valid ? util::format_percent(d.internet.loss) : "n/a",
         d.internet.valid ? util::format_double(d.internet.rtt_ms, 1) + " ms" : "n/a"});
  }
  if (!report.decisions.empty()) {
    std::cout << "\noffload decisions (evaluation order):\n";
    decisions.print(std::cout);
  } else {
    std::cout << "\nno long-haul crossed the " << util::format_percent(oconfig.threshold)
              << " threshold — nothing to offload\n";
  }

  // ---- QoE accounting -----------------------------------------------------
  const std::size_t pop_count = matrix.pop_count();
  std::vector<double> moved_mbps(pop_count * pop_count, 0.0);
  std::vector<traffic::PathQuality> internet(pop_count * pop_count);
  for (const auto& d : report.decisions) {
    if (!d.accepted) continue;
    const std::size_t cell = std::size_t{d.ingress} * pop_count + d.egress;
    moved_mbps[cell] += d.moved_mbps;
    internet[cell] = d.internet;
  }
  const auto qoe_before =
      weigh_qoe(*world, matrix, peak_t, before, {}, internet, args.seed);
  const auto qoe_after =
      weigh_qoe(*world, matrix, peak_t, snapshot, moved_mbps, internet, args.seed);

  std::cout << "\nQoE (demand-weighted over all backbone cells):\n"
            << "  expected loss: " << util::format_percent(qoe_before.mean_loss)
            << " -> " << util::format_percent(qoe_after.mean_loss) << "\n"
            << "  expected rtt:  " << util::format_double(qoe_before.mean_rtt_ms, 2)
            << " ms -> " << util::format_double(qoe_after.mean_rtt_ms, 2) << " ms\n"
            << "\nwan offload: " << report.offloaded_flows << " flows moved ("
            << util::format_double(report.moved_mbps, 0) << " Mbps), "
            << report.rejected_flows << " held back by the QoE floor, "
            << util::format_double(report.wan_bytes_saved / 1e9, 2)
            << " GB of leased-circuit bytes saved per "
            << util::format_double(oconfig.window_s / 3600.0, 0) << " h window\n";

  const double campaign_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - campaign_t0)
                                .count();

  auto& record = bench::BenchRecord::global();
  record.config("offered_load_mbps", mconfig.offered_load_mbps);
  record.config("offload_threshold", oconfig.threshold);
  record.config("offload_target", oconfig.target);
  bench::metric("peak_hour_utc", peak_t / sim::kSecondsPerHour);
  bench::metric("peak_offered_mbps", peak_total);
  bench::metric("util_max_before", before.util_max);
  bench::metric("util_max_after", snapshot.util_max);
  bench::metric("unrouted_mbps", snapshot.unrouted_mbps);
  bench::metric("offloaded_flows", report.offloaded_flows);
  bench::metric("rejected_flows", report.rejected_flows);
  bench::metric("moved_mbps", report.moved_mbps);
  bench::metric("wan_bytes_saved", report.wan_bytes_saved);
  bench::metric("qoe_loss_before", qoe_before.mean_loss);
  bench::metric("qoe_loss_after", qoe_after.mean_loss);
  bench::metric("qoe_rtt_before_ms", qoe_before.mean_rtt_ms);
  bench::metric("qoe_rtt_after_ms", qoe_after.mean_rtt_ms);
  // Every circuit's utilization at the peak, before the offload.
  for (std::size_t i = 0; i < vns.links().size(); ++i) {
    const auto& link = vns.links()[i];
    bench::metric("util_before." + vns.pops()[link.a].name + "-" + vns.pops()[link.b].name,
                  before.link_utilization[i]);
  }

  bench::finish_run(args, campaign_s);
  return 0;
}
