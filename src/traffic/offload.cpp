#include "traffic/offload.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace vns::traffic {

namespace {

[[nodiscard]] double clamped_util(double offered, double capacity, double cap) noexcept {
  if (capacity <= 0.0) return 0.0;
  const double util = offered / capacity;
  if (!std::isfinite(util) || util > cap) return cap;
  return util < 0.0 ? 0.0 : util;
}

}  // namespace

OffloadReport OffloadPolicy::evaluate(const core::VnsNetwork& vns, const Matrix& matrix,
                                      double t, LoadSnapshot& snapshot) const {
  OffloadReport report;
  const auto links = vns.links();
  const auto attachments = vns.attachments();
  const std::size_t pop_count = vns.pops().size();
  // The snapshot's own clamp is unknown here; reuse the assignment default.
  const double util_cap = AssignmentConfig{}.utilization_cap;
  const double upstream_capacity = vns.config().upstream_capacity_mbps;

  std::vector<std::vector<std::size_t>> pop_upstreams(pop_count);
  for (std::size_t i = 0; i < attachments.size(); ++i) {
    if (attachments[i].upstream) pop_upstreams[attachments[i].pop].push_back(i);
  }

  // Per-cell state, computed lazily: demand still eligible to move (a cell
  // crossed by two hot circuits must not be moved twice) and the probe
  // result (one measurement per cell, reused across circuits).
  std::vector<double> remaining(pop_count * pop_count, -1.0);
  std::vector<char> probed(pop_count * pop_count, 0);
  std::vector<PathQuality> quality(pop_count * pop_count);

  const double flow = std::max(config_.flow_mbps, 1e-9);
  std::vector<std::size_t> hops;
  for (std::size_t li = 0; li < links.size(); ++li) {
    if (!links[li].long_haul || !links[li].up) continue;
    const double capacity = links[li].capacity_mbps;
    if (capacity <= 0.0) continue;
    if (snapshot.link_utilization[li] <= config_.threshold) continue;
    const double floor_mbps = config_.target * capacity;
    for (core::PopId ingress = 0;
         ingress < pop_count && snapshot.link_offered_mbps[li] > floor_mbps; ++ingress) {
      for (core::PopId egress = 0;
           egress < pop_count && snapshot.link_offered_mbps[li] > floor_mbps; ++egress) {
        if (ingress == egress) continue;
        const std::size_t cell = static_cast<std::size_t>(ingress) * pop_count + egress;
        if (remaining[cell] < 0.0) {
          const double demand = matrix.demand_mbps(ingress, egress, t);
          remaining[cell] = std::isfinite(demand) ? std::max(demand, 0.0) : kMaxOfferedMbps;
        }
        if (remaining[cell] <= 0.0) continue;
        // Does this cell actually ride the hot circuit?
        const auto path = vns.internal_path(ingress, egress);
        hops.clear();
        bool complete = path.size() >= 2;
        bool crosses = false;
        for (std::size_t i = 0; complete && i + 1 < path.size(); ++i) {
          const auto link = vns.link_index(path[i], path[i + 1]);
          if (!link || !links[*link].up) {
            complete = false;
            break;
          }
          crosses |= *link == li;
          hops.push_back(*link);
        }
        if (!complete || !crosses) continue;
        if (probed[cell] == 0) {
          quality[cell] = probe_ ? probe_(ingress, egress) : PathQuality{};
          probed[cell] = 1;
        }
        const double excess = snapshot.link_offered_mbps[li] - floor_mbps;
        const double want = std::min(remaining[cell], excess);
        if (want <= 0.0) continue;
        const auto flows = static_cast<std::uint64_t>(std::ceil(want / flow));

        OffloadDecision decision;
        decision.ingress = ingress;
        decision.egress = egress;
        decision.link = li;
        decision.flows = flows;
        decision.internet = quality[cell];
        const bool clears_floor = quality[cell].valid &&
                                  quality[cell].loss <= config_.qoe_max_loss &&
                                  quality[cell].rtt_ms <= config_.qoe_max_rtt_ms;
        if (!clears_floor) {
          report.rejected_flows += flows;
          report.decisions.push_back(decision);
          continue;
        }
        // Move whole flows, never more than the cell still carries.
        const double moved = std::min(remaining[cell], static_cast<double>(flows) * flow);
        decision.accepted = true;
        decision.moved_mbps = moved;
        remaining[cell] -= moved;
        // The flows exit VNS at the ingress now: off every backbone circuit
        // of the cell's path, onto the ingress PoP's transit ports, off the
        // egress PoP's.
        std::uint64_t long_haul_hops = 0;
        for (const auto hop : hops) {
          snapshot.link_offered_mbps[hop] =
              std::max(0.0, snapshot.link_offered_mbps[hop] - moved);
          snapshot.link_utilization[hop] = clamped_util(snapshot.link_offered_mbps[hop],
                                                        links[hop].capacity_mbps, util_cap);
          long_haul_hops += links[hop].long_haul;
        }
        auto shift_ports = [&](const std::vector<std::size_t>& ports, double delta) {
          if (ports.empty()) return;
          const double per_port = delta / static_cast<double>(ports.size());
          for (const auto port : ports) {
            snapshot.attachment_offered_mbps[port] =
                std::max(0.0, snapshot.attachment_offered_mbps[port] + per_port);
            snapshot.attachment_utilization[port] = clamped_util(
                snapshot.attachment_offered_mbps[port], upstream_capacity, util_cap);
          }
        };
        shift_ports(pop_upstreams[egress], -moved);
        shift_ports(pop_upstreams[ingress], moved);
        report.offloaded_flows += flows;
        report.moved_mbps += moved;
        // Bytes the leased WAN no longer carries: the moved rate, over the
        // accounting window, per long-haul circuit it used to traverse.
        report.wan_bytes_saved += moved * static_cast<double>(long_haul_hops) * 1e6 / 8.0 *
                                  config_.window_s;
        report.decisions.push_back(decision);
      }
    }
  }

  // Refresh the snapshot's summary fields to the post-offload picture.
  snapshot.links_loaded = 0;
  for (const double offered : snapshot.link_offered_mbps) snapshot.links_loaded += offered > 0.0;
  snapshot.util_p50 = util::quantile(snapshot.link_utilization, 0.5);
  snapshot.util_max =
      snapshot.link_utilization.empty()
          ? 0.0
          : *std::max_element(snapshot.link_utilization.begin(),
                              snapshot.link_utilization.end());

  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::metric("traffic.offloaded_flows"), report.offloaded_flows);
  metrics.add(obs::metric("traffic.rejected_flows"), report.rejected_flows);
  metrics.add_real(obs::metric("traffic.wan_bytes_saved"), report.wan_bytes_saved);
  return report;
}

}  // namespace vns::traffic
