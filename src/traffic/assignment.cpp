#include "traffic/assignment.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace vns::traffic {

namespace {

/// Saturating accumulate: non-finite inputs and overflowing sums collapse
/// to the ceiling instead of propagating NaN/inf into the snapshot.
[[nodiscard]] double sat_add(double acc, double add) noexcept {
  const double sum = acc + add;
  if (!std::isfinite(sum) || sum > kMaxOfferedMbps) return kMaxOfferedMbps;
  return sum < 0.0 ? 0.0 : sum;
}

[[nodiscard]] double sat_util(double offered, double capacity, double cap) noexcept {
  if (capacity <= 0.0) return 0.0;
  const double util = offered / capacity;
  if (!std::isfinite(util) || util > cap) return cap;
  return util < 0.0 ? 0.0 : util;
}

}  // namespace

LoadSnapshot assign_load(const core::VnsNetwork& vns, const Matrix& matrix, double t,
                         const AssignmentConfig& config) {
  LoadSnapshot snap;
  snap.t = t;
  const auto links = vns.links();
  const auto attachments = vns.attachments();
  const std::size_t pop_count = vns.pops().size();
  snap.link_offered_mbps.assign(links.size(), 0.0);
  snap.attachment_offered_mbps.assign(attachments.size(), 0.0);

  // Upstream transit ports per PoP, in attachment order (fixed).
  std::vector<std::vector<std::size_t>> pop_upstreams(pop_count);
  for (std::size_t i = 0; i < attachments.size(); ++i) {
    if (attachments[i].upstream) pop_upstreams[attachments[i].pop].push_back(i);
  }

  // Ingress-major / egress-minor: the fixed accumulation order behind the
  // bit-identical-for-any-thread-count guarantee.
  std::vector<std::size_t> hops;
  for (core::PopId ingress = 0; ingress < pop_count; ++ingress) {
    for (core::PopId egress = 0; egress < pop_count; ++egress) {
      double demand = matrix.demand_mbps(ingress, egress, t);
      if (!(demand > 0.0)) continue;  // also drops NaN demand
      if (!std::isfinite(demand) || demand > kMaxOfferedMbps) demand = kMaxOfferedMbps;
      if (ingress != egress) {
        const auto path = vns.internal_path(ingress, egress);
        hops.clear();
        bool complete = path.size() >= 2;
        for (std::size_t i = 0; complete && i + 1 < path.size(); ++i) {
          const auto link = vns.link_index(path[i], path[i + 1]);
          if (!link || !links[*link].up) {
            complete = false;
            break;
          }
          hops.push_back(*link);
        }
        if (!complete) {
          snap.unrouted_mbps = sat_add(snap.unrouted_mbps, demand);
          continue;
        }
        for (const auto link : hops) {
          snap.link_offered_mbps[link] = sat_add(snap.link_offered_mbps[link], demand);
        }
      }
      snap.routed_mbps = sat_add(snap.routed_mbps, demand);
      // Egressing demand leaves through the egress PoP's purchased transit
      // ports, split evenly (peering split is below this model's resolution).
      const auto& ports = pop_upstreams[egress];
      if (!ports.empty()) {
        const double per_port = demand / static_cast<double>(ports.size());
        for (const auto port : ports) {
          snap.attachment_offered_mbps[port] =
              sat_add(snap.attachment_offered_mbps[port], per_port);
        }
      }
    }
  }

  snap.link_utilization.resize(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    snap.link_utilization[i] = sat_util(snap.link_offered_mbps[i], links[i].capacity_mbps,
                                        config.utilization_cap);
    snap.links_loaded += snap.link_offered_mbps[i] > 0.0;
  }
  const double upstream_capacity = vns.config().upstream_capacity_mbps;
  snap.attachment_utilization.resize(attachments.size());
  for (std::size_t i = 0; i < attachments.size(); ++i) {
    snap.attachment_utilization[i] = sat_util(snap.attachment_offered_mbps[i],
                                              attachments[i].upstream ? upstream_capacity : 0.0,
                                              config.utilization_cap);
  }
  snap.util_p50 = util::quantile(snap.link_utilization, 0.5);
  snap.util_max =
      snap.link_utilization.empty()
          ? 0.0
          : *std::max_element(snap.link_utilization.begin(), snap.link_utilization.end());

  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::metric("traffic.assignments"));
  metrics.set(obs::metric("traffic.links_loaded"), snap.links_loaded);
  metrics.set_real(obs::metric("traffic.util_p50"), snap.util_p50);
  metrics.set_real(obs::metric("traffic.util_max"), snap.util_max);
  metrics.set_real(obs::metric("traffic.unrouted_mbps"), snap.unrouted_mbps);
  return snap;
}

}  // namespace vns::traffic
