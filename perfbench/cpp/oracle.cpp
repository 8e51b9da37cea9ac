#include "oracle.hpp"

#include <algorithm>

namespace perfbench {

std::optional<vns::core::PopId> oracle_egress(const vns::core::VnsNetwork& vns,
                                              vns::core::PopId viewpoint,
                                              vns::net::Ipv4Address address) {
  const auto prefix = vns.match_prefix(address);
  if (!prefix) return std::nullopt;
  const auto& router = vns.fabric().router(vns.pop(viewpoint).routers.front());
  const vns::bgp::Route* route = router.best_route(*prefix);
  if (route == nullptr || route->egress >= vns.fabric().router_count()) return std::nullopt;
  const vns::core::PopId pop = vns.pop_of_router(route->egress);
  if (pop == vns::core::kNoPop) return std::nullopt;
  return pop;
}

bool OracleTally::record(const vns::core::VnsNetwork& vns, vns::core::PopId viewpoint,
                         vns::net::Ipv4Address address,
                         std::optional<vns::core::PopId> answer) {
  ++checked;
  const bool ok = answer == oracle_egress(vns, viewpoint, address);
  if (!ok) ++wrong;
  return ok;
}

DeltaFollower::DeltaFollower(const vns::core::VnsNetwork& vns) : vns_(vns) {
  for (const auto& pop : vns.pops()) viewpoints_.push_back(pop.routers.front());
  cursor_ = vns.fabric().rib_deltas_since(0).next_cursor;
}

DeltaFollower::Update DeltaFollower::consume() {
  const auto log = vns_.fabric().rib_deltas_since(cursor_);
  cursor_ = log.next_cursor;
  Update update;
  update.complete = log.complete;
  update.deltas = log.deltas.size();
  update.per_pop.resize(viewpoints_.size());
  std::vector<vns::net::Ipv4Prefix> all;
  for (const auto& delta : log.deltas) {
    for (std::size_t p = 0; p < viewpoints_.size(); ++p) {
      if (delta.router == viewpoints_[p]) {
        update.per_pop[p].push_back(delta.prefix);
        all.push_back(delta.prefix);
      }
    }
  }
  for (auto& dirty : update.per_pop) {
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  }
  std::sort(all.begin(), all.end());
  update.distinct =
      static_cast<std::size_t>(std::unique(all.begin(), all.end()) - all.begin());
  return update;
}

bool verify_after_update(const vns::core::VnsNetwork& vns, const DeltaFollower::Update& update,
                         std::span<const vns::net::Ipv4Address> sample, OracleTally& tally) {
  const std::uint64_t wrong_before = tally.wrong;
  const auto known = vns.known_prefix_log();
  for (const auto& pop : vns.pops()) {
    const auto check = [&](vns::net::Ipv4Address address) {
      tally.record(vns, pop.id, address, vns.egress_pop(pop.id, address));
    };
    if (update.complete) {
      for (const auto& prefix : update.per_pop[pop.id]) check(prefix.first_host());
    } else {
      for (const auto& prefix : known) check(prefix.first_host());
    }
    for (const auto address : sample) check(address);
  }
  return tally.wrong == wrong_before;
}

}  // namespace perfbench
