// The Loc-RIB oracle: an answer for "which PoP does traffic for this
// address egress at, seen from this PoP?" computed without the compiled
// FIB — longest-prefix match over the overlay's known prefixes
// (VnsNetwork::match_prefix), then the viewpoint router's best route
// (Router::best_route), then the PoP of that route's egress router
// (VnsNetwork::pop_of_router).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bgp/fabric.hpp"
#include "core/vns_network.hpp"

namespace perfbench {

[[nodiscard]] std::optional<vns::core::PopId> oracle_egress(const vns::core::VnsNetwork& vns,
                                                            vns::core::PopId viewpoint,
                                                            vns::net::Ipv4Address address);

/// Running count of verified answers.
struct OracleTally {
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  /// Records one answer; returns whether it agrees with the oracle.  An
  /// unrouted answer is wrong only when the oracle has a route; a routed
  /// answer must name the oracle's PoP.
  bool record(const vns::core::VnsNetwork& vns, vns::core::PopId viewpoint,
              vns::net::Ipv4Address address, std::optional<vns::core::PopId> answer);
};

/// Follows the fabric's RIB-delta log from a cursor of its own, so after
/// each update it can name the prefixes that update dirtied at each
/// viewpoint router.
class DeltaFollower {
 public:
  explicit DeltaFollower(const vns::core::VnsNetwork& vns);

  struct Update {
    /// False when the log was trimmed past the cursor: the dirty sets are
    /// unknown and a full check is owed.
    bool complete = true;
    std::uint64_t deltas = 0;  ///< Loc-RIB changes logged, all routers
    /// Distinct prefixes dirtied at each PoP's viewpoint router.
    std::vector<std::vector<vns::net::Ipv4Prefix>> per_pop;
    /// Distinct prefixes dirtied at any viewpoint router.
    std::size_t distinct = 0;
  };
  /// Consumes every delta logged since the previous call.
  [[nodiscard]] Update consume();

 private:
  const vns::core::VnsNetwork& vns_;
  std::vector<vns::bgp::RouterId> viewpoints_;  ///< per PoP
  std::uint64_t cursor_ = 0;
};

/// Post-update verification: every prefix the update dirtied at a PoP is
/// resolved there through egress_pop and checked, plus a fixed sample of
/// addresses at every PoP.  With an incomplete delta view every known
/// prefix is checked everywhere.  Returns whether all answers matched.
bool verify_after_update(const vns::core::VnsNetwork& vns, const DeltaFollower::Update& update,
                         std::span<const vns::net::Ipv4Address> sample, OracleTally& tally);

}  // namespace perfbench
