// Deterministic load assignment (DESIGN §14): routes the traffic matrix
// over the overlay's internal shortest paths and produces per-link
// utilization — the numbers PathModel's capacity curves and the offload
// policy key on.
//
// Determinism: demand cells are walked ingress-major / egress-minor and
// accumulated into link slots in that fixed order, so the snapshot is
// bit-identical regardless of thread count anywhere else in the process.
// Accumulation *saturates* — offered load and utilization are clamped to
// finite ceilings, and non-finite intermediate values collapse to the cap,
// so no NaN/inf can escape into gauges or BENCH json no matter how far past
// capacity the matrix is driven.
#pragma once

#include <cstdint>
#include <vector>

#include "core/vns_network.hpp"
#include "traffic/matrix.hpp"

namespace vns::traffic {

/// Ceiling of any accumulated offered load (Mbps) — far above any sane
/// matrix, low enough that sums of caps stay finite.
inline constexpr double kMaxOfferedMbps = 1e15;

/// One time bucket's per-link load picture.
struct LoadSnapshot {
  double t = 0.0;
  /// Offered load per overlay circuit, indexed like VnsNetwork::links().
  std::vector<double> link_offered_mbps;
  /// Saturating offered/capacity per circuit, same indexing — exactly the
  /// span VnsNetwork::internal_segments takes as `link_utilization`.
  std::vector<double> link_utilization;
  /// WAN egress load per (neighbor AS, PoP) attachment, indexed like
  /// VnsNetwork::attachments(); zero for peering attachments.
  std::vector<double> attachment_offered_mbps;
  std::vector<double> attachment_utilization;
  double routed_mbps = 0.0;    ///< demand that found an internal path
  double unrouted_mbps = 0.0;  ///< demand stranded by partitions/downed PoPs
  std::uint64_t links_loaded = 0;  ///< circuits with nonzero offered load
  double util_p50 = 0.0;           ///< median circuit utilization
  double util_max = 0.0;
};

struct AssignmentConfig {
  /// Snapshot clamp on utilization: the loss/delay curves saturate at
  /// SegmentProfile::util_saturation anyway, this only bounds the reported
  /// gauge values under absurd overload.
  double utilization_cap = 64.0;
};

/// Routes `matrix` demand at time t over the overlay and returns the load
/// picture.  Egressing demand additionally lands on the egress PoP's
/// upstream transit attachments, split evenly (the overlay's outbound WAN
/// ports).  Deterministic in (vns, matrix, t, config); the pass's summary
/// is also recorded in the metrics registry's traffic block.
[[nodiscard]] LoadSnapshot assign_load(const core::VnsNetwork& vns, const Matrix& matrix,
                                       double t, const AssignmentConfig& config = {});

}  // namespace vns::traffic
