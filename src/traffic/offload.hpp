// The WAN-offload policy (DESIGN §14): when a dedicated long-haul runs hot,
// move eligible flows onto Internet transit — but only when the measured
// Internet-path quality clears a QoE floor, so saving leased-circuit bytes
// never silently trades away the conferencing experience the overlay exists
// to protect.
//
// The policy is deliberately decoupled from the measurement layer: callers
// inject a QualityProbe (the bench wires it to measure::Prober over the
// workbench's local-exit transit paths), so traffic:: depends only on core.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/vns_network.hpp"
#include "traffic/assignment.hpp"
#include "traffic/matrix.hpp"

namespace vns::traffic {

/// Measured quality of the Internet-transit alternative for one
/// (ingress, egress) demand cell.
struct PathQuality {
  bool valid = false;   ///< false: no transit route / probe failed
  double loss = 0.0;    ///< measured loss fraction
  double rtt_ms = 0.0;  ///< measured RTT
};

/// Returns the Internet-path quality for flows that would leave VNS
/// immediately at `ingress` instead of riding the backbone to `egress`.
using QualityProbe =
    std::function<PathQuality(core::PopId ingress, core::PopId egress)>;

struct OffloadConfig {
  /// Long-haul utilization that arms the policy for that circuit.
  double threshold = 0.85;
  /// Offload until the circuit drops back to this utilization.
  double target = 0.75;
  /// QoE floor the Internet path must clear: measured loss at most this...
  double qoe_max_loss = 0.02;
  /// ...and measured RTT at most this.
  double qoe_max_rtt_ms = 300.0;
  /// Granularity of a move: one conferencing flow's bandwidth (Mbps).
  double flow_mbps = 4.0;
  /// Accounting window for wan_bytes_saved (seconds at the moved rate).
  double window_s = 3600.0;
};

/// One evaluated (ingress, egress) candidate on an overloaded circuit.
struct OffloadDecision {
  core::PopId ingress = core::kNoPop;
  core::PopId egress = core::kNoPop;
  std::size_t link = 0;  ///< index into links(): the circuit that triggered it
  bool accepted = false;
  std::uint64_t flows = 0;     ///< flows moved (accepted) or held back (rejected)
  double moved_mbps = 0.0;     ///< 0 when rejected
  PathQuality internet;        ///< the measured alternative
};

struct OffloadReport {
  std::vector<OffloadDecision> decisions;  ///< in evaluation order (fixed)
  std::uint64_t offloaded_flows = 0;
  std::uint64_t rejected_flows = 0;
  double moved_mbps = 0.0;
  double wan_bytes_saved = 0.0;  ///< long-haul bytes avoided over window_s
};

class OffloadPolicy {
 public:
  OffloadPolicy(OffloadConfig config, QualityProbe probe)
      : config_(config), probe_(std::move(probe)) {}

  /// Walks long-haul circuits in link order; for each one above threshold,
  /// walks crossing demand cells ingress-major and moves whole flows to
  /// Internet transit while the probe clears the QoE floor, until the
  /// circuit is back at `target`.  Mutates `snapshot` in place: moved load
  /// leaves every link of the cell's internal path and lands on the
  /// *ingress* PoP's upstream ports instead.  Deterministic: fixed
  /// evaluation order, no RNG.  The report's flow moves and WAN bytes saved
  /// accumulate in the metrics registry's traffic block.
  [[nodiscard]] OffloadReport evaluate(const core::VnsNetwork& vns, const Matrix& matrix,
                                       double t, LoadSnapshot& snapshot) const;

  [[nodiscard]] const OffloadConfig& config() const noexcept { return config_; }

 private:
  OffloadConfig config_;
  QualityProbe probe_;
};

}  // namespace vns::traffic
