// The metro traffic matrix (DESIGN §14): how much conferencing load enters
// VNS at each PoP and where it leaves.
//
// Users are modelled per originated prefix — a prefix's population scales
// with its origin AS type (access-heavy CAHPs carry the most eyeballs,
// enterprise blocks the fewest) under a lognormal size jitter.  Each
// prefix's users enter VNS at the PoP geographically closest to the
// prefix's *true* host location (the anycast ingress approximation) and
// leave at the egress PoP the converged control plane actually picks for
// that prefix — the same compiled-FIB ride (VnsNetwork::egress_pop) the
// campaigns use, so the matrix automatically follows geo-routing policy,
// overrides and failures.
//
// The aggregation shards over fixed 4096-prefix chunks with per-chunk RNG
// substreams and merges partial matrices in chunk order, so the result is
// bit-identical for any --threads, including 1.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/vns_network.hpp"
#include "sim/diurnal.hpp"
#include "topo/internet.hpp"

namespace vns::traffic {

struct MatrixConfig {
  /// Total network-wide offered load (Mbps) at the diurnal peak.  0 builds
  /// an all-zero matrix: assignment then reproduces the load-free data
  /// plane byte for byte.
  double offered_load_mbps = 0.0;
  /// Mean users per originated prefix by origin AS type [LTP,STP,CAHP,EC].
  double users_per_prefix[topo::kAsTypeCount] = {1500.0, 800.0, 6000.0, 120.0};
  /// Sigma of the lognormal per-prefix population jitter (mean-1 multiplier).
  double user_jitter_sigma = 0.35;
  /// Demand modulation over the day, keyed to the *metro* clocks of the
  /// ingress and egress PoPs (conferencing follows office hours).
  sim::DiurnalProfile diurnal{0.25, 0.55, 0.35};
  std::uint64_t seed = 99;
  /// Worker count for the sharded build; <= 0 resolves VNS_THREADS.
  int threads = 0;
};

/// Prefixes per parallel chunk of Matrix::build — fixed, like
/// measure::kVantageChunk, so the substream layout never depends on the
/// thread count.
inline constexpr std::size_t kMatrixChunk = 4096;

class Matrix {
 public:
  /// Aggregates the per-prefix populations into the directed PoP-to-PoP
  /// demand shares.  Rides the published FIBs (read-only, safe from the
  /// build's worker threads), so call it on a converged network.
  [[nodiscard]] static Matrix build(const core::VnsNetwork& vns,
                                    const topo::Internet& internet,
                                    const MatrixConfig& config);

  [[nodiscard]] std::size_t pop_count() const noexcept { return pop_count_; }
  [[nodiscard]] const MatrixConfig& config() const noexcept { return config_; }
  /// Total modelled users behind all ingresses.
  [[nodiscard]] double total_users() const noexcept { return total_users_; }
  /// Users entering at one ingress PoP.
  [[nodiscard]] double users(core::PopId ingress) const;

  /// Demand (Mbps) from ingress S to egress E at the diurnal peak.
  [[nodiscard]] double peak_demand_mbps(core::PopId ingress, core::PopId egress) const;
  /// Demand (Mbps) at absolute time t: peak share scaled by the mean of the
  /// two metros' diurnal levels, normalized so the daily maximum of a
  /// same-clock pair reaches the peak demand exactly.
  [[nodiscard]] double demand_mbps(core::PopId ingress, core::PopId egress, double t) const;
  /// The [0,1] diurnal factor applied at time t for a PoP pair.
  [[nodiscard]] double modulation(core::PopId ingress, core::PopId egress, double t) const;

  /// Lowest-id prefix whose users flow through the (ingress, egress) cell —
  /// the deterministic representative the offload policy probes for
  /// Internet-path quality; nullopt for empty cells.
  [[nodiscard]] std::optional<std::size_t> representative_prefix(core::PopId ingress,
                                                                 core::PopId egress) const;

 private:
  MatrixConfig config_;
  std::size_t pop_count_ = 0;
  double total_users_ = 0.0;
  double peak_level_ = 1.0;            ///< daily max of config_.diurnal
  std::vector<double> tz_;             ///< per-PoP local clock (hours from UTC)
  std::vector<double> ingress_users_;  ///< per-PoP user mass
  std::vector<double> share_;          ///< P x P demand shares, sums to 1
  std::vector<std::size_t> rep_;       ///< P x P representative prefix (SIZE_MAX = none)
};

}  // namespace vns::traffic
