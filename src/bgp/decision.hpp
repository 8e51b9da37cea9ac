// The BGP best-path decision process (RFC 4271 §9.1.2.2 plus universal
// vendor practice), exactly the tie-break ladder §3.2 of the paper walks
// through:
//
//   1. highest LOCAL_PREF                  (administrative preference)
//   2. shortest AS_PATH                    (rough QoS proxy)
//   3. lowest ORIGIN                       (IGP < EGP < INCOMPLETE)
//   4. lowest MED, same neighbor AS only
//   5. eBGP-learned over iBGP-learned      (leave the AS quickly...)
//   6. lowest IGP metric to the NEXT_HOP   (...i.e. hot-potato routing)
//   7. lowest advertising-router id        (deterministic final tie-break)
//
// The geo-RR's entire effect (step 1 dominating steps 5–6) is visible here:
// raising LOCAL_PREF above the default freezes the ladder at step 1 and
// converts hot-potato into cold-potato egress selection.
#pragma once

#include <cstdint>
#include <span>

#include "bgp/igp.hpp"
#include "bgp/types.hpp"

namespace vns::bgp {

/// Which rung of the ladder decided a comparison — exposed for diagnostics
/// and for the ablation benches.
enum class DecisionRung : std::uint8_t {
  kLocalPref,
  kAsPathLength,
  kOrigin,
  kMed,
  kEbgpOverIbgp,
  kIgpMetric,
  kRouterId,
  kEqual,
};

[[nodiscard]] const char* to_string(DecisionRung rung) noexcept;

/// Context the deciding router evaluates candidates in.
struct DecisionContext {
  RouterId self = kInvalidRouter;     ///< deciding router
  const IgpTopology* igp = nullptr;   ///< for the hot-potato rung (may be null)
};

/// Returns true when `a` is preferred over `b` at the deciding router.
/// `rung_out`, when non-null, receives the rung that decided.
[[nodiscard]] bool prefer(const Route& a, const Route& b, const DecisionContext& ctx,
                          DecisionRung* rung_out = nullptr);

/// The egress routers whose IGP metrics a select_best scan compared: both
/// sides of every comparison settled at the IGP-metric rung or below.
/// `prefer` reads the IGP only through the order (<, =, >) of the deciding
/// router's metrics to those egresses, so an IGP change that keeps their
/// pairwise order replays the same scan to the same winner.  One word, so a
/// decision records it without allocating: bit i is router i, and the top
/// bit stands for any egress the mask cannot hold (ids >= kCapacity, or no
/// egress), which makes the set match every IGP change.
class TieSet {
 public:
  static constexpr RouterId kCapacity = 63;

  void insert(RouterId egress) noexcept {
    bits_ |= egress < kCapacity ? std::uint64_t{1} << egress : kUnrepresentable;
  }
  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }
  /// True when an egress fell outside the mask: every IGP change moves it.
  [[nodiscard]] bool always_revisit() const noexcept {
    return (bits_ & kUnrepresentable) != 0;
  }
  [[nodiscard]] std::uint64_t bits() const noexcept { return bits_; }

  friend bool operator==(TieSet, TieSet) = default;

 private:
  static constexpr std::uint64_t kUnrepresentable = std::uint64_t{1} << kCapacity;
  std::uint64_t bits_ = 0;
};

/// True when some pair of `ties` compares differently (<, =, >) in the
/// deciding router's metric row `before` than in `after` (both indexed by
/// router id) — i.e. when re-running the decision could pick differently.
/// Always true for an always-revisit set.
[[nodiscard]] bool tie_order_moved(TieSet ties, std::span<const IgpMetric> before,
                                   std::span<const IgpMetric> after) noexcept;

/// Index of the best route among candidates (empty span -> SIZE_MAX).
/// `ties_out`, when non-null, receives the scan's tie set (see TieSet):
/// empty when every comparison was settled above the IGP rung, so no IGP
/// cost change can flip the outcome.
///
/// The pointer-span form is the zero-copy hot path: Router::candidates()
/// hands out views into the Adj-RIB-In instead of materialized copies.
[[nodiscard]] std::size_t select_best(std::span<const Route* const> candidates,
                                      const DecisionContext& ctx,
                                      TieSet* ties_out = nullptr);
/// Convenience over owned routes (tests/benches); builds a view vector.
[[nodiscard]] std::size_t select_best(std::span<const Route> candidates,
                                      const DecisionContext& ctx,
                                      TieSet* ties_out = nullptr);

// --- decision provenance -----------------------------------------------------
//
// The decision is a pure function of RIB state, so provenance is recomputed
// on demand (Router::explain) rather than stored per selection — the fast
// path stays exactly as fast, and the trace can never drift out of sync with
// the loc-RIB.

/// The absolute difference between two routes at one rung: LOCAL_PREF points,
/// AS-path hops, origin steps, MED units, IGP metric, router-id distance
/// (1 for the eBGP-over-iBGP rung, 0 at kEqual).  For the geo rung this is
/// what `margin * lp_km_per_point` kilometres of egress advantage look like.
[[nodiscard]] std::int64_t margin_at(const Route& a, const Route& b, DecisionRung rung,
                                     const DecisionContext& ctx);

/// One losing candidate: which rung eliminated it against the winner and by
/// what margin at that rung.
struct CandidateVerdict {
  Route route;
  DecisionRung lost_at = DecisionRung::kEqual;
  std::int64_t margin = 0;
};

/// Full provenance of one best-path selection.
struct DecisionTrace {
  bool has_best = false;
  Route best;
  /// Losers, strongest first (the preference order the ladder induces).
  std::vector<CandidateVerdict> eliminated;
  /// Rung that separated the winner from the strongest runner-up; kEqual
  /// when the winner ran unopposed.
  DecisionRung decisive = DecisionRung::kEqual;
  std::int64_t decisive_margin = 0;
  /// Candidates were suppressed for an IGP-unreachable NEXT_HOP (they are
  /// absent from `eliminated` — they never reached the ladder).
  bool candidates_dropped_unreachable = false;
};

/// Runs the full ladder over `candidates` and explains the outcome.  Agrees
/// with select_best on the winner; eliminated candidates are ordered by
/// preference (deterministic for any input order — kEqual ties cannot occur
/// between distinct advertisements).
[[nodiscard]] DecisionTrace trace_decision(std::span<const Route* const> candidates,
                                           const DecisionContext& ctx);
/// Convenience over owned routes (tests/benches); builds a view vector.
[[nodiscard]] DecisionTrace trace_decision(std::span<const Route> candidates,
                                           const DecisionContext& ctx);

}  // namespace vns::bgp
