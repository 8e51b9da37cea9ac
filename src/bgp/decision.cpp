#include "bgp/decision.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>

namespace vns::bgp {

const char* to_string(DecisionRung rung) noexcept {
  switch (rung) {
    case DecisionRung::kLocalPref: return "local-pref";
    case DecisionRung::kAsPathLength: return "as-path-length";
    case DecisionRung::kOrigin: return "origin";
    case DecisionRung::kMed: return "med";
    case DecisionRung::kEbgpOverIbgp: return "ebgp-over-ibgp";
    case DecisionRung::kIgpMetric: return "igp-metric";
    case DecisionRung::kRouterId: return "router-id";
    case DecisionRung::kEqual: return "equal";
  }
  return "unknown";
}

bool prefer(const Route& a, const Route& b, const DecisionContext& ctx,
            DecisionRung* rung_out) {
  auto decided = [&](DecisionRung rung, bool result) {
    if (rung_out != nullptr) *rung_out = rung;
    return result;
  };

  // 0. Locally originated routes win outright (vendor "weight" behaviour).
  if (a.locally_originated != b.locally_originated) {
    return decided(DecisionRung::kLocalPref, a.locally_originated);
  }
  // 1. Highest LOCAL_PREF.
  if (a.attrs().local_pref != b.attrs().local_pref) {
    return decided(DecisionRung::kLocalPref, a.attrs().local_pref > b.attrs().local_pref);
  }
  // 2. Shortest AS_PATH.
  if (a.attrs().as_path.length() != b.attrs().as_path.length()) {
    return decided(DecisionRung::kAsPathLength,
                   a.attrs().as_path.length() < b.attrs().as_path.length());
  }
  // 3. Lowest ORIGIN.
  if (a.attrs().origin != b.attrs().origin) {
    return decided(DecisionRung::kOrigin, a.attrs().origin < b.attrs().origin);
  }
  // 4. Lowest MED, comparable only between routes from the same neighbor AS.
  if (a.attrs().as_path.first_hop() == b.attrs().as_path.first_hop() &&
      a.attrs().med != b.attrs().med) {
    return decided(DecisionRung::kMed, a.attrs().med < b.attrs().med);
  }
  // 5. Prefer eBGP-learned over iBGP-learned.
  if (a.learned_via_ebgp != b.learned_via_ebgp) {
    return decided(DecisionRung::kEbgpOverIbgp, a.learned_via_ebgp);
  }
  // 6. Lowest IGP metric to the NEXT_HOP (hot potato).
  if (ctx.igp != nullptr && ctx.self != kInvalidRouter && a.egress != kInvalidRouter &&
      b.egress != kInvalidRouter) {
    const IgpMetric metric_a = ctx.igp->metric(ctx.self, a.egress);
    const IgpMetric metric_b = ctx.igp->metric(ctx.self, b.egress);
    if (metric_a != metric_b) {
      return decided(DecisionRung::kIgpMetric, metric_a < metric_b);
    }
  }
  // 7. Lowest advertising-router id, then lowest neighbor id: deterministic.
  if (a.advertiser != b.advertiser) {
    return decided(DecisionRung::kRouterId, a.advertiser < b.advertiser);
  }
  if (a.neighbor != b.neighbor) {
    return decided(DecisionRung::kRouterId, a.neighbor < b.neighbor);
  }
  return decided(DecisionRung::kEqual, false);
}

bool tie_order_moved(TieSet ties, std::span<const IgpMetric> before,
                     std::span<const IgpMetric> after) noexcept {
  // An egress the rows do not cover is as unknown as one the mask cannot hold.
  if (ties.always_revisit() || before.size() != after.size() ||
      std::bit_width(ties.bits()) > before.size()) {
    return true;
  }
  const auto order = [](IgpMetric x, IgpMetric y) { return (x > y) - (x < y); };
  for (std::uint64_t rest = ties.bits(); rest != 0; rest &= rest - 1) {
    const auto a = static_cast<std::size_t>(std::countr_zero(rest));
    for (std::uint64_t others = rest & (rest - 1); others != 0; others &= others - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(others));
      if (order(before[a], before[b]) != order(after[a], after[b])) return true;
    }
  }
  return false;
}

std::size_t select_best(std::span<const Route* const> candidates, const DecisionContext& ctx,
                        TieSet* ties_out) {
  if (ties_out != nullptr) *ties_out = TieSet{};
  if (candidates.empty()) return static_cast<std::size_t>(-1);
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const Route& challenger = *candidates[i];
    const Route& incumbent = *candidates[best];
    DecisionRung rung = DecisionRung::kEqual;
    if (prefer(challenger, incumbent, ctx, &rung)) best = i;
    // Every rung from the IGP metric down was reached only because all the
    // rungs above tied, so this comparison's outcome is a function of the
    // two egresses' metric order (the router-id rung means they tied).
    if (ties_out != nullptr && rung >= DecisionRung::kIgpMetric) {
      ties_out->insert(challenger.egress);
      ties_out->insert(incumbent.egress);
    }
  }
  return best;
}

namespace {

std::int64_t abs_diff(std::int64_t a, std::int64_t b) noexcept {
  return a > b ? a - b : b - a;
}

std::vector<const Route*> as_views(std::span<const Route> candidates) {
  std::vector<const Route*> views;
  views.reserve(candidates.size());
  for (const Route& route : candidates) views.push_back(&route);
  return views;
}

}  // namespace

std::size_t select_best(std::span<const Route> candidates, const DecisionContext& ctx,
                        TieSet* ties_out) {
  const auto views = as_views(candidates);
  return select_best(std::span<const Route* const>{views}, ctx, ties_out);
}

std::int64_t margin_at(const Route& a, const Route& b, DecisionRung rung,
                       const DecisionContext& ctx) {
  switch (rung) {
    case DecisionRung::kLocalPref:
      // The locally-originated short-circuit also lands here; its margin is
      // the LOCAL_PREF gap (possibly 0 — "won on origination alone").
      return abs_diff(a.attrs().local_pref, b.attrs().local_pref);
    case DecisionRung::kAsPathLength:
      return abs_diff(static_cast<std::int64_t>(a.attrs().as_path.length()),
                      static_cast<std::int64_t>(b.attrs().as_path.length()));
    case DecisionRung::kOrigin:
      return abs_diff(static_cast<std::int64_t>(a.attrs().origin),
                      static_cast<std::int64_t>(b.attrs().origin));
    case DecisionRung::kMed:
      return abs_diff(a.attrs().med, b.attrs().med);
    case DecisionRung::kEbgpOverIbgp:
      return 1;
    case DecisionRung::kIgpMetric:
      if (ctx.igp != nullptr && ctx.self != kInvalidRouter &&
          a.egress != kInvalidRouter && b.egress != kInvalidRouter) {
        return abs_diff(static_cast<std::int64_t>(ctx.igp->metric(ctx.self, a.egress)),
                        static_cast<std::int64_t>(ctx.igp->metric(ctx.self, b.egress)));
      }
      return 0;
    case DecisionRung::kRouterId:
      if (a.advertiser != b.advertiser) {
        return abs_diff(static_cast<std::int64_t>(a.advertiser),
                        static_cast<std::int64_t>(b.advertiser));
      }
      return abs_diff(static_cast<std::int64_t>(a.neighbor),
                      static_cast<std::int64_t>(b.neighbor));
    case DecisionRung::kEqual:
      return 0;
  }
  return 0;
}

DecisionTrace trace_decision(std::span<const Route* const> candidates,
                             const DecisionContext& ctx) {
  DecisionTrace trace;
  if (candidates.empty()) return trace;

  // The winner comes from select_best so explain can never disagree with the
  // loc-RIB.  (`prefer` alone is not a strict weak ordering — the MED rung
  // compares only within one neighbor AS — so a global sort over it would be
  // ill-defined; ranking each loser against the winner is always sound.)
  const std::size_t best = select_best(candidates, ctx);
  trace.has_best = true;
  trace.best = *candidates[best];

  trace.eliminated.reserve(candidates.size() - 1);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i == best) continue;
    CandidateVerdict verdict;
    verdict.route = *candidates[i];
    (void)prefer(trace.best, *candidates[i], ctx, &verdict.lost_at);
    verdict.margin = margin_at(trace.best, *candidates[i], verdict.lost_at, ctx);
    trace.eliminated.push_back(std::move(verdict));
  }

  // Strongest challenger first: the route that survived to the deepest rung
  // against the winner, by the smallest margin.  The final key is a total
  // order over the route's identity so the ranking is deterministic no
  // matter how the RIB enumerated the candidates.
  std::stable_sort(trace.eliminated.begin(), trace.eliminated.end(),
                   [](const CandidateVerdict& x, const CandidateVerdict& y) {
                     if (x.lost_at != y.lost_at) {
                       return static_cast<std::uint8_t>(x.lost_at) >
                              static_cast<std::uint8_t>(y.lost_at);
                     }
                     if (x.margin != y.margin) return x.margin < y.margin;
                     const Route& a = x.route;
                     const Route& b = y.route;
                     if (a.attrs().local_pref != b.attrs().local_pref) {
                       return a.attrs().local_pref > b.attrs().local_pref;
                     }
                     if (a.advertiser != b.advertiser) return a.advertiser < b.advertiser;
                     return a.neighbor < b.neighbor;
                   });
  if (!trace.eliminated.empty()) {
    trace.decisive = trace.eliminated.front().lost_at;
    trace.decisive_margin = trace.eliminated.front().margin;
  }
  return trace;
}

DecisionTrace trace_decision(std::span<const Route> candidates, const DecisionContext& ctx) {
  const auto views = as_views(candidates);
  return trace_decision(std::span<const Route* const>{views}, ctx);
}

}  // namespace vns::bgp
