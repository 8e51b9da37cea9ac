// Intra-AS IGP: a weighted undirected graph over the AS's routers with
// all-pairs shortest-path metrics (Dijkstra per source, computed lazily and
// cached).  The BGP decision process consumes these metrics in its
// hot-potato tie-break (RFC 4271 §9.1.2.2.e: "lowest interior cost to the
// NEXT_HOP"), and the data-plane model consumes the corresponding paths to
// compute intra-overlay propagation delay.
//
// Links can fail and come back (`remove_link` / `restore_link`): a downed
// link keeps its slot and metric but is skipped by every query, so a
// fail→restore cycle returns the topology — and, because tie-breaks are
// deterministic, every cached SPF answer — to its exact pre-fault state.
// Each change bumps `version()` so consumers holding derived state (e.g.
// routers that resolved next hops through this topology) can detect churn.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "bgp/types.hpp"

namespace vns::bgp {

/// Metric value; kUnreachable for disconnected pairs.
using IgpMetric = std::uint32_t;
inline constexpr IgpMetric kUnreachable = std::numeric_limits<IgpMetric>::max();

class IgpTopology {
 public:
  /// Creates a topology over `router_count` routers and no links.
  explicit IgpTopology(std::size_t router_count = 0) { resize(router_count); }

  void resize(std::size_t router_count);
  /// Grows to at least `router_count` routers, preserving existing links.
  void ensure_size(std::size_t router_count);
  [[nodiscard]] std::size_t router_count() const noexcept { return adjacency_.size(); }

  /// Adds (or tightens) an undirected link with the given metric.  Re-adding
  /// a downed link revives it with the new metric.
  void add_link(RouterId a, RouterId b, IgpMetric metric);

  /// Marks the link down (it keeps its metric for later restoration).
  /// Returns false when no such link is up.  SPF caches are invalidated
  /// incrementally: only sources whose shortest-path tree crossed the link.
  bool remove_link(RouterId a, RouterId b);

  /// Brings a previously removed link back with its original metric.
  /// Returns false when there is no such downed link.  Invalidates only
  /// sources the restored link can improve (or re-tie deterministically).
  bool restore_link(RouterId a, RouterId b);

  /// Monotonic counter bumped by every topology change (add/remove/restore).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Shortest-path metric; 0 for a==b, kUnreachable when disconnected.
  [[nodiscard]] IgpMetric metric(RouterId from, RouterId to) const;

  /// `from`'s whole SPF distance row, indexed by router id: metric(from, i)
  /// for every i.  Valid until the next topology change.
  [[nodiscard]] std::span<const IgpMetric> distances(RouterId from) const;

  /// Routers on the shortest path from `from` to `to`, inclusive of both
  /// endpoints; empty when unreachable.  Ties break toward lower router ids,
  /// deterministically.
  [[nodiscard]] std::vector<RouterId> shortest_path(RouterId from, RouterId to) const;

  /// True when an *up* link joins a and b.
  [[nodiscard]] bool has_link(RouterId a, RouterId b) const noexcept;

  /// Neighbors of `id` over up links, in insertion order.
  [[nodiscard]] std::vector<RouterId> up_neighbors(RouterId id) const;

  /// Total Dijkstra node expansions across all runs since construction.
  /// With non-negative metrics every node settles exactly once, so one run
  /// expands at most router_count() nodes — regression guard against the
  /// equal-cost re-queueing bug that re-expanded settled subtrees.
  [[nodiscard]] std::uint64_t dijkstra_expansions() const noexcept { return expansions_; }

  /// SPF cache entries kept valid across remove/restore events (the payoff
  /// of incremental invalidation; full invalidation would score zero).
  [[nodiscard]] std::uint64_t spf_caches_preserved() const noexcept {
    return caches_preserved_;
  }

 private:
  struct Edge {
    RouterId to;
    IgpMetric metric;
    bool up = true;
  };

  void run_dijkstra(RouterId source) const;
  [[nodiscard]] Edge* find_edge(RouterId from, RouterId to);

  std::vector<std::vector<Edge>> adjacency_;
  std::uint64_t version_ = 0;
  // Lazily filled per-source distance and predecessor tables.
  mutable std::vector<std::vector<IgpMetric>> distance_;
  mutable std::vector<std::vector<RouterId>> predecessor_;
  mutable std::vector<bool> computed_;
  mutable std::uint64_t expansions_ = 0;
  std::uint64_t caches_preserved_ = 0;
};

}  // namespace vns::bgp
