#include "bgp/igp.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace vns::bgp {

void IgpTopology::resize(std::size_t router_count) {
  adjacency_.assign(router_count, {});
  distance_.assign(router_count, {});
  predecessor_.assign(router_count, {});
  computed_.assign(router_count, false);
}

void IgpTopology::ensure_size(std::size_t router_count) {
  if (router_count <= adjacency_.size()) return;
  adjacency_.resize(router_count);
  distance_.resize(router_count);
  predecessor_.resize(router_count);
  computed_.assign(router_count, false);
}

IgpTopology::Edge* IgpTopology::find_edge(RouterId from, RouterId to) {
  for (auto& edge : adjacency_[from]) {
    if (edge.to == to) return &edge;
  }
  return nullptr;
}

void IgpTopology::add_link(RouterId a, RouterId b, IgpMetric metric) {
  assert(a < adjacency_.size() && b < adjacency_.size() && a != b);
  // Keep at most one edge per pair: a live edge retains the lower metric, a
  // downed edge is revived with the new one.
  auto upsert = [&](RouterId from, RouterId to) {
    if (Edge* edge = find_edge(from, to)) {
      edge->metric = edge->up ? std::min(edge->metric, metric) : metric;
      edge->up = true;
      return;
    }
    adjacency_[from].push_back({to, metric, true});
  };
  upsert(a, b);
  upsert(b, a);
  std::fill(computed_.begin(), computed_.end(), false);  // invalidate caches
  ++version_;
}

bool IgpTopology::remove_link(RouterId a, RouterId b) {
  if (a >= adjacency_.size() || b >= adjacency_.size()) return false;
  Edge* ab = find_edge(a, b);
  if (ab == nullptr || !ab->up) return false;
  Edge* ba = find_edge(b, a);
  assert(ba != nullptr && ba->up);
  ab->up = false;
  ba->up = false;
  // A non-tree edge cannot carry any shortest path, so removing it leaves a
  // source's distances and (deterministic) predecessors untouched; only
  // sources whose tree crosses a–b must recompute.
  for (std::size_t s = 0; s < computed_.size(); ++s) {
    if (!computed_[s]) continue;
    if (predecessor_[s][b] == a || predecessor_[s][a] == b) {
      computed_[s] = false;
    } else {
      ++caches_preserved_;
    }
  }
  ++version_;
  return true;
}

bool IgpTopology::restore_link(RouterId a, RouterId b) {
  if (a >= adjacency_.size() || b >= adjacency_.size()) return false;
  Edge* ab = find_edge(a, b);
  if (ab == nullptr || ab->up) return false;
  Edge* ba = find_edge(b, a);
  assert(ba != nullptr && !ba->up);
  const IgpMetric m = ab->metric;
  ab->up = true;
  ba->up = true;
  // The restored edge matters to a source only when it improves a distance,
  // or re-ties one with a lower predecessor id (the deterministic tie rule
  // means a fresh run would then pick the restored edge).
  auto affects = [&](const std::vector<IgpMetric>& dist,
                     const std::vector<RouterId>& pred, RouterId u, RouterId v) {
    if (dist[u] == kUnreachable) return false;
    const IgpMetric through = dist[u] > kUnreachable - m ? kUnreachable : dist[u] + m;
    if (through < dist[v]) return true;
    return through == dist[v] && u < pred[v];
  };
  for (std::size_t s = 0; s < computed_.size(); ++s) {
    if (!computed_[s]) continue;
    if (affects(distance_[s], predecessor_[s], a, b) ||
        affects(distance_[s], predecessor_[s], b, a)) {
      computed_[s] = false;
    } else {
      ++caches_preserved_;
    }
  }
  ++version_;
  return true;
}

bool IgpTopology::has_link(RouterId a, RouterId b) const noexcept {
  if (a >= adjacency_.size()) return false;
  return std::any_of(adjacency_[a].begin(), adjacency_[a].end(),
                     [&](const Edge& e) { return e.to == b && e.up; });
}

std::vector<RouterId> IgpTopology::up_neighbors(RouterId id) const {
  std::vector<RouterId> out;
  if (id >= adjacency_.size()) return out;
  for (const auto& edge : adjacency_[id]) {
    if (edge.up) out.push_back(edge.to);
  }
  return out;
}

void IgpTopology::run_dijkstra(RouterId source) const {
  const std::size_t n = adjacency_.size();
  auto& dist = distance_[source];
  auto& pred = predecessor_[source];
  dist.assign(n, kUnreachable);
  pred.assign(n, kInvalidRouter);
  dist[source] = 0;

  using Item = std::pair<IgpMetric, RouterId>;  // (distance, router)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;
  frontier.push({0, source});
  while (!frontier.empty()) {
    const auto [d, u] = frontier.top();
    frontier.pop();
    if (d > dist[u]) continue;  // stale entry, already settled closer
    ++expansions_;
    for (const auto& edge : adjacency_[u]) {
      if (!edge.up) continue;
      const IgpMetric candidate = d + edge.metric;
      if (candidate < dist[edge.to]) {
        dist[edge.to] = candidate;
        pred[edge.to] = u;
        frontier.push({candidate, edge.to});
      } else if (candidate == dist[edge.to] && u < pred[edge.to]) {
        // Equal-cost tie broken toward the lower predecessor id.  Only the
        // predecessor changes — the distance is already settled — so the
        // node must not be re-queued (re-queueing re-expanded entire
        // equal-distance subtrees for no routing effect).
        pred[edge.to] = u;
      }
    }
  }
  computed_[source] = true;
}

IgpMetric IgpTopology::metric(RouterId from, RouterId to) const {
  assert(from < adjacency_.size() && to < adjacency_.size());
  if (from == to) return 0;
  if (!computed_[from]) run_dijkstra(from);
  return distance_[from][to];
}

std::span<const IgpMetric> IgpTopology::distances(RouterId from) const {
  assert(from < adjacency_.size());
  if (!computed_[from]) run_dijkstra(from);
  return distance_[from];
}

std::vector<RouterId> IgpTopology::shortest_path(RouterId from, RouterId to) const {
  assert(from < adjacency_.size() && to < adjacency_.size());
  if (!computed_[from]) run_dijkstra(from);
  std::vector<RouterId> path;
  if (from != to && predecessor_[from][to] == kInvalidRouter) return path;  // unreachable
  for (RouterId hop = to; hop != kInvalidRouter && hop != from;
       hop = predecessor_[from][hop]) {
    path.push_back(hop);
  }
  path.push_back(from);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace vns::bgp
