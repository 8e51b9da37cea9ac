#include "bgp/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace vns::bgp {

namespace {

bool has_ibgp_session(const Router& r, RouterId peer) {
  for (const auto& session : r.ibgp_sessions()) {
    if (session.peer == peer) return true;
  }
  return false;
}

/// splitmix64 finisher over (address, length).  Deliberately not std::hash:
/// the shard walk fixes the delivery order, so the partition must be
/// identical across platforms and standard libraries.
std::size_t shard_of(const net::Ipv4Prefix& prefix) noexcept {
  std::uint64_t x = (std::uint64_t{prefix.address().value()} << 8) | prefix.length();
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % kConvergenceShards);
}

}  // namespace

void Fabric::trace_event(obs::TraceEventKind kind, std::uint32_t a, std::uint32_t b,
                         const net::Ipv4Prefix& prefix) {
  if (trace_ == nullptr) return;
  obs::TraceEvent event;
  event.when = logical_time_;
  event.kind = kind;
  event.a = a;
  event.b = b;
  event.prefix = prefix;
  event.queue_depth = static_cast<std::uint32_t>(batch_pending_ + queue_.size());
  trace_->record(event);
}

std::optional<Route> Fabric::capture_best(const Router& target,
                                          const net::Ipv4Prefix& prefix) const {
  // Copy (not point at) the pre-delivery best: the handler mutates loc_rib_.
  std::optional<Route> before;
  if (const Route* r = target.best_route(prefix); r != nullptr) before = *r;
  return before;
}

void Fabric::trace_rib_change(const Router& target, const net::Ipv4Prefix& prefix,
                              const std::optional<Route>& before) {
  const Route* after = target.best_route(prefix);
  const bool changed = before.has_value() != (after != nullptr) ||
                       (before.has_value() && after != nullptr && !(*before == *after));
  if (changed) {
    trace_event(obs::TraceEventKind::kLocRibChanged, target.id(),
                after != nullptr ? after->egress : obs::kNoTraceId, prefix);
  }
}

RouterId Fabric::add_router(std::string name) {
  const auto id = static_cast<RouterId>(routers_.size());
  routers_.push_back(std::make_unique<Router>(id, std::move(name), local_asn_));
  igp_.ensure_size(routers_.size());
  routers_.back()->set_igp(&igp_);
  router_down_.push_back(false);
  return id;
}

void Fabric::add_ibgp_session(RouterId a, RouterId b) {
  router(a).add_ibgp_session(b, /*peer_is_client=*/false);
  router(b).add_ibgp_session(a, /*peer_is_client=*/false);
}

void Fabric::add_rr_client_session(RouterId rr, RouterId client) {
  router(rr).set_route_reflector(true);
  router(rr).add_ibgp_session(client, /*peer_is_client=*/true);
  router(client).add_ibgp_session(rr, /*peer_is_client=*/false);
}

NeighborId Fabric::add_neighbor(RouterId attached_to, net::Asn asn, NeighborKind kind,
                                std::string name) {
  NeighborInfo info;
  info.id = static_cast<NeighborId>(neighbors_.size());
  info.asn = asn;
  info.kind = kind;
  info.attached_to = attached_to;
  info.name = std::move(name);
  neighbors_.push_back(info);
  neighbor_exports_.emplace_back();
  router(attached_to).add_ebgp_session(info);
  return info.id;
}

void Fabric::announce(NeighborId from, const net::Ipv4Prefix& prefix, Attributes attrs) {
  announce(from, prefix, AttrTable::global().intern(std::move(attrs)));
}

void Fabric::announce(NeighborId from, const net::Ipv4Prefix& prefix, const AttrRef& attrs) {
  const NeighborInfo& info = neighbor(from);
  Router& target = router(info.attached_to);
  if (!target.session_is_up(SessionKind::kEbgp, from)) {
    throw std::logic_error("announce on downed eBGP session " + info.name);
  }
  ++logical_time_;
  Route route;
  route.prefix = prefix;
  route.set_attrs(attrs);
  const std::optional<Route> before =
      trace_ != nullptr ? capture_best(target, prefix) : std::nullopt;
  enqueue(target.handle_ebgp_update(info, /*withdraw=*/false, std::move(route), &delta_log_));
  // Stamped after the enqueue so queue_depth covers the emissions this
  // announce triggered, matching what delivery events report.
  trace_event(obs::TraceEventKind::kAnnounce, from, info.attached_to, prefix);
  if (trace_ != nullptr) trace_rib_change(target, prefix, before);
}

void Fabric::withdraw(NeighborId from, const net::Ipv4Prefix& prefix) {
  const NeighborInfo& info = neighbor(from);
  Router& target = router(info.attached_to);
  if (!target.session_is_up(SessionKind::kEbgp, from)) {
    throw std::logic_error("withdraw on downed eBGP session " + info.name);
  }
  ++logical_time_;
  Route route;
  route.prefix = prefix;
  const std::optional<Route> before =
      trace_ != nullptr ? capture_best(target, prefix) : std::nullopt;
  enqueue(target.handle_ebgp_update(info, /*withdraw=*/true, std::move(route), &delta_log_));
  trace_event(obs::TraceEventKind::kWithdrawIn, from, info.attached_to, prefix);
  if (trace_ != nullptr) trace_rib_change(target, prefix, before);
}

void Fabric::originate(RouterId at, const net::Ipv4Prefix& prefix, Attributes attrs) {
  ++logical_time_;
  Router& target = router(at);
  const std::optional<Route> before =
      trace_ != nullptr ? capture_best(target, prefix) : std::nullopt;
  enqueue(target.originate(prefix, std::move(attrs), &delta_log_));
  // Locally originated: no external neighbor, so the `a` slot is empty.
  trace_event(obs::TraceEventKind::kAnnounce, obs::kNoTraceId, at, prefix);
  if (trace_ != nullptr) trace_rib_change(target, prefix, before);
}

void Fabric::refresh_policies() {
  for (auto& r : routers_) enqueue(r->refresh_all(&delta_log_));
}

std::vector<std::vector<IgpMetric>> Fabric::live_igp_rows() const {
  std::vector<std::vector<IgpMetric>> rows(routers_.size());
  for (RouterId r = 0; r < routers_.size(); ++r) {
    if (router_down_[r]) continue;
    const auto row = igp_.distances(r);
    rows[r].assign(row.begin(), row.end());
  }
  return rows;
}

void Fabric::notify_igp_change(const std::vector<std::vector<IgpMetric>>& before) {
  for (auto& r : routers_) {
    if (!router_down_.at(r->id())) {
      enqueue(r->handle_igp_change(before.at(r->id()), &delta_log_));
    }
  }
}

bool Fabric::fail_link(RouterId a, RouterId b) {
  const auto before = live_igp_rows();
  if (!igp_.remove_link(a, b)) return false;
  ++logical_time_;
  notify_igp_change(before);
  trace_event(obs::TraceEventKind::kLinkDown, a, b);
  return true;
}

bool Fabric::restore_link(RouterId a, RouterId b) {
  const auto before = live_igp_rows();
  if (!igp_.restore_link(a, b)) return false;
  ++logical_time_;
  notify_igp_change(before);
  trace_event(obs::TraceEventKind::kLinkUp, a, b);
  return true;
}

bool Fabric::fail_session(RouterId a, RouterId b) {
  Router& ra = router(a);
  Router& rb = router(b);
  if (!ra.session_is_up(SessionKind::kIbgp, b)) return false;
  ++logical_time_;
  // Both sides flush synchronously; whatever was in flight between them is
  // dropped at delivery time because the receiving side is already down.
  enqueue(ra.handle_session_down({SessionKind::kIbgp, b}, &delta_log_));
  enqueue(rb.handle_session_down({SessionKind::kIbgp, a}, &delta_log_));
  trace_event(obs::TraceEventKind::kIbgpSessionDown, a, b);
  return true;
}

bool Fabric::restore_session(RouterId a, RouterId b) {
  Router& ra = router(a);
  Router& rb = router(b);
  if (!has_ibgp_session(ra, b) || ra.session_is_up(SessionKind::kIbgp, b)) return false;
  ++logical_time_;
  enqueue(ra.handle_session_up({SessionKind::kIbgp, b}));
  enqueue(rb.handle_session_up({SessionKind::kIbgp, a}));
  trace_event(obs::TraceEventKind::kIbgpSessionUp, a, b);
  return true;
}

bool Fabric::fail_session(NeighborId neighbor_id) {
  const NeighborInfo& info = neighbor(neighbor_id);
  Router& r = router(info.attached_to);
  if (!r.session_is_up(SessionKind::kEbgp, neighbor_id)) return false;
  ++logical_time_;
  enqueue(r.handle_session_down({SessionKind::kEbgp, neighbor_id}, &delta_log_));
  trace_event(obs::TraceEventKind::kEbgpSessionDown, info.attached_to, neighbor_id);
  // The neighbor's view of us dies with the TCP session.
  neighbor_exports_.at(neighbor_id).clear();
  return true;
}

bool Fabric::restore_session(NeighborId neighbor_id) {
  const NeighborInfo& info = neighbor(neighbor_id);
  Router& r = router(info.attached_to);
  if (r.session_is_up(SessionKind::kEbgp, neighbor_id)) return false;
  ++logical_time_;
  enqueue(r.handle_session_up({SessionKind::kEbgp, neighbor_id}));
  trace_event(obs::TraceEventKind::kEbgpSessionUp, info.attached_to, neighbor_id);
  return true;
}

void Fabric::fail_router(RouterId id) {
  if (router_down_.at(id)) return;
  ++logical_time_;
  trace_event(obs::TraceEventKind::kRouterDown, id, obs::kNoTraceId);
  DownedRouter record;
  for (const auto& session : router(id).ibgp_sessions()) {
    if (session.up) record.ibgp_peers.push_back(session.peer);
  }
  for (const auto& session : router(id).ebgp_sessions()) {
    if (session.up) record.ebgp_neighbors.push_back(session.info.id);
  }
  router_down_.at(id) = true;
  for (RouterId peer : record.ibgp_peers) fail_session(id, peer);
  for (NeighborId n : record.ebgp_neighbors) fail_session(n);
  const auto before = live_igp_rows();
  bool igp_changed = false;
  for (RouterId peer : igp_.up_neighbors(id)) {
    if (igp_.remove_link(id, peer)) {
      record.links.emplace_back(id, peer);
      igp_changed = true;
    }
  }
  if (igp_changed) notify_igp_change(before);
  downed_routers_[id] = std::move(record);
}

void Fabric::restore_router(RouterId id) {
  const auto it = downed_routers_.find(id);
  if (it == downed_routers_.end()) return;
  ++logical_time_;
  trace_event(obs::TraceEventKind::kRouterUp, id, obs::kNoTraceId);
  DownedRouter record = std::move(it->second);
  downed_routers_.erase(it);
  router_down_.at(id) = false;
  const auto before = live_igp_rows();
  bool igp_changed = false;
  for (const auto& [a, b] : record.links) igp_changed |= igp_.restore_link(a, b);
  if (igp_changed) notify_igp_change(before);
  for (RouterId peer : record.ibgp_peers) restore_session(id, peer);
  for (NeighborId n : record.ebgp_neighbors) restore_session(n);
}

void Fabric::enqueue(std::vector<Emission> emissions) {
  for (auto& emission : emissions) queue_.push_back(std::move(emission));
  // Direct mutation ops hand &delta_log_ straight to handlers and always
  // enqueue right after, so this is the one trim point they all share.
  if (delta_log_.size() > kDeltaLogCap) {
    delta_base_ += delta_log_.size();
    delta_log_.clear();
  }
}

Fabric::RibDeltas Fabric::rib_deltas_since(std::uint64_t cursor) const noexcept {
  RibDeltas result;
  result.next_cursor = delta_base_ + delta_log_.size();
  if (cursor < delta_base_ || cursor > result.next_cursor) {
    // Trimmed past the consumer (or a cursor from a different fabric): the
    // consumer must fall back to a full rebuild.
    result.complete = false;
    return result;
  }
  const std::size_t offset = static_cast<std::size_t>(cursor - delta_base_);
  result.deltas = std::span<const RibDelta>{delta_log_.data() + offset,
                                            delta_log_.size() - offset};
  return result;
}

std::string Fabric::convergence_diagnostics(std::size_t pending) const {
  std::unordered_map<net::Ipv4Prefix, std::size_t> per_prefix;
  for (const auto& emission : queue_) ++per_prefix[emission.route.prefix];
  std::vector<std::pair<net::Ipv4Prefix, std::size_t>> hottest(per_prefix.begin(),
                                                               per_prefix.end());
  std::sort(hottest.begin(), hottest.end(), [](const auto& x, const auto& y) {
    return x.second != y.second ? x.second > y.second : x.first < y.first;
  });
  std::ostringstream msg;
  msg << "BGP fabric failed to converge within message budget: " << pending
      << " messages this run, " << delivered_ << " delivered in total, queue depth "
      << queue_.size() << " across " << routers_.size() << " routers";
  if (!hottest.empty()) {
    msg << "; hottest queued prefixes:";
    for (std::size_t i = 0; i < hottest.size() && i < 3; ++i) {
      msg << ' ' << hottest[i].first.to_string() << " x" << hottest[i].second;
    }
  }
  return msg.str();
}

void Fabric::deliver(const Emission& emission) {
  const net::Ipv4Prefix& prefix = emission.route.prefix;
  if (emission.to_neighbor != kNoNeighbor) {
    const NeighborInfo& info = neighbor(emission.to_neighbor);
    if (!router(info.attached_to).session_is_up(SessionKind::kEbgp, emission.to_neighbor)) {
      ++dropped_;  // session went down with the update in flight
      trace_event(obs::TraceEventKind::kMessageDropped, emission.from, emission.to_neighbor,
                  prefix);
      return;
    }
    ++delivered_;
    trace_event(emission.withdraw ? obs::TraceEventKind::kExportWithdraw
                                  : obs::TraceEventKind::kExportUpdate,
                emission.from, emission.to_neighbor, prefix);
    // External neighbors are passive sinks: record the export.
    auto& sink = neighbor_exports_.at(emission.to_neighbor);
    if (emission.withdraw) {
      sink.erase(prefix);
    } else {
      sink[prefix] = emission.route;
    }
    return;
  }
  Router& target = router(emission.to_router);
  if (!target.session_is_up(SessionKind::kIbgp, emission.from)) {
    ++dropped_;  // receiving side tore the session down first
    trace_event(obs::TraceEventKind::kMessageDropped, emission.from, emission.to_router, prefix);
    return;
  }
  ++delivered_;
  const std::optional<Route> before =
      trace_ != nullptr ? capture_best(target, prefix) : std::nullopt;
  for (auto& em : target.handle_ibgp_update(emission.from, emission.withdraw, emission.route,
                                            &delta_log_)) {
    queue_.push_back(std::move(em));
  }
  trace_event(emission.withdraw ? obs::TraceEventKind::kWithdrawDelivered
                                : obs::TraceEventKind::kUpdateDelivered,
              emission.from, emission.to_router, prefix);
  if (trace_ != nullptr) trace_rib_change(target, prefix, before);
}

std::size_t Fabric::run_to_convergence(std::size_t max_messages) {
  const bool had_work = !queue_.empty();
  if (had_work) {
    trace_event(obs::TraceEventKind::kConvergeBegin,
                static_cast<std::uint32_t>(queue_.size()), obs::kNoTraceId);
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::vector<Emission>> shards(kConvergenceShards);
  std::size_t processed = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;

  while (!queue_.empty()) {
    const std::size_t batch_size = queue_.size();
    // Batch-atomic budget check: a batch runs in full or the run aborts with
    // the frontier intact.
    if (processed + batch_size > max_messages) {
      throw std::runtime_error(convergence_diagnostics(processed + batch_size));
    }
    ++batches;
    max_batch = std::max(max_batch, static_cast<std::uint64_t>(batch_size));
    // One logical tick per batch: every message of the batch shares it.
    ++logical_time_;

    // Walk the frontier shard-major, sequence order within each shard.  The
    // partition fixes only this order; emissions go straight to the next
    // frontier and Loc-RIB changes straight to the delta log.
    for (auto& emission : queue_) {
      shards[shard_of(emission.route.prefix)].push_back(std::move(emission));
    }
    queue_.clear();
    batch_pending_ = batch_size;
    for (const auto& shard : shards) {
      for (const Emission& emission : shard) {
        --batch_pending_;
        deliver(emission);
      }
    }
    // Release the batch only once all of it is delivered: its routes keep
    // their attribute sets live until then, and memory.attr_peak_unique
    // reports that peak.
    for (auto& shard : shards) shard.clear();
    processed += batch_size;
    if (delta_log_.size() > kDeltaLogCap) {
      delta_base_ += delta_log_.size();
      delta_log_.clear();
    }
  }

  if (had_work) {
    trace_event(obs::TraceEventKind::kConvergeEnd,
                static_cast<std::uint32_t>(processed), obs::kNoTraceId);
  }
  if (processed > 0) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add(obs::metric("convergence.runs"));
    metrics.add(obs::metric("convergence.messages"), processed);
    metrics.add(obs::metric("convergence.batches"), batches);
    metrics.raise(obs::metric("convergence.max_batch_messages"), max_batch);
    metrics.add_seconds(
        obs::metric("convergence.seconds"),
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  if (on_converged_) on_converged_();
  return processed;
}

const std::unordered_map<net::Ipv4Prefix, Route>& Fabric::exported_to(NeighborId id) const {
  return neighbor_exports_.at(id);
}

}  // namespace vns::bgp
