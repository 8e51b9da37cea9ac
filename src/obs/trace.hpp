// Fabric tracing: an opt-in, fixed-capacity ring buffer of control-plane
// events — BGP update/withdraw deliveries, export sink writes, in-flight
// drops, session/link/router fault transitions, loc-RIB changes and
// convergence boundaries.
//
// Events are stamped with *logical* time: the bgp::Fabric's monotonic event
// counter (one tick per external announce/withdraw and per fault operation;
// inside run_to_convergence, one tick per *batch* — every message of a
// frontier batch shares its batch's tick), never wall-clock.  `queue_depth`
// is always stamped *after* the event's own emissions are enqueued (for
// in-batch events: messages remaining in the batch plus the next frontier
// so far).  The convergence engine delivers each batch in a fixed
// shard-major walk order, so a trace is bit-identical across runs and
// across any `--threads` value — the campaigns' determinism contract
// extends to observability.
//
// Cost model: a fabric with no sink attached pays exactly one null-pointer
// test per message (verified by BM_FabricAnnouncementConvergence[Traced] in
// bench_perf_microbench); with a sink attached, one bounded-ring write per
// event.  When the ring fills, the oldest events are overwritten and
// `overwritten()` counts what was lost — tracing never grows without bound
// and never throws on the hot path.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "net/ip.hpp"

namespace vns::obs {

/// What happened.  `a` / `b` are context-dependent 32-bit ids (router ids,
/// neighbor ids, counts) documented per kind below.
enum class TraceEventKind : std::uint8_t {
  kAnnounce,            ///< external announce entered the fabric; a=neighbor, b=border router
  kWithdrawIn,          ///< external withdraw entered the fabric; a=neighbor, b=border router
  kUpdateDelivered,     ///< iBGP update delivered; a=from router, b=to router
  kWithdrawDelivered,   ///< iBGP withdraw delivered; a=from router, b=to router
  kExportUpdate,        ///< update written to an external neighbor; a=from router, b=neighbor
  kExportWithdraw,      ///< withdraw written to an external neighbor; a=from router, b=neighbor
  kMessageDropped,      ///< in-flight message discarded (session down); a=from, b=target
  kLocRibChanged,       ///< a router's best route changed; a=router, b=new egress (or kNone)
  kIbgpSessionDown,     ///< a=router, b=peer router
  kIbgpSessionUp,       ///< a=router, b=peer router
  kEbgpSessionDown,     ///< a=border router, b=neighbor
  kEbgpSessionUp,       ///< a=border router, b=neighbor
  kLinkDown,            ///< IGP link failed; a,b = endpoints
  kLinkUp,              ///< IGP link restored; a,b = endpoints
  kRouterDown,          ///< whole-router outage; a=router
  kRouterUp,            ///< router restored; a=router
  kConvergeBegin,       ///< run_to_convergence entered with work queued; a=queue depth
  kConvergeEnd,         ///< fabric quiescent; a=messages processed this run
};

[[nodiscard]] const char* to_string(TraceEventKind kind) noexcept;

/// Sentinel for an absent id field.
inline constexpr std::uint32_t kNoTraceId = ~std::uint32_t{0};

struct TraceEvent {
  std::uint64_t when = 0;  ///< fabric logical time
  TraceEventKind kind = TraceEventKind::kAnnounce;
  std::uint32_t a = kNoTraceId;
  std::uint32_t b = kNoTraceId;
  net::Ipv4Prefix prefix{};        ///< 0.0.0.0/0 when not prefix-scoped
  std::uint32_t queue_depth = 0;   ///< pending work after this event's emissions enqueued

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Per-prefix convergence timeline distilled from a trace: first time the
/// prefix entered the fabric, last time any loc-RIB changed for it, how many
/// messages it took, and the deepest queue it saw along the way.
struct ConvergenceTimeline {
  net::Ipv4Prefix prefix{};
  std::uint64_t first_event = 0;
  std::uint64_t last_rib_change = 0;
  std::uint64_t messages = 0;  ///< deliveries (announce/update/withdraw/export)
  std::uint64_t drops = 0;
  std::uint32_t max_queue_depth = 0;

  /// Logical settle time: first announce -> last loc-RIB change.
  [[nodiscard]] std::uint64_t settle_ticks() const noexcept {
    return last_rib_change >= first_event ? last_rib_change - first_event : 0;
  }
};

class TraceSink {
 public:
  /// `capacity` bounds the ring; the oldest events are overwritten when full.
  explicit TraceSink(std::size_t capacity = 65536);

  void record(const TraceEvent& event);

  /// Events currently held, oldest first (at most `capacity()` of them).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Everything ever recorded, including what the ring later overwrote.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return recorded_ - size_;
  }

  void clear();

  /// Count of held events of one kind (diagnostics/tests).
  [[nodiscard]] std::size_t count(TraceEventKind kind) const;

  /// Per-prefix convergence timelines over the held events, sorted by
  /// prefix (deterministic).  Events without a prefix scope are skipped.
  [[nodiscard]] std::vector<ConvergenceTimeline> convergence_timelines() const;

  /// One `{"type":"trace_event",...}` JSON object per line, oldest first,
  /// then one `{"type":"convergence",...}` line per prefix timeline.
  void write_jsonl(std::ostream& out) const;
  [[nodiscard]] std::string to_jsonl() const;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write slot
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace vns::obs
