// Replayable update traces: the churn side of serving mode.
//
// An UpdateTrace is an ordered list of control-plane events (route flaps,
// link and upstream-session faults) grouped into logical *batches*: the
// serve engine applies one batch per churn window, converges, and lets the
// resolver threads observe the network between windows.  Traces are
// generated deterministically from a seed (generate_trace) or loaded from a
// JSONL file (load_trace); save_trace's output is byte-identical for the
// same events regardless of thread count or wall clock — the file carries
// no timestamps — so `--record` then `--replay` reproduces the exact same
// fabric trajectory, which the tests pin down by diffing final state dumps.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "bgp/types.hpp"
#include "core/vns_network.hpp"
#include "net/ip.hpp"

namespace vns::serve {

enum class UpdateOp : std::uint8_t {
  kAnnounce,      ///< (re-)announce `prefix` on eBGP session `session`
  kWithdraw,      ///< withdraw `prefix` from session `session`
  kLinkDown,      ///< fail the dedicated circuit between PoPs `a` and `b`
  kLinkUp,        ///< restore it
  kUpstreamDown,  ///< fail upstream transit session `which` of PoP `a`
  kUpstreamUp,    ///< restore it
};

[[nodiscard]] const char* to_string(UpdateOp op) noexcept;
[[nodiscard]] std::optional<UpdateOp> parse_update_op(std::string_view text) noexcept;

/// One control-plane event.  Which fields are meaningful depends on `op`;
/// unused ones keep their defaults and are omitted from the JSONL encoding.
struct UpdateEvent {
  UpdateOp op = UpdateOp::kAnnounce;
  std::uint64_t batch = 0;  ///< logical batch tick this event belongs to
  // announce / withdraw
  bgp::NeighborId session = bgp::kNoNeighbor;
  net::Ipv4Prefix prefix;
  std::vector<net::Asn> as_path;  ///< announce only; first hop = session ASN
  std::uint32_t med = 0;          ///< announce only
  // link faults (a, b) and upstream faults (a = PoP, which = session index)
  core::PopId a = core::kNoPop;
  core::PopId b = core::kNoPop;
  int which = 0;

  [[nodiscard]] bool operator==(const UpdateEvent&) const = default;
};

struct UpdateTrace {
  std::uint64_t seed = 0;      ///< generator seed (0 for hand-built traces)
  std::string scale = "small"; ///< world tier the trace was generated against
  std::uint64_t batches = 0;   ///< number of batch ticks (max batch + 1)
  std::vector<UpdateEvent> events;
};

struct GenerateConfig {
  std::uint64_t seed = 1;
  std::string scale = "small";
  std::uint64_t batches = 16;       ///< churn windows
  std::uint32_t events_per_batch = 8;
  /// Odds are announce-heavy: route replacement dominates real feeds.
  /// Remaining mass splits between withdraws and link/upstream flaps.
  std::uint32_t withdraw_weight = 2, fault_weight = 1, announce_weight = 5;
};

/// Deterministically derives a churn schedule from the built (converged)
/// network: flaps only prefixes in `vns.known_prefix_log()` over its
/// upstream transit sessions, plus occasional PoP-link and upstream-session
/// faults.  Pure function of (network shape, config) — it never mutates the
/// network, and it tracks session/link liveness itself so every recorded
/// event is applicable when replayed in order.
[[nodiscard]] UpdateTrace generate_trace(const core::VnsNetwork& vns,
                                         const GenerateConfig& config);

/// JSONL encoding: one header object, then one line per event.
void save_trace(const UpdateTrace& trace, std::ostream& out);
[[nodiscard]] std::string trace_to_jsonl(const UpdateTrace& trace);

/// Parses save_trace output.  Returns std::nullopt on malformed input
/// (missing header, a version other than 1, unknown op, bad field, a number
/// that does not fit its field, an event count other than the header's)
/// and, when `world` is given, on an event naming a session, PoP, upstream
/// or link the world does not have.  `error`, when non-null, then
/// receives the offending line's number and what is wrong with it.
[[nodiscard]] std::optional<UpdateTrace> load_trace(std::istream& in,
                                                    const core::VnsNetwork* world = nullptr,
                                                    std::string* error = nullptr);

}  // namespace vns::serve
