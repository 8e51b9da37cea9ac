#include "serve/update_trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace vns::serve {

const char* to_string(UpdateOp op) noexcept {
  switch (op) {
    case UpdateOp::kAnnounce: return "announce";
    case UpdateOp::kWithdraw: return "withdraw";
    case UpdateOp::kLinkDown: return "link_down";
    case UpdateOp::kLinkUp: return "link_up";
    case UpdateOp::kUpstreamDown: return "upstream_down";
    case UpdateOp::kUpstreamUp: return "upstream_up";
  }
  return "unknown";
}

std::optional<UpdateOp> parse_update_op(std::string_view text) noexcept {
  if (text == "announce") return UpdateOp::kAnnounce;
  if (text == "withdraw") return UpdateOp::kWithdraw;
  if (text == "link_down") return UpdateOp::kLinkDown;
  if (text == "link_up") return UpdateOp::kLinkUp;
  if (text == "upstream_down") return UpdateOp::kUpstreamDown;
  if (text == "upstream_up") return UpdateOp::kUpstreamUp;
  return std::nullopt;
}

namespace {

/// Same self-contained LCG the convergence replay tests use: the schedule
/// must not depend on util::Rng internals, so a recorded trace keeps
/// replaying identically even if the library RNG evolves.
struct ScheduleRng {
  std::uint64_t state;
  std::uint32_t next(std::uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>((state >> 33) % bound);
  }
};

}  // namespace

UpdateTrace generate_trace(const core::VnsNetwork& vns, const GenerateConfig& config) {
  UpdateTrace trace;
  trace.seed = config.seed;
  trace.scale = config.scale;
  trace.batches = config.batches;

  const auto prefixes = vns.known_prefix_log();
  // Flap routes over the upstream transit sessions only: peers export a
  // restricted table, so an arbitrary prefix on a peer session would be a
  // policy violation the real feed could never produce.
  struct Upstream {
    bgp::NeighborId session;
    net::Asn asn;
    core::PopId pop;
    int which;
  };
  std::vector<Upstream> upstreams;
  for (const auto& pop : vns.pops()) {
    for (std::size_t i = 0; i < pop.upstream_sessions.size(); ++i) {
      const bgp::NeighborId session = pop.upstream_sessions[i];
      upstreams.push_back(
          {session, vns.fabric().neighbor(session).asn, pop.id, static_cast<int>(i)});
    }
  }
  std::vector<std::size_t> links;
  for (std::size_t i = 0; i < vns.links().size(); ++i) links.push_back(i);
  if (prefixes.empty() || upstreams.empty()) return trace;

  // Liveness the generator maintains itself (it never touches the network):
  // announces and withdraws are only scheduled on sessions the schedule has
  // not taken down, and fault events strictly alternate down/up per target,
  // so replaying the recorded events in order is always applicable.
  std::vector<bool> session_down(upstreams.size(), false);
  std::vector<bool> link_down(links.size(), false);
  std::size_t sessions_down = 0;

  ScheduleRng rng{config.seed * 0x9e3779b97f4a7c15ull + 1};
  const std::uint32_t total_weight =
      config.announce_weight + config.withdraw_weight + config.fault_weight;
  for (std::uint64_t batch = 0; batch < config.batches; ++batch) {
    for (std::uint32_t i = 0; i < config.events_per_batch; ++i) {
      // Draws are consumed unconditionally so the op stream is a pure
      // function of the seed; guards only decide whether a draw is emitted.
      const std::uint32_t dice = rng.next(std::max(total_weight, 1u));
      const std::uint32_t u = rng.next(static_cast<std::uint32_t>(upstreams.size()));
      const std::uint32_t p = rng.next(static_cast<std::uint32_t>(prefixes.size()));
      const std::uint32_t hop = rng.next(1024);
      const std::uint32_t med = rng.next(16);
      UpdateEvent event;
      event.batch = batch;
      if (dice < config.announce_weight) {
        if (session_down[u]) continue;
        event.op = UpdateOp::kAnnounce;
        event.session = upstreams[u].session;
        event.prefix = prefixes[p];
        // Two-hop path through the transit session's AS to a synthetic
        // origin: short enough to contend for best, varied enough (second
        // hop and MED) that a re-announce is a route replacement, not an
        // idempotent refresh.
        event.as_path = {upstreams[u].asn, 64512 + hop};
        event.med = med;
      } else if (dice < config.announce_weight + config.withdraw_weight) {
        if (session_down[u]) continue;
        event.op = UpdateOp::kWithdraw;
        event.session = upstreams[u].session;
        event.prefix = prefixes[p];
      } else if (!links.empty() && hop % 2 == 0) {
        const std::uint32_t l = rng.next(static_cast<std::uint32_t>(links.size()));
        const auto& link = vns.links()[links[l]];
        event.op = link_down[l] ? UpdateOp::kLinkUp : UpdateOp::kLinkDown;
        link_down[l] = !link_down[l];
        event.a = link.a;
        event.b = link.b;
      } else {
        // Never isolate the feed entirely: keep at least one upstream
        // session up so announces always have somewhere to land.
        if (!session_down[u] && sessions_down + 1 >= upstreams.size()) continue;
        event.op = session_down[u] ? UpdateOp::kUpstreamUp : UpdateOp::kUpstreamDown;
        session_down[u] = !session_down[u];
        if (session_down[u]) {
          ++sessions_down;
        } else {
          --sessions_down;
        }
        event.a = upstreams[u].pop;
        event.which = upstreams[u].which;
      }
      trace.events.push_back(std::move(event));
    }
  }
  return trace;
}

void save_trace(const UpdateTrace& trace, std::ostream& out) {
  // Header first, no timestamps anywhere: the bytes are a pure function of
  // the events, which record→replay byte-identity tests rely on.
  out << "{\"type\":\"update_trace\",\"version\":1,\"scale\":"
      << obs::json_string(trace.scale) << ",\"seed\":" << obs::json_number(trace.seed)
      << ",\"batches\":" << obs::json_number(trace.batches)
      << ",\"events\":" << obs::json_number(std::uint64_t{trace.events.size()}) << "}\n";
  for (const UpdateEvent& e : trace.events) {
    out << "{\"type\":\"update_event\",\"batch\":" << obs::json_number(e.batch)
        << ",\"op\":" << obs::json_string(to_string(e.op));
    switch (e.op) {
      case UpdateOp::kAnnounce:
        out << ",\"session\":" << obs::json_number(std::uint64_t{e.session})
            << ",\"prefix\":" << obs::json_string(e.prefix.to_string()) << ",\"as_path\":[";
        for (std::size_t i = 0; i < e.as_path.size(); ++i) {
          if (i != 0) out << ',';
          out << obs::json_number(std::uint64_t{e.as_path[i]});
        }
        out << "],\"med\":" << obs::json_number(std::uint64_t{e.med});
        break;
      case UpdateOp::kWithdraw:
        out << ",\"session\":" << obs::json_number(std::uint64_t{e.session})
            << ",\"prefix\":" << obs::json_string(e.prefix.to_string());
        break;
      case UpdateOp::kLinkDown:
      case UpdateOp::kLinkUp:
        out << ",\"a\":" << obs::json_number(std::uint64_t{e.a})
            << ",\"b\":" << obs::json_number(std::uint64_t{e.b});
        break;
      case UpdateOp::kUpstreamDown:
      case UpdateOp::kUpstreamUp:
        out << ",\"pop\":" << obs::json_number(std::uint64_t{e.a})
            << ",\"which\":" << obs::json_number(std::uint64_t{static_cast<std::uint32_t>(e.which)});
        break;
    }
    out << "}\n";
  }
}

std::string trace_to_jsonl(const UpdateTrace& trace) {
  std::ostringstream out;
  save_trace(trace, out);
  return out.str();
}

namespace {

// Field scanners for the fixed JSONL dialect save_trace writes.  They only
// need to cope with our own output plus whitespace variations, not general
// JSON — load_trace rejects anything that does not look like a trace line.

std::string key_pattern(std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  return pattern;
}

std::optional<std::string> scan_string(std::string_view line, std::string_view key) {
  const std::string pattern = key_pattern(key);
  const auto at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  auto i = at + pattern.size();
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size() || line[i] != '"') return std::nullopt;
  ++i;
  std::string out;
  while (i < line.size() && line[i] != '"') {
    if (line[i] == '\\' && i + 1 < line.size()) ++i;  // our writer escapes " and \ only
    out += line[i++];
  }
  if (i >= line.size()) return std::nullopt;
  return out;
}

/// The unsigned number starting at text[i], advancing i past it; nullopt
/// when there is no digit there or the value does not fit T — hostile input
/// must be rejected, never wrapped into some other session or PoP.
template <typename T>
std::optional<T> take_number(std::string_view text, std::size_t& i) {
  if (i >= text.size() || text[i] < '0' || text[i] > '9') return std::nullopt;
  T value{};
  const auto [end, ec] = std::from_chars(text.data() + i, text.data() + text.size(), value);
  if (ec != std::errc{}) return std::nullopt;
  i = static_cast<std::size_t>(end - text.data());
  return value;
}

template <typename T>
std::optional<T> scan_number(std::string_view line, std::string_view key) {
  const std::string pattern = key_pattern(key);
  const auto at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  auto i = at + pattern.size();
  while (i < line.size() && line[i] == ' ') ++i;
  return take_number<T>(line, i);
}

std::optional<std::vector<net::Asn>> scan_asn_array(std::string_view line,
                                                    std::string_view key) {
  const std::string pattern = key_pattern(key) + "[";
  const auto at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  auto i = at + pattern.size();
  const auto skip_spaces = [&] {
    while (i < line.size() && line[i] == ' ') ++i;
  };
  std::vector<net::Asn> out;
  skip_spaces();
  if (i < line.size() && line[i] == ']') return out;
  while (true) {
    skip_spaces();
    const auto asn = take_number<net::Asn>(line, i);
    if (!asn) return std::nullopt;
    out.push_back(*asn);
    skip_spaces();
    if (i >= line.size()) return std::nullopt;  // unterminated array
    if (line[i] == ']') return out;
    if (line[i] != ',') return std::nullopt;
    ++i;
  }
}

/// Why `event` cannot be applied to `world`, or nullopt when it can: every
/// session, PoP, upstream index and link it names must exist there.
std::optional<std::string> check_event(const core::VnsNetwork& world, const UpdateEvent& event) {
  switch (event.op) {
    case UpdateOp::kAnnounce:
    case UpdateOp::kWithdraw:
      if (event.session >= world.fabric().neighbor_count()) {
        return "unknown session " + std::to_string(event.session);
      }
      return std::nullopt;
    case UpdateOp::kLinkDown:
    case UpdateOp::kLinkUp:
      if (!world.link_index(event.a, event.b)) {
        return "no link between PoPs " + std::to_string(event.a) + " and " +
               std::to_string(event.b);
      }
      return std::nullopt;
    case UpdateOp::kUpstreamDown:
    case UpdateOp::kUpstreamUp:
      if (event.a >= world.pops().size()) return "unknown PoP " + std::to_string(event.a);
      if (static_cast<std::size_t>(event.which) >=
          world.pops()[event.a].upstream_sessions.size()) {
        return "PoP " + std::to_string(event.a) + " has no upstream " +
               std::to_string(event.which);
      }
      return std::nullopt;
  }
  return "unknown op";
}

}  // namespace

std::optional<UpdateTrace> load_trace(std::istream& in, const core::VnsNetwork* world,
                                      std::string* error) {
  UpdateTrace trace;
  bool saw_header = false;
  std::uint64_t declared_events = 0;
  std::string line;
  std::size_t line_number = 0;
  const auto reject = [&](std::string_view why) -> std::optional<UpdateTrace> {
    if (error != nullptr) *error = "line " + std::to_string(line_number) + ": " + std::string{why};
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto type = scan_string(line, "type");
    if (!type) return reject("no \"type\"");
    if (*type == "update_trace") {
      if (saw_header) return reject("second header");
      saw_header = true;
      const auto version = scan_number<std::uint64_t>(line, "version");
      const auto scale = scan_string(line, "scale");
      const auto seed = scan_number<std::uint64_t>(line, "seed");
      const auto batches = scan_number<std::uint64_t>(line, "batches");
      const auto events = scan_number<std::uint64_t>(line, "events");
      if (!version || !scale || !seed || !batches || !events) return reject("malformed header");
      if (*version != 1) return reject("unsupported version " + std::to_string(*version));
      declared_events = *events;
      trace.scale = *scale;
      trace.seed = *seed;
      trace.batches = *batches;
      continue;
    }
    if (*type != "update_event") return reject("unknown type");
    if (!saw_header) return reject("event before the header");
    UpdateEvent event;
    const auto batch = scan_number<std::uint64_t>(line, "batch");
    const auto op_text = scan_string(line, "op");
    // The batch count is the last batch + 1, so the last batch must leave
    // room for it.
    if (!batch || *batch == UINT64_MAX || !op_text) return reject("malformed event");
    const auto op = parse_update_op(*op_text);
    if (!op) return reject("unknown op");
    event.batch = *batch;
    event.op = *op;
    switch (event.op) {
      case UpdateOp::kAnnounce: {
        const auto session = scan_number<bgp::NeighborId>(line, "session");
        const auto prefix_text = scan_string(line, "prefix");
        const auto path = scan_asn_array(line, "as_path");
        const auto med = scan_number<std::uint32_t>(line, "med");
        if (!session || !prefix_text || !path || !med) return reject("malformed announce");
        const auto prefix = net::Ipv4Prefix::parse(*prefix_text);
        if (!prefix) return reject("malformed prefix");
        event.session = *session;
        event.prefix = *prefix;
        event.as_path = *path;
        event.med = *med;
        break;
      }
      case UpdateOp::kWithdraw: {
        const auto session = scan_number<bgp::NeighborId>(line, "session");
        const auto prefix_text = scan_string(line, "prefix");
        if (!session || !prefix_text) return reject("malformed withdraw");
        const auto prefix = net::Ipv4Prefix::parse(*prefix_text);
        if (!prefix) return reject("malformed prefix");
        event.session = *session;
        event.prefix = *prefix;
        break;
      }
      case UpdateOp::kLinkDown:
      case UpdateOp::kLinkUp: {
        const auto a = scan_number<core::PopId>(line, "a");
        const auto b = scan_number<core::PopId>(line, "b");
        if (!a || !b) return reject("malformed link event");
        event.a = *a;
        event.b = *b;
        break;
      }
      case UpdateOp::kUpstreamDown:
      case UpdateOp::kUpstreamUp: {
        const auto pop = scan_number<core::PopId>(line, "pop");
        const auto which = scan_number<int>(line, "which");
        if (!pop || !which) return reject("malformed upstream event");
        event.a = *pop;
        event.which = *which;
        break;
      }
    }
    if (world != nullptr) {
      if (const auto why = check_event(*world, event)) return reject(*why);
    }
    trace.events.push_back(std::move(event));
  }
  if (!saw_header) {
    if (error != nullptr) *error = "no update_trace header";
    return std::nullopt;
  }
  if (trace.events.size() != declared_events) {
    if (error != nullptr) {
      *error = "header declares " + std::to_string(declared_events) + " events, trace has " +
               std::to_string(trace.events.size());
    }
    return std::nullopt;
  }
  for (const UpdateEvent& event : trace.events) {
    trace.batches = std::max(trace.batches, event.batch + 1);
  }
  return trace;
}

}  // namespace vns::serve
