// MetricsRegistry: the one metrics path.  Every metric the library and the
// benches report is declared once, in kMetrics below — its key, whether it is
// a counter or a gauge, its unit and the BENCH-json block it is written in —
// and each value lives in a fixed atomic cell.  An update is one relaxed
// atomic op on that cell: no lock and no name lookup (metric() resolves a
// path at compile time), so the FIB, convergence and traffic paths record as
// they go and campaign loops sum locally and add once per task.
//
// One serializer walks the table for every artifact: the `counters`,
// `memory` (with `memory.fib` nested as its "fib" member), `convergence` and
// `traffic` blocks of BENCH_*.json, the metric lines of TRACE_*.jsonl and the
// stdout `counters:` trailer.  tools/json_check includes this header and
// requires each metric inside its block, so the table is also the schema:
// adding a metric is one table row plus its call site.
//
// Spans are the one thing kept by name: ScopedTimer appends a campaign phase's
// wall clock (one lock per phase, never per sample) so a TRACE file reads as a
// timeline.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vns::obs {

/// The BENCH-json block a metric is written in.  kFib nests inside kMemory
/// as its "fib" member; the others are top-level members of the record.
enum class Block : std::uint8_t { kCounters, kMemory, kFib, kConvergence, kTraffic };

/// The block's path in the record: "counters", "memory", "memory.fib", ...
[[nodiscard]] constexpr std::string_view block_path(Block block) noexcept {
  switch (block) {
    case Block::kCounters: return "counters";
    case Block::kMemory: return "memory";
    case Block::kFib: return "memory.fib";
    case Block::kConvergence: return "convergence";
    case Block::kTraffic: return "traffic";
  }
  return "";
}

enum class Kind : std::uint8_t {
  kCounter,  ///< a total that only grows
  kGauge,    ///< a level: set, raised to a new maximum, or moved up and down
};

/// The unit a metric is declared in.  It also fixes how the cell's 64 bits
/// read: counts, bytes and KiB are integers, seconds are integer nanoseconds
/// (written out as seconds), and the remaining units are bit-cast doubles.
enum class Unit : std::uint8_t {
  kCount,
  kBytes,
  kKib,
  kSeconds,
  kRatio,         ///< a quotient: utilization, dedup ratio, bytes per route
  kPerSecond,
  kMbps,
  kTrafficBytes,  ///< modelled traffic volume (rate x window / 8)
};

[[nodiscard]] constexpr std::string_view unit_name(Unit unit) noexcept {
  switch (unit) {
    case Unit::kCount: return "count";
    case Unit::kBytes: return "bytes";
    case Unit::kKib: return "KiB";
    case Unit::kSeconds: return "s";
    case Unit::kRatio: return "ratio";
    case Unit::kPerSecond: return "1/s";
    case Unit::kMbps: return "Mbps";
    case Unit::kTrafficBytes: return "bytes";
  }
  return "";
}

[[nodiscard]] constexpr bool is_real(Unit unit) noexcept { return unit >= Unit::kRatio; }

struct MetricDef {
  Block block;
  std::string_view key;  ///< member name inside the block
  Kind kind;
  Unit unit;
};

/// Every metric, in the order the serializer writes it.  The counters block
/// is sorted by key, which is the order of the stdout trailer.
inline constexpr MetricDef kMetrics[] = {
    // Work counters.  bgp.messages_delivered is the world fabric's total,
    // set once the bench's world has converged.
    {Block::kCounters, "bgp.messages_delivered", Kind::kGauge, Unit::kCount},
    {Block::kCounters, "measure.failover_probes", Kind::kCounter, Unit::kCount},
    {Block::kCounters, "measure.failover_sessions", Kind::kCounter, Unit::kCount},
    {Block::kCounters, "measure.probes_sent", Kind::kCounter, Unit::kCount},
    {Block::kCounters, "measure.sessions_streamed", Kind::kCounter, Unit::kCount},
    {Block::kCounters, "measure.slots_analyzed", Kind::kCounter, Unit::kCount},
    {Block::kCounters, "measure.vantages_sampled", Kind::kCounter, Unit::kCount},
    // Process peak RSS and the AttrTable's intern stats, sampled at export.
    {Block::kMemory, "peak_rss_kb", Kind::kGauge, Unit::kKib},
    {Block::kMemory, "rss_per_route", Kind::kGauge, Unit::kRatio},
    {Block::kMemory, "routes", Kind::kGauge, Unit::kCount},
    {Block::kMemory, "attr_unique_live", Kind::kGauge, Unit::kCount},
    {Block::kMemory, "attr_peak_unique", Kind::kGauge, Unit::kCount},
    {Block::kMemory, "attr_live_refs", Kind::kGauge, Unit::kCount},
    {Block::kMemory, "attr_intern_calls", Kind::kGauge, Unit::kCount},
    {Block::kMemory, "attr_intern_hits", Kind::kGauge, Unit::kCount},
    {Block::kMemory, "attr_bytes_allocated", Kind::kGauge, Unit::kBytes},
    {Block::kMemory, "attr_bytes_requested", Kind::kGauge, Unit::kBytes},
    {Block::kMemory, "attr_dedup_ratio", Kind::kGauge, Unit::kRatio},
    // Compiled FIBs: the live footprint of every instance, plus the work of
    // full compiles and in-place patches.
    {Block::kFib, "entries", Kind::kGauge, Unit::kCount},
    {Block::kFib, "spill_tables", Kind::kGauge, Unit::kCount},
    {Block::kFib, "bytes", Kind::kGauge, Unit::kBytes},
    {Block::kFib, "full_rebuilds", Kind::kCounter, Unit::kCount},
    {Block::kFib, "patches", Kind::kCounter, Unit::kCount},
    {Block::kFib, "slots_touched", Kind::kCounter, Unit::kCount},
    {Block::kFib, "full_build_seconds", Kind::kCounter, Unit::kSeconds},
    {Block::kFib, "patch_seconds", Kind::kCounter, Unit::kSeconds},
    // The convergence engine, summed over every fabric's runs.  The
    // per-second rate is sampled at export.  igp_redecisions counts the (router, prefix) decisions IGP
    // changes re-ran: only those whose hot-potato tie order moved, or all
    // IGP-dependent ones when reachability changed.
    {Block::kConvergence, "runs", Kind::kCounter, Unit::kCount},
    {Block::kConvergence, "messages", Kind::kCounter, Unit::kCount},
    {Block::kConvergence, "batches", Kind::kCounter, Unit::kCount},
    {Block::kConvergence, "messages_per_sec", Kind::kGauge, Unit::kPerSecond},
    {Block::kConvergence, "max_batch_messages", Kind::kGauge, Unit::kCount},
    {Block::kConvergence, "seconds", Kind::kCounter, Unit::kSeconds},
    {Block::kConvergence, "igp_redecisions", Kind::kCounter, Unit::kCount},
    // Traffic engineering: the last load-assignment pass, plus the offload
    // policy's cumulative moves.
    {Block::kTraffic, "assignments", Kind::kCounter, Unit::kCount},
    {Block::kTraffic, "links_loaded", Kind::kGauge, Unit::kCount},
    {Block::kTraffic, "util_p50", Kind::kGauge, Unit::kRatio},
    {Block::kTraffic, "util_max", Kind::kGauge, Unit::kRatio},
    {Block::kTraffic, "unrouted_mbps", Kind::kGauge, Unit::kMbps},
    {Block::kTraffic, "offloaded_flows", Kind::kCounter, Unit::kCount},
    {Block::kTraffic, "rejected_flows", Kind::kCounter, Unit::kCount},
    {Block::kTraffic, "wan_bytes_saved", Kind::kCounter, Unit::kTrafficBytes},
};

inline constexpr std::size_t kMetricCount = std::size(kMetrics);

/// A metric's row in kMetrics.
struct Metric {
  std::size_t index = 0;
};

/// The metric at `path` ("<block path>.<key>", e.g. "memory.fib.patches"),
/// resolved at compile time: an unknown path does not compile.
consteval Metric metric(std::string_view path) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const std::string_view block = block_path(kMetrics[i].block);
    if (path.size() == block.size() + 1 + kMetrics[i].key.size() &&
        path.starts_with(block) && path[block.size()] == '.' &&
        path.ends_with(kMetrics[i].key)) {
      return Metric{i};
    }
  }
  throw "unknown metric path";
}

class MetricsRegistry {
 public:
  struct Span {
    std::string name;
    double seconds = 0.0;
  };

  MetricsRegistry() = default;

  /// Process-wide registry every subsystem records into.
  static MetricsRegistry& global();

  // Integer cells (count, bytes, KiB).
  void add(Metric id, std::uint64_t delta = 1) noexcept {
    cells_[id.index].fetch_add(delta, std::memory_order_relaxed);
  }
  void set(Metric id, std::uint64_t value) noexcept {
    cells_[id.index].store(value, std::memory_order_relaxed);
  }
  /// Raises the cell to `value` if that is a new maximum.
  void raise(Metric id, std::uint64_t value) noexcept;
  // Seconds cells: accumulated as integer nanoseconds.
  void add_seconds(Metric id, double seconds) noexcept {
    add(id, static_cast<std::uint64_t>(seconds * 1e9));
  }
  // Real-valued cells.
  void set_real(Metric id, double value) noexcept {
    set(id, std::bit_cast<std::uint64_t>(value));
  }
  void add_real(Metric id, double delta) noexcept;

  /// An integer cell's value.
  [[nodiscard]] std::uint64_t count(Metric id) const noexcept {
    return cells_[id.index].load(std::memory_order_relaxed);
  }
  /// Any cell's value as written out: seconds, the double, or the integer.
  [[nodiscard]] double value(Metric id) const noexcept;

  void span_record(std::string_view name, double seconds);
  [[nodiscard]] std::vector<Span> spans() const;

  /// One block as a JSON object, `{"key": value, ...}`; kMemory includes
  /// its nested "fib" object.
  void write_block(std::ostream& out, Block block) const;
  /// The record's metric members, each as `,\n  "<block>": {...}`.
  void write_bench_blocks(std::ostream& out) const;
  /// One `{"type":"counter"|"gauge",...}` line per metric, then one
  /// `{"type":"span",...}` line per span in record order.
  void write_jsonl(std::ostream& out) const;
  /// The work counters that moved, as `  key = value` lines under a
  /// "counters:" heading; nothing when none did.
  void print_counters(std::ostream& out) const;

 private:
  [[nodiscard]] std::string formatted(Metric id) const;

  std::array<std::atomic<std::uint64_t>, kMetricCount> cells_{};
  mutable std::mutex spans_mutex_;
  std::vector<Span> spans_;
};

/// RAII span: records elapsed wall-clock into the registry on destruction.
///
///   { obs::ScopedTimer t(obs::MetricsRegistry::global(), "campaign.probe");
///     run_train_campaign(...); }
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry& registry, std::string name)
      : registry_(registry),
        name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.span_record(name_,
                          std::chrono::duration<double>(elapsed).count());
  }

 private:
  MetricsRegistry& registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vns::obs
