// In-memory span recording for the traced run.
//
// A span covers one call (or one slice of calls) from the benchmark into a
// vnskit layer: name, start, end, parent span and request id.  A request is
// one call setup, one update or one TE pass.  Spans stay in memory and are
// written out when the run ends; with tracing off every operation is a
// single branch and no clock is read.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr int kNoSpan = -1;

struct Span {
  const char* name = "";  ///< a string literal: recording never allocates for it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = kNoSpan;
  std::uint64_t request = 0;
  /// Process CPU time over the span; negative when not sampled (reading it
  /// costs a system call, so only coarse spans take it).
  std::int64_t cpu_ns = -1;
  /// Operations the span covers (1 for a single call, N for a slice).
  std::uint64_t items = 1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Turns recording on or off between requests (the traced run alternates
  /// to measure its own overhead).
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Allocates a request id (ids are allocated with tracing off too, so
  /// both halves of an alternating run number requests alike).
  [[nodiscard]] std::uint64_t new_request() noexcept { return ++last_request_; }

  /// Opens a span; returns kNoSpan when recording is off.
  int open(const char* name, int parent, std::uint64_t request, bool with_cpu = false);
  /// Closes a span opened by open(); no-op for kNoSpan.
  void close(int id, std::uint64_t items = 1);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::uint64_t last_request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction (or close()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, std::uint64_t request,
             bool with_cpu = false)
      : tracer_(tracer), id_(tracer.open(name, parent, request, with_cpu)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  void set_items(std::uint64_t items) noexcept { items_ = items; }
  void close() {
    tracer_.close(id_, items_);
    id_ = kNoSpan;
  }

 private:
  Tracer& tracer_;
  int id_;
  std::uint64_t items_ = 1;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.  Children are clipped to the parent's
/// interval and overlapping children are counted once.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-name aggregate of a span list.
struct LayerRow {
  std::string name;
  std::size_t spans = 0;       ///< span count
  std::uint64_t items = 0;     ///< operations covered
  double self_ms = 0.0;        ///< total self time
  double wall_ms = 0.0;        ///< total duration
  /// Process CPU over wall time for the spans that sampled CPU; negative
  /// when none did.
  double cpu_ratio = -1.0;
  std::size_t cpu_samples = 0;
  std::string feeds;           ///< end-to-end metric the layer moves
};

/// Aggregates spans by name, in first-seen order.  `feeds_of(name)` names
/// the end-to-end metric each layer feeds.
using FeedsOf = std::function<std::string(const std::string& name)>;
[[nodiscard]] std::vector<LayerRow> layer_table(const std::vector<Span>& spans,
                                                const FeedsOf& feeds_of);

/// Durations (ns) of every span called `name`, in recording order.
[[nodiscard]] std::vector<double> span_ns(const std::vector<Span>& spans, const char* name);
/// Duration per covered item (ns) of every span called `name`.
[[nodiscard]] std::vector<double> span_ns_per_item(const std::vector<Span>& spans,
                                                   const char* name);

void write_spans_jsonl(const std::vector<Span>& spans, std::ostream& out);
void write_layer_table(const std::vector<LayerRow>& rows, std::ostream& out);

}  // namespace perfbench
