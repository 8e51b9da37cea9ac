#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "harness.hpp"

namespace perfbench {

int Tracer::open(const char* name, int parent, std::uint64_t request, bool with_cpu) {
  if (!enabled_) return kNoSpan;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  if (with_cpu) span.cpu_ns = process_cpu_ns();
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id, std::uint64_t items) {
  if (id == kNoSpan) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  if (span.cpu_ns >= 0) span.cpu_ns = process_cpu_ns() - span.cpu_ns;
  span.items = items;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == kNoSpan) continue;
    const Span& parent = spans.at(static_cast<std::size_t>(span.parent));
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open_run = false;
    for (const auto& [lo, hi] : covered) {
      if (open_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open_run) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open_run = true;
    }
    if (open_run) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::vector<double> span_ns(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

std::vector<double> span_ns_per_item(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0 && span.items > 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                    static_cast<double>(span.items));
    }
  }
  return out;
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans, const FeedsOf& feeds_of) {
  const auto self = self_times(spans);
  std::vector<LayerRow> rows;
  std::unordered_map<std::string, std::size_t> index;
  std::vector<double> cpu_ms, cpu_wall_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const auto [it, fresh] = index.try_emplace(span.name, rows.size());
    if (fresh) {
      LayerRow row;
      row.name = span.name;
      row.feeds = feeds_of ? feeds_of(row.name) : std::string{};
      rows.push_back(std::move(row));
      cpu_ms.push_back(0.0);
      cpu_wall_ms.push_back(0.0);
    }
    LayerRow& row = rows[it->second];
    const double wall = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    row.spans += 1;
    row.items += span.items;
    row.self_ms += static_cast<double>(self[i]) / 1e6;
    row.wall_ms += wall;
    if (span.cpu_ns >= 0) {
      row.cpu_samples += 1;
      cpu_ms[it->second] += static_cast<double>(span.cpu_ns) / 1e6;
      cpu_wall_ms[it->second] += wall;
    }
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].cpu_samples > 0 && cpu_wall_ms[r] > 0.0) {
      rows[r].cpu_ratio = cpu_ms[r] / cpu_wall_ms[r];
    }
  }
  return rows;
}

void write_spans_jsonl(const std::vector<Span>& spans, std::ostream& out) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << "{\"id\":" << i << ",\"name\":" << json_string(span.name)
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"items\":" << span.items;
    if (span.cpu_ns >= 0) out << ",\"cpu_ns\":" << span.cpu_ns;
    out << "}\n";
  }
}

void write_layer_table(const std::vector<LayerRow>& rows, std::ostream& out) {
  char line[256];
  std::snprintf(line, sizeof line, "%-26s %8s %10s %12s %12s %9s  %s\n", "span", "count",
                "samples", "self_ms", "wall_ms", "cpu/wall", "feeds");
  out << line;
  for (const LayerRow& row : rows) {
    char ratio[32];
    if (row.cpu_ratio >= 0.0) {
      std::snprintf(ratio, sizeof ratio, "%.2f", row.cpu_ratio);
    } else {
      std::snprintf(ratio, sizeof ratio, "-");
    }
    std::snprintf(line, sizeof line, "%-26s %8zu %10llu %12.3f %12.3f %9s  %s\n",
                  row.name.c_str(), row.spans, static_cast<unsigned long long>(row.items),
                  row.self_ms, row.wall_ms, ratio, row.feeds.c_str());
    out << line;
  }
}

}  // namespace perfbench
