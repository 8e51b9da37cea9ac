#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace vns::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::raise(Metric id, std::uint64_t value) noexcept {
  auto& cell = cells_[id.index];
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  while (seen < value && !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::add_real(Metric id, double delta) noexcept {
  auto& cell = cells_[id.index];
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(
      seen, std::bit_cast<std::uint64_t>(std::bit_cast<double>(seen) + delta),
      std::memory_order_relaxed)) {
  }
}

double MetricsRegistry::value(Metric id) const noexcept {
  const std::uint64_t bits = count(id);
  const Unit unit = kMetrics[id.index].unit;
  if (unit == Unit::kSeconds) return static_cast<double>(bits) * 1e-9;
  if (is_real(unit)) return std::bit_cast<double>(bits);
  return static_cast<double>(bits);
}

std::string MetricsRegistry::formatted(Metric id) const {
  const Unit unit = kMetrics[id.index].unit;
  return unit == Unit::kSeconds || is_real(unit) ? json_number(value(id))
                                                 : json_number(count(id));
}

void MetricsRegistry::span_record(std::string_view name, double seconds) {
  const std::lock_guard<std::mutex> lock(spans_mutex_);
  spans_.push_back(Span{std::string(name), seconds});
}

std::vector<MetricsRegistry::Span> MetricsRegistry::spans() const {
  const std::lock_guard<std::mutex> lock(spans_mutex_);
  return spans_;
}

void MetricsRegistry::write_block(std::ostream& out, Block block) const {
  out << '{';
  const char* separator = "";
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (kMetrics[i].block != block) continue;
    out << separator << json_string(kMetrics[i].key) << ": " << formatted(Metric{i});
    separator = ", ";
  }
  if (block == Block::kMemory) {
    out << separator << "\"fib\": ";
    write_block(out, Block::kFib);
  }
  out << '}';
}

void MetricsRegistry::write_bench_blocks(std::ostream& out) const {
  for (const Block block : {Block::kCounters, Block::kMemory, Block::kConvergence,
                            Block::kTraffic}) {
    out << ",\n  " << json_string(block_path(block)) << ": ";
    write_block(out, block);
  }
}

void MetricsRegistry::write_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricDef& def = kMetrics[i];
    out << "{\"type\":" << (def.kind == Kind::kCounter ? "\"counter\"" : "\"gauge\"")
        << ",\"block\":" << json_string(block_path(def.block))
        << ",\"name\":" << json_string(def.key) << ",\"unit\":" << json_string(unit_name(def.unit))
        << ",\"value\":" << formatted(Metric{i}) << "}\n";
  }
  for (const Span& span : spans()) {
    out << "{\"type\":\"span\",\"name\":" << json_string(span.name)
        << ",\"seconds\":" << json_number(span.seconds) << "}\n";
  }
}

void MetricsRegistry::print_counters(std::ostream& out) const {
  const char* heading = "counters:\n";
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const std::uint64_t value = count(Metric{i});
    if (kMetrics[i].block != Block::kCounters || value == 0) continue;
    out << heading << "  " << kMetrics[i].key << " = " << value << '\n';
    heading = "";
  }
}

}  // namespace vns::obs
