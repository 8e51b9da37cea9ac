#include "obs/latency.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace vns::obs {

LatencySnapshot::LatencySnapshot(std::vector<std::uint64_t> counts)
    : counts_(std::move(counts)) {
  counts_.resize(LatencyRecorder::kBucketCount, 0);
  for (const std::uint64_t c : counts_) total_ += c;
}

void LatencySnapshot::merge(const LatencySnapshot& other) {
  if (counts_.empty()) counts_.resize(LatencyRecorder::kBucketCount, 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

std::uint64_t LatencySnapshot::rank_of(double q) const noexcept {
  // 1-based; q=0 maps to the first sample.
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(total_))));
}

double LatencySnapshot::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  const std::uint64_t rank = rank_of(q);
  std::uint64_t seen = 0;
  for (std::size_t bucket = 0; bucket < counts_.size(); ++bucket) {
    seen += counts_[bucket];
    if (seen >= rank) return LatencyRecorder::bucket_mid(bucket);
  }
  return LatencyRecorder::bucket_mid(counts_.size() - 1);
}

std::optional<double> LatencySnapshot::reported_quantile(double q) const noexcept {
  if (total_ == 0 || total_ - rank_of(q) < kMinBeyond) return std::nullopt;
  return quantile(q);
}

std::string LatencySnapshot::to_json(std::string_view unit) const {
  std::string out = "{\"count\":" + json_number(total_);
  const auto field = [&](const char* name, std::optional<double> value) {
    out += ",\"";
    out += name;
    out += '_';
    out += unit;
    out += "\":" + (value ? json_number(*value) : std::string{"null"});
  };
  field("p50", reported_quantile(0.50));
  field("p90", reported_quantile(0.90));
  field("p99", reported_quantile(0.99));
  field("p999", reported_quantile(0.999));
  field("max", reported_max());
  out += '}';
  return out;
}

LatencySnapshot LatencyRecorder::Shard::snapshot() const {
  std::vector<std::uint64_t> counts(kBucketCount);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return LatencySnapshot{std::move(counts)};
}

LatencyRecorder::LatencyRecorder(std::size_t shards) {
  shards_.reserve(std::max<std::size_t>(1, shards));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

LatencySnapshot LatencyRecorder::snapshot() const {
  LatencySnapshot merged;
  for (const auto& shard : shards_) merged.merge(shard->snapshot());
  return merged;
}

}  // namespace vns::obs
