// LatencyRecorder: HDR-style log-bucketed latency histograms for the serving
// path — capturing nanosecond-scale resolution-latency tails under
// concurrent load without a mutex per observe.
//
// Bucketing: values below 2^kPrecisionBits land in exact unit buckets; above
// that, each power-of-two octave is split into 2^kPrecisionBits sub-buckets,
// so every bucket's width is at most value * 2^-kPrecisionBits.  Reporting
// the bucket midpoint bounds the relative error of any percentile by
// 2^-(kPrecisionBits+1) (~0.8% at the default 6 bits), across the full
// uint64 range — one recorder covers 1 ns to hours without re-shaping.
//
// Concurrency: the recorder owns a fixed set of shards, one per recording
// thread; each shard is a flat array of relaxed atomics, so record() is one
// bit-scan plus one atomic increment and never takes a lock or allocates.
// snapshot() sums the shards in shard-index order into a plain Snapshot;
// since bucket merges are commutative sums, the merged result is identical
// for any shard assignment and any snapshot timing relative to a quiescent
// recorder — the determinism tests pin this.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace vns::obs {

/// Plain merged view of a LatencyRecorder (or of one shard): bucket counts
/// plus total, queryable for percentiles.  Value semantics; merge() sums.
class LatencySnapshot {
 public:
  LatencySnapshot() = default;
  explicit LatencySnapshot(std::vector<std::uint64_t> counts);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

  /// Adds another snapshot's counts (shape is process-wide constant).
  void merge(const LatencySnapshot& other);

  /// Value at quantile `q` in [0, 1]: the midpoint of the bucket holding the
  /// sample of rank ceil(q * total); 0 when empty.  Relative error vs. the
  /// true recorded value is bounded by 2^-(kPrecisionBits+1).
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Fewest samples that must rank above a quantile before it is reported:
  /// a tail read off a handful of samples is one sample, not a percentile.
  static constexpr std::uint64_t kMinBeyond = 10;

  /// quantile(q) when at least kMinBeyond samples rank above it, else
  /// nullopt (always nullopt when empty).
  [[nodiscard]] std::optional<double> reported_quantile(double q) const noexcept;
  /// quantile(1.0) — the largest sample, an observation rather than a tail
  /// estimate — or nullopt when empty.
  [[nodiscard]] std::optional<double> reported_max() const noexcept {
    return empty() ? std::nullopt : std::optional{quantile(1.0)};
  }

  /// `{"count":N,"p50_<unit>":...,"p90_<unit>":...,"p99_<unit>":...,
  /// "p999_<unit>":...,"max_<unit>":...}` — the fixed percentile ladder
  /// every heartbeat and slo block emits.  Each percentile follows
  /// reported_quantile and is `null` when too few samples back it; max
  /// follows reported_max.  `unit` names the recorded quantity ("ns", "us").
  [[nodiscard]] std::string to_json(std::string_view unit) const;

  friend bool operator==(const LatencySnapshot&, const LatencySnapshot&) = default;

 private:
  /// 1-based rank of the sample that answers quantile `q` (total_ > 0).
  [[nodiscard]] std::uint64_t rank_of(double q) const noexcept;

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

class LatencyRecorder {
 public:
  /// Sub-bucket resolution: each octave splits into 2^kPrecisionBits
  /// buckets, bounding percentile relative error by 2^-(kPrecisionBits+1).
  static constexpr unsigned kPrecisionBits = 6;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kPrecisionBits;
  /// Exact buckets for [0, 2^P), then one 2^P-wide group per octave up to
  /// the top of the uint64 range.
  static constexpr std::size_t kBucketCount = (64 - kPrecisionBits + 1) * kSubBuckets;

  /// One recording lane.  Callers pin one shard per thread; concurrent
  /// record() calls on the *same* shard are still safe (atomics), just
  /// contended.
  class Shard {
   public:
    Shard() : buckets_(kBucketCount) {}

    void record(std::uint64_t value) noexcept {
      buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    }

    [[nodiscard]] LatencySnapshot snapshot() const;

   private:
    std::vector<std::atomic<std::uint64_t>> buckets_;
  };

  explicit LatencyRecorder(std::size_t shards);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] Shard& shard(std::size_t index) { return *shards_.at(index); }

  /// Merged view across every shard, summed in shard-index order.
  [[nodiscard]] LatencySnapshot snapshot() const;

  // --- bucket geometry (static; shared by Snapshot) -------------------------
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const unsigned octave = std::bit_width(value) - 1;  // >= kPrecisionBits
    const unsigned shift = octave - kPrecisionBits;
    return (static_cast<std::size_t>(shift) << kPrecisionBits) +
           static_cast<std::size_t>(value >> shift);
  }
  /// Inclusive lower bound of a bucket (exact inverse of bucket_of): a
  /// bucket index i >= kSubBuckets encodes shift = i / kSubBuckets - 1 and a
  /// mantissa in [kSubBuckets, 2 * kSubBuckets).
  [[nodiscard]] static constexpr std::uint64_t bucket_lo(std::size_t bucket) noexcept {
    if (bucket < kSubBuckets) return bucket;
    const unsigned shift = static_cast<unsigned>(bucket >> kPrecisionBits) - 1;
    return static_cast<std::uint64_t>(bucket -
                                      (static_cast<std::size_t>(shift) << kPrecisionBits))
           << shift;
  }
  /// Bucket width (1 for the exact range, 2^shift above it).
  [[nodiscard]] static constexpr std::uint64_t bucket_width(std::size_t bucket) noexcept {
    return bucket < kSubBuckets
               ? 1
               : std::uint64_t{1} << (static_cast<unsigned>(bucket >> kPrecisionBits) - 1);
  }
  /// Midpoint used as the bucket's reported value.
  [[nodiscard]] static constexpr double bucket_mid(std::size_t bucket) noexcept {
    return static_cast<double>(bucket_lo(bucket)) +
           (static_cast<double>(bucket_width(bucket)) - 1.0) / 2.0;
  }

 private:
  /// Shards are heap nodes: atomics are not movable and shard addresses must
  /// stay stable while recording threads hold references.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vns::obs
