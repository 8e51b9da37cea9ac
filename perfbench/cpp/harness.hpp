// Measurement plumbing shared by the perfbench workloads: clocks, process
// CPU time and RSS, percentiles that refuse to report without enough
// samples, host diagnostics, the metric report, and the timed world set-up.
//
// Everything here measures from outside the library: it times calls into
// public vnskit functions and reads process-level counters around them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "measure/workbench.hpp"
#include "spans.hpp"

namespace perfbench {

/// Worker count for the measurement pools: campaign shards and the traffic
/// matrix build.  Fixed (clamped only to the host's cores) so runs on one
/// host always use the same count; the value is recorded in every artifact.
/// Two, not one per core: on a shared 4-vCPU host a round that needs every
/// vCPU at once swung up to 30% between runs in which single-threaded
/// requests swung 15%.
inline constexpr int kWorkers = 2;
[[nodiscard]] int worker_count() noexcept;

/// Lanes of the control plane: the fabric's convergence shards and the FIB
/// compiler.  One lane: on a 4-core host sharded convergence gains no wall
/// time (a fault converges at CPU/wall ~1.1 with four lanes, and costs about
/// a quarter more wall time than with one), and every run carries a
/// 44-event failover pass.  Results are bit-identical for any lane count.
inline constexpr int kControlPlaneLanes = 1;

/// The paper-scale world is built from this fixed seed; `--seed` varies the
/// workload inputs only, so run-to-run spread is not topology spread.
inline constexpr std::uint64_t kWorldSeed = 1;

/// Set-ups per run: setup_s is their median.  Each world built carries an
/// equal share of the workload, so the run's measurements spread over its
/// whole length rather than over the stretch after the last set-up.
inline constexpr int kSetupRepeats = 3;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
/// CPU time consumed by every thread of this process so far.
[[nodiscard]] std::int64_t process_cpu_ns() noexcept;
/// Peak resident set of this process (MiB).
[[nodiscard]] double peak_rss_mib() noexcept;
/// Current resident set of this process (MiB).
[[nodiscard]] double current_rss_mib() noexcept;
/// Returns freed heap pages to the OS, so RSS read around the next call
/// starts from a comparable baseline.
void release_free_memory() noexcept;

/// Nearest-rank percentile of `values` (q in (0, 1]).  `value` is empty
/// when fewer than kMinBeyond samples lie above the rank.
struct Percentile {
  std::optional<double> value;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Percentile percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Cost of one steady_clock::now() (ns), from slices of back-to-back calls.
[[nodiscard]] double clock_cost_ns();
/// Host memory-latency diagnostic: ns per independent random read over a
/// benchmark-owned 4 MiB table.  Taken at the start and end of every run so
/// a run made during host memory contention shows it in its own artifact.
[[nodiscard]] double mem_probe_ns(std::uint64_t seed);

/// One reported number.  `samples` is how many measurements stand behind
/// it (0 when it is a single reading).
struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;
  std::size_t samples = 0;
};

/// Ordered metric list with JSON rendering.
class Report {
 public:
  void add(std::string name, std::string unit, std::optional<double> value,
           std::size_t samples = 0);
  void add(std::string name, std::string unit, const Percentile& p) {
    add(std::move(name), std::move(unit), p.value, p.samples);
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  /// `{"name": {"value": v, "unit": u}, ...}` (null for an empty value),
  /// with `"samples": n` beside each value when `with_samples`.
  [[nodiscard]] std::string json(bool with_samples) const;

 private:
  std::vector<Metric> metrics_;
};

/// Shortest round-trip decimal rendering of a double (`null` if not finite).
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& text);

/// Timings of one set-up: build with the feed deferred, feed, geo flip and
/// the first egress_pop at every PoP.
struct SetupSample {
  double total_s = 0.0;
  double world_build_s = 0.0;
  double world_build_rss_mib = 0.0;
  double feed_s = 0.0;
  double feed_cpu_s = 0.0;
  double feed_rss_mib = 0.0;
  std::uint64_t feed_messages = 0;
  double geo_flip_s = 0.0;
  std::uint64_t geo_flip_messages = 0;
  double first_compile_s = 0.0;
};

struct World {
  std::unique_ptr<vns::measure::Workbench> bench;
  std::vector<SetupSample> setups;  ///< one per set-up, in order
};

/// Replaces the world's workbench with a freshly built paper-scale one
/// (the old one is destroyed first, so peak RSS holds one world) and
/// appends the set-up's timings.  Spans (when the tracer is on) cover each
/// stage.
void setup_world(World& world, Tracer& tracer);

/// The address every "first egress_pop at every PoP" probe resolves: the
/// first host of the first prefix the overlay learned.
[[nodiscard]] vns::net::Ipv4Address refresh_probe_address(const vns::core::VnsNetwork& vns);

/// Resolves the probe address once at every PoP: after a control-plane
/// change this is the read that pays each PoP's FIB refresh.  Returns how
/// many PoPs answered with an egress.
std::size_t touch_every_pop(const vns::core::VnsNetwork& vns, vns::net::Ipv4Address probe);

}  // namespace perfbench
