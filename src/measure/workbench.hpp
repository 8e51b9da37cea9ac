// The measurement workbench: one fully-assembled world (synthetic Internet,
// GeoIP database, VNS overlay with routes fed and converged, calibrated
// segment catalog) shared by the benches and examples.
//
// Scale presets: `small()` builds in well under a second (tests, smoke
// runs); `paper_scale()` is the default bench size — a few thousand ASes
// and ~10k prefixes, enough for every distribution in the paper to take its
// shape while a full figure regenerates in seconds.
#pragma once

#include <memory>
#include <span>

#include "core/vns_network.hpp"
#include "geo/geoip.hpp"
#include "measure/failover.hpp"
#include "media/session.hpp"
#include "obs/trace.hpp"
#include "topo/internet.hpp"
#include "topo/segments.hpp"
#include "util/stats.hpp"

namespace vns::measure {

struct WorkbenchConfig {
  topo::InternetConfig internet;
  core::VnsConfig vns;
  geo::GeoIpErrorModel geoip_model;
  std::uint64_t geoip_seed = 4242;
  bool feed_routes = true;
  /// Stream the world in instead of materializing it: the Internet is built
  /// with generate_topology() only, and build() pumps stream_prefixes()
  /// batches through GeoIP construction and (when feed_routes) the VNS
  /// streamed feed.  The full PrefixInfo table never exists in memory —
  /// internet().prefixes() stays empty (use prefix_count()).  Converged
  /// routing state is identical to the materialized build (enforced by the
  /// StreamWorld equivalence tests).  xl_scale() turns this on by default.
  bool stream_generation = false;
  /// Model the documented behaviour behind the §5.2.2 London anomaly: the
  /// US-centred Tier-1 carries Europe-to-Europe traffic across its home
  /// backbone (over the Atlantic and back) instead of handing it off locally.
  bool model_us_backbone_detour = true;
  /// Not read by the library: convergence and FIB compilation run on one
  /// lane, and campaigns take their worker count as an argument.  Kept only
  /// because existing callers still assign it.
  int threads = 0;
  /// Optional trace sink (not owned; must outlive the Workbench), attached
  /// to the fabric *before* feed_routes so the initial announcement storm is
  /// captured too.  Null leaves tracing off.
  obs::TraceSink* trace = nullptr;

  [[nodiscard]] static WorkbenchConfig small(std::uint64_t seed = 1);
  [[nodiscard]] static WorkbenchConfig paper_scale(std::uint64_t seed = 1);
  /// The 10k-AS / 100k+-prefix full-table world (InternetScale::kFull).
  [[nodiscard]] static WorkbenchConfig full_scale(std::uint64_t seed = 1);
  /// The ~30k-AS / 1M+-prefix world (InternetScale::kXL), streamed: the
  /// million-route table is generated batch-by-batch and never materialized.
  [[nodiscard]] static WorkbenchConfig xl_scale(std::uint64_t seed = 1);

  /// Preset for a named tier; the scale knob behind bench `--scale`.
  [[nodiscard]] static WorkbenchConfig at_scale(topo::InternetScale scale,
                                                std::uint64_t seed = 1) {
    switch (scale) {
      case topo::InternetScale::kSmall: return small(seed);
      case topo::InternetScale::kFull: return full_scale(seed);
      case topo::InternetScale::kXL: return xl_scale(seed);
      case topo::InternetScale::kPaper: break;
    }
    return paper_scale(seed);
  }
};

/// One shard of a §5.1-style streaming campaign: a path, realized from the
/// shard's own RNG substream, streaming `profile` sessions on a fixed
/// schedule (the paper's two sessions per hour).
struct StreamTask {
  std::vector<sim::SegmentProfile> segments;
  double horizon_s = 0.0;      ///< burst timelines drawn over [0, horizon)
  double start_s = 0.0;
  double end_s = 0.0;          ///< 0: stream until horizon_s
  double interval_s = 1800.0;  ///< session cadence
  media::VideoProfile profile;
  media::SessionConfig session;
};

struct StreamTaskResult {
  std::vector<media::SessionStats> sessions;  ///< in schedule order
  util::Summary loss_percent;
  util::Summary jitter_ms;
};

/// Runs every streaming task, sharded across `threads` workers (<= 0
/// resolves VNS_THREADS, then hardware concurrency).  Task i draws
/// exclusively from `base.substream(i)`, and results land in task-indexed
/// slots, so the output is bit-identical for any thread count, including 1.
/// Bumps the "measure.sessions_streamed" and "measure.slots_analyzed"
/// counters.
[[nodiscard]] std::vector<StreamTaskResult> run_stream_campaign(
    std::span<const StreamTask> tasks, const util::Rng& base, int threads);

class Workbench {
 public:
  /// Builds the world: generate -> geolocate -> build VNS -> feed routes.
  [[nodiscard]] static std::unique_ptr<Workbench> build(const WorkbenchConfig& config);

  Workbench(const Workbench&) = delete;
  Workbench& operator=(const Workbench&) = delete;

  [[nodiscard]] const topo::Internet& internet() const noexcept { return internet_; }
  [[nodiscard]] const geo::GeoIpDatabase& geoip() const noexcept { return geoip_; }
  [[nodiscard]] core::VnsNetwork& vns() noexcept { return *vns_; }
  [[nodiscard]] const core::VnsNetwork& vns() const noexcept { return *vns_; }
  [[nodiscard]] const topo::SegmentCatalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] const topo::DelayModel& delay() const noexcept { return delay_; }
  [[nodiscard]] const WorkbenchConfig& config() const noexcept { return config_; }

  /// AS-index path a probe "forced out of VNS at `pop`" follows to the
  /// prefix (the local exit route's AS path); empty when unrouted.
  /// `upstreams_only` restricts the exit to transit sessions (§4.3).
  [[nodiscard]] std::vector<topo::AsIndex> local_exit_as_path(
      core::PopId pop, std::size_t prefix_id, bool upstreams_only = false) const;

  /// Segment list for that probe path; `include_last_mile` adds the
  /// destination access network (§5.2 campaigns) on top of the transit legs.
  [[nodiscard]] std::vector<sim::SegmentProfile> probe_segments(
      core::PopId pop, std::size_t prefix_id, bool include_last_mile,
      bool upstreams_only = false) const;

  /// Base RTT (ms) of that probe path to the prefix's true host location.
  [[nodiscard]] double probe_base_rtt_ms(core::PopId pop, std::size_t prefix_id,
                                         bool upstreams_only = false) const;

  /// One selected end host of the §5.2 campaign.
  struct LastMileHost {
    std::size_t prefix_id = 0;
    topo::AsType type = topo::AsType::kEC;
    geo::WorldRegion region = geo::WorldRegion::kEurope;
  };

  /// Selects the §5.2 host sample: `per_cell` hosts per (AS type x region)
  /// for NA, EU and AP — 12 cells, maximizing the number of distinct ASes
  /// (the paper's 600 = 50 x 4 types x 3 regions).  Deterministic per seed.
  [[nodiscard]] std::vector<LastMileHost> select_last_mile_hosts(int per_cell,
                                                                 std::uint64_t seed) const;

  /// Runs an internal-RTT probe campaign through a fault schedule (see
  /// failover.hpp).  Mutates and then restores the overlay per the schedule.
  [[nodiscard]] FailoverReport run_failover_probes(std::span<const FaultEvent> schedule,
                                                   const FailoverConfig& config);
  /// Streaming variant against the degraded internal paths.
  [[nodiscard]] FailoverStreamReport run_failover_streams(std::span<const FaultEvent> schedule,
                                                          const FailoverConfig& config,
                                                          const media::VideoProfile& profile,
                                                          const util::Rng& base);

 private:
  explicit Workbench(const WorkbenchConfig& config);

  WorkbenchConfig config_;
  topo::Internet internet_;
  geo::GeoIpDatabase geoip_;
  std::unique_ptr<core::VnsNetwork> vns_;
  topo::SegmentCatalog catalog_ = topo::SegmentCatalog::paper_calibrated();
  topo::DelayModel delay_;
};

}  // namespace vns::measure
