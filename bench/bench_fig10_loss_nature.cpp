// Figure 10 — the nature of loss: magnitude vs temporal spread.
//
// Methodology (§5.1.2): each two-minute session is split into 24 five-second
// slots; the number of lossy slots is plotted against the session's overall
// loss percentage, for the Amsterdam client through upstreams (top) and
// through VNS (bottom).
//
// Paper: through upstreams there is (a) a linear "baseline" of random loss
// (loss grows with the number of lossy slots), (b) upper-LEFT outliers —
// large loss concentrated in a few slots (short bursts: IGP convergence,
// brief congestion), and (c) upper-RIGHT outliers — large loss across the
// whole stream (sustained congestion / BGP convergence).  VNS eliminates
// both outlier families and the multi-slot small-loss baseline.
#include <iostream>

#include "bench/bench_common.hpp"
#include "media/session.hpp"
#include "sim/path_model.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

using namespace vns;

namespace {

struct ScatterStats {
  int sessions = 0;
  int lossy_sessions = 0;        ///< any loss at all
  int above_line = 0;            ///< > 0.15 % overall
  int burst_outliers = 0;        ///< > 0.15 % in <= 4 slots (upper left)
  int sustained_outliers = 0;    ///< > 0.15 % in >= 12 slots (upper right)
  util::Summary slots_when_small;  ///< lossy slots for sessions <= 0.15 %
  double corr_accum_x = 0, corr_accum_y = 0, corr_xx = 0, corr_yy = 0, corr_xy = 0;
  int corr_n = 0;

  void add(const media::SessionStats& stats) {
    ++sessions;
    const double loss = stats.loss_percent();
    const int slots = stats.lossy_slots();
    if (loss > 0.0) {
      ++lossy_sessions;
      // Correlation between lossy slots and loss magnitude over the
      // baseline band (the linear relationship the paper describes).
      if (loss <= 0.15) {
        slots_when_small.add(slots);
        corr_accum_x += slots;
        corr_accum_y += loss;
        corr_xx += double(slots) * slots;
        corr_yy += loss * loss;
        corr_xy += slots * loss;
        ++corr_n;
      }
    }
    if (loss > 0.15) {
      ++above_line;
      if (slots <= 4) ++burst_outliers;
      if (slots >= 12) ++sustained_outliers;
    }
  }

  [[nodiscard]] double baseline_correlation() const {
    if (corr_n < 3) return 0.0;
    const double n = corr_n;
    const double cov = corr_xy / n - (corr_accum_x / n) * (corr_accum_y / n);
    const double vx = corr_xx / n - (corr_accum_x / n) * (corr_accum_x / n);
    const double vy = corr_yy / n - (corr_accum_y / n) * (corr_accum_y / n);
    return (vx > 0 && vy > 0) ? cov / std::sqrt(vx * vy) : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  auto world = bench::build_world(args, "bench_fig10_loss_nature",
                                  "Fig. 10 (loss magnitude vs lossy 5s slots, Amsterdam)");
  auto& w = *world;
  const double days = bench::campaign_days(args, 3.0, 14.0);
  const double horizon = days * sim::kSecondsPerDay;
  const util::Rng rng{args.seed ^ 0xf16'10ULL};

  const auto client = *w.vns().find_pop("AMS");
  const char* servers[] = {"FRA", "HKG", "SIN", "ASH", "NYC"};
  const auto profile = media::VideoProfile::hd1080();
  media::SessionConfig session_config;

  // One streaming shard per (server, route); VNS tasks at even indices.
  std::vector<measure::StreamTask> tasks;
  for (std::size_t s = 0; s < std::size(servers); ++s) {
    const auto server = *w.vns().find_pop(servers[s]);
    const auto vns_segments = w.vns().internal_segments(client, server, w.catalog());
    std::vector<topo::AsIndex> transit_as_path;
    for (const auto& attachment : w.vns().attachments()) {
      if (attachment.pop == client && attachment.upstream) {
        transit_as_path.push_back(attachment.as);
        break;
      }
    }
    const auto transit_segments = topo::transit_path_segments(
        w.internet(), w.vns().pop(client).city.location, w.vns().pop(client).city.region,
        transit_as_path, w.vns().pop(server).city.location, topo::AsType::kLTP,
        w.vns().pop(server).city.region, w.catalog(), w.delay(), false);

    for (const bool via_vns : {true, false}) {
      measure::StreamTask task;
      task.segments = via_vns ? vns_segments : transit_segments;
      task.horizon_s = horizon;
      task.start_s = s * 150.0;
      task.end_s = horizon - 150.0;
      task.interval_s = 1800.0;
      task.profile = profile;
      task.session = session_config;
      tasks.push_back(std::move(task));
    }
  }

  const auto campaign_t0 = std::chrono::steady_clock::now();
  const auto results = measure::run_stream_campaign(tasks, rng, args.threads);
  const double campaign_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - campaign_t0).count();
  ScatterStats through_vns, through_transit;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto& scatter = (i % 2 == 0) ? through_vns : through_transit;
    for (const auto& stats : results[i].sessions) scatter.add(stats);
  }

  util::TextTable table{{"metric", "through upstreams", "through VNS"}};
  auto pct = [](int part, int whole) {
    return whole ? util::format_percent(double(part) / whole, 2) : "n/a";
  };
  table.add_row({"sessions", std::to_string(through_transit.sessions),
                 std::to_string(through_vns.sessions)});
  table.add_row({"sessions with any loss",
                 pct(through_transit.lossy_sessions, through_transit.sessions),
                 pct(through_vns.lossy_sessions, through_vns.sessions)});
  table.add_row({"sessions > 0.15% loss", pct(through_transit.above_line, through_transit.sessions),
                 pct(through_vns.above_line, through_vns.sessions)});
  table.add_row({"upper-LEFT outliers (>0.15%, <=4 slots)",
                 std::to_string(through_transit.burst_outliers),
                 std::to_string(through_vns.burst_outliers)});
  table.add_row({"upper-RIGHT outliers (>0.15%, >=12 slots)",
                 std::to_string(through_transit.sustained_outliers),
                 std::to_string(through_vns.sustained_outliers)});
  table.add_row({"baseline corr(lossy slots, loss%)",
                 util::format_double(through_transit.baseline_correlation(), 2),
                 util::format_double(through_vns.baseline_correlation(), 2)});
  table.add_row({"mean lossy slots (small-loss sessions)",
                 util::format_double(through_transit.slots_when_small.mean(), 1),
                 util::format_double(through_vns.slots_when_small.mean(), 1)});
  std::cout << "Fig 10 - loss magnitude vs number of lossy 5s slots (Amsterdam client):\n";
  table.print(std::cout);
  std::cout << "paper: transit shows a linear random-loss baseline plus both outlier\n"
               "families; VNS eliminates the outliers and the multi-slot baseline\n";
  bench::metric("transit_sessions", std::uint64_t(through_transit.sessions));
  bench::metric("vns_sessions", std::uint64_t(through_vns.sessions));
  bench::metric("transit_burst_outliers", std::uint64_t(through_transit.burst_outliers));
  bench::metric("transit_sustained_outliers", std::uint64_t(through_transit.sustained_outliers));
  bench::metric("vns_burst_outliers", std::uint64_t(through_vns.burst_outliers));
  bench::metric("vns_sustained_outliers", std::uint64_t(through_vns.sustained_outliers));
  bench::finish_run(args, campaign_s);
  return 0;
}
