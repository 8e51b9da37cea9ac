// Tests for vns::traffic — gravity-matrix determinism and consistency, load
// assignment conservation and overload saturation, the zero-load identity
// behind the byte-for-byte regression contract, and the QoE-gated WAN
// offload policy.  Runs under the tsan_concurrency_sweep (Traffic.*).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "measure/workbench.hpp"
#include "obs/metrics.hpp"
#include "sim/path_model.hpp"
#include "traffic/assignment.hpp"
#include "traffic/matrix.hpp"
#include "traffic/offload.hpp"

namespace vns::traffic {
namespace {

measure::Workbench& world() {
  static const auto instance = [] {
    auto w = measure::Workbench::build(measure::WorkbenchConfig::small(7));
    w->vns().set_geo_routing(true);
    return w;
  }();
  return *instance;
}

MatrixConfig hot_config(double offered_mbps) {
  MatrixConfig config;
  config.offered_load_mbps = offered_mbps;
  config.seed = 99;
  return config;
}

/// The instant of maximum total offered load, scanned hourly.
double peak_time(const Matrix& matrix) {
  double best_t = 0.0, best_total = -1.0;
  for (int h = 0; h < 24; ++h) {
    const double t = 3600.0 * h;
    double total = 0.0;
    for (core::PopId s = 0; s < matrix.pop_count(); ++s)
      for (core::PopId e = 0; e < matrix.pop_count(); ++e) total += matrix.demand_mbps(s, e, t);
    if (total > best_total) {
      best_total = total;
      best_t = t;
    }
  }
  return best_t;
}

// ---------------------------------------------------------------- matrix ----

TEST(Traffic, MatrixIsBitIdenticalAcrossThreadCounts) {
  auto& w = world();
  auto config = hot_config(50000.0);
  config.threads = 1;
  const auto serial = Matrix::build(w.vns(), w.internet(), config);
  config.threads = 4;
  const auto sharded = Matrix::build(w.vns(), w.internet(), config);

  ASSERT_EQ(serial.pop_count(), sharded.pop_count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.total_users()),
            std::bit_cast<std::uint64_t>(sharded.total_users()));
  for (core::PopId s = 0; s < serial.pop_count(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.users(s)),
              std::bit_cast<std::uint64_t>(sharded.users(s)));
    for (core::PopId e = 0; e < serial.pop_count(); ++e) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.peak_demand_mbps(s, e)),
                std::bit_cast<std::uint64_t>(sharded.peak_demand_mbps(s, e)));
      EXPECT_EQ(serial.representative_prefix(s, e), sharded.representative_prefix(s, e));
    }
  }
}

TEST(Traffic, MatrixGravityConsistency) {
  auto& w = world();
  const auto matrix = Matrix::build(w.vns(), w.internet(), hot_config(50000.0));

  EXPECT_EQ(matrix.pop_count(), w.vns().pops().size());
  EXPECT_GT(matrix.total_users(), 0.0);
  double user_sum = 0.0;
  for (core::PopId p = 0; p < matrix.pop_count(); ++p) user_sum += matrix.users(p);
  EXPECT_NEAR(user_sum, matrix.total_users(), 1e-6 * matrix.total_users());

  // Shares are normalized: peak demands sum back to the configured load.
  double peak_sum = 0.0;
  for (core::PopId s = 0; s < matrix.pop_count(); ++s) {
    for (core::PopId e = 0; e < matrix.pop_count(); ++e) {
      const double peak = matrix.peak_demand_mbps(s, e);
      EXPECT_GE(peak, 0.0);
      peak_sum += peak;
      // A nonzero cell always has a representative prefix to probe.
      EXPECT_EQ(matrix.representative_prefix(s, e).has_value(), peak > 0.0);
      for (double t : {0.0, 3600.0 * 9, 3600.0 * 15 + 7.0, 3600.0 * 22}) {
        const double m = matrix.modulation(s, e, t);
        EXPECT_GE(m, 0.0);
        EXPECT_LE(m, 1.0);
        EXPECT_LE(matrix.demand_mbps(s, e, t), peak * (1.0 + 1e-12));
      }
    }
  }
  EXPECT_NEAR(peak_sum, 50000.0, 1e-6 * 50000.0);
}

TEST(Traffic, ZeroOfferedLoadIsTheIdentity) {
  auto& w = world();
  const auto matrix = Matrix::build(w.vns(), w.internet(), hot_config(0.0));
  // The population model is load-independent; only the demand is zero.
  for (core::PopId s = 0; s < matrix.pop_count(); ++s)
    for (core::PopId e = 0; e < matrix.pop_count(); ++e)
      EXPECT_DOUBLE_EQ(matrix.peak_demand_mbps(s, e), 0.0);

  const auto snap = assign_load(w.vns(), matrix, 3600.0 * 12);
  EXPECT_EQ(snap.links_loaded, 0u);
  EXPECT_DOUBLE_EQ(snap.routed_mbps, 0.0);
  EXPECT_DOUBLE_EQ(snap.unrouted_mbps, 0.0);
  EXPECT_DOUBLE_EQ(snap.util_max, 0.0);
  for (const double u : snap.link_utilization) EXPECT_DOUBLE_EQ(u, 0.0);

  // Annotating a path with an all-zero snapshot changes nothing: the
  // byte-for-byte contract the golden regressions in test_sim/test_media
  // pin down from the other side.
  const auto plain = w.vns().internal_segments(0, 1, w.catalog());
  const auto annotated =
      w.vns().internal_segments(0, 1, w.catalog(), snap.link_utilization);
  ASSERT_EQ(plain.size(), annotated.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_DOUBLE_EQ(annotated[i].utilization, 0.0);
    EXPECT_DOUBLE_EQ(annotated[i].utilization_loss(), 0.0);
    EXPECT_DOUBLE_EQ(annotated[i].utilization_queue_ms(), 0.0);
  }
  (void)plain;
}

// ------------------------------------------------------------ assignment ----

TEST(Traffic, AssignmentConservesDemand) {
  auto& w = world();
  const auto matrix = Matrix::build(w.vns(), w.internet(), hot_config(80000.0));
  const double t = peak_time(matrix);
  const auto snap = assign_load(w.vns(), matrix, t);

  double total = 0.0;
  for (core::PopId s = 0; s < matrix.pop_count(); ++s)
    for (core::PopId e = 0; e < matrix.pop_count(); ++e) total += matrix.demand_mbps(s, e, t);
  EXPECT_NEAR(snap.routed_mbps + snap.unrouted_mbps, total, 1e-6 * total);
  EXPECT_GT(snap.links_loaded, 0u);
  EXPECT_GT(snap.util_max, 0.0);
  EXPECT_GE(snap.util_max, snap.util_p50);

  // Pure function of its inputs: a second pass is bit-identical.
  const auto again = assign_load(w.vns(), matrix, t);
  ASSERT_EQ(again.link_offered_mbps.size(), snap.link_offered_mbps.size());
  for (std::size_t i = 0; i < snap.link_offered_mbps.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again.link_offered_mbps[i]),
              std::bit_cast<std::uint64_t>(snap.link_offered_mbps[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again.link_utilization[i]),
              std::bit_cast<std::uint64_t>(snap.link_utilization[i]));
  }
}

TEST(Traffic, OverloadSaturatesInsteadOfOverflowing) {
  auto& w = world();
  // ~100x past every circuit's capacity — and then some: the accumulators,
  // utilization, and the loss curves must clamp, never NaN/inf.
  for (const double offered : {1e9, 1e15, 1e18}) {
    const auto matrix = Matrix::build(w.vns(), w.internet(), hot_config(offered));
    const auto snap = assign_load(w.vns(), matrix, 3600.0 * 13);

    EXPECT_TRUE(std::isfinite(snap.routed_mbps));
    EXPECT_TRUE(std::isfinite(snap.unrouted_mbps));
    EXPECT_LE(snap.routed_mbps, kMaxOfferedMbps);
    for (const double v : snap.link_offered_mbps) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_LE(v, kMaxOfferedMbps);
    }
    AssignmentConfig aconfig;
    for (const double u : snap.link_utilization) {
      EXPECT_TRUE(std::isfinite(u));
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, aconfig.utilization_cap);
    }
    for (const double u : snap.attachment_utilization) {
      EXPECT_TRUE(std::isfinite(u));
      EXPECT_LE(u, aconfig.utilization_cap);
    }

    // Even at absurd overload the composed path loss is a probability and
    // the per-segment utilization loss is pinned at the curve ceiling.
    const auto segments =
        w.vns().internal_segments(0, 1, w.catalog(), snap.link_utilization);
    for (const auto& seg : segments) {
      EXPECT_TRUE(std::isfinite(seg.utilization_loss()));
      EXPECT_LE(seg.utilization_loss(), seg.util_loss_ceiling);
      EXPECT_TRUE(std::isfinite(seg.utilization_queue_ms()));
      EXPECT_LE(seg.utilization_queue_ms(), seg.util_queue_cap_ms);
    }
    const sim::PathModel path{segments, 0.0, util::Rng{1}};
    const double loss = path.loss_probability(3600.0 * 13);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GE(loss, 0.0);
    EXPECT_LE(loss, 1.0);
  }
}

// --------------------------------------------------------------- offload ----

/// A matrix scaled so the hottest long-haul lands at ~`target_util` at its
/// diurnal peak (utilization is linear in the offered load).
Matrix overloaded_matrix(measure::Workbench& w, double target_util, double& t_out) {
  const auto pilot = Matrix::build(w.vns(), w.internet(), hot_config(100000.0));
  const double t = peak_time(pilot);
  const auto snap = assign_load(w.vns(), pilot, t);
  double hottest = 0.0;
  for (std::size_t i = 0; i < w.vns().links().size(); ++i) {
    if (w.vns().links()[i].long_haul) hottest = std::max(hottest, snap.link_utilization[i]);
  }
  EXPECT_GT(hottest, 0.0) << "no long-haul carries load in the small world";
  t_out = t;
  return Matrix::build(w.vns(), w.internet(),
                       hot_config(100000.0 * target_util / hottest));
}

TEST(Traffic, OffloadMovesFlowsWhenInternetQualityClears) {
  auto& w = world();
  double t = 0.0;
  const auto matrix = overloaded_matrix(w, 1.1, t);
  auto snap = assign_load(w.vns(), matrix, t);
  const auto before = snap;
  ASSERT_GT(before.util_max, 0.85);

  OffloadConfig oconfig;  // threshold 0.85, target 0.75
  const OffloadPolicy policy{oconfig, [](core::PopId, core::PopId) {
                               return PathQuality{true, 0.001, 50.0};
                             }};
  const auto report = policy.evaluate(w.vns(), matrix, t, snap);

  EXPECT_GT(report.offloaded_flows, 0u);
  EXPECT_EQ(report.rejected_flows, 0u);
  EXPECT_GT(report.moved_mbps, 0.0);
  EXPECT_GT(report.wan_bytes_saved, 0.0);
  EXPECT_LT(snap.util_max, before.util_max);
  const auto links = w.vns().links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!links[i].long_haul) continue;
    // Offload only ever cools circuits, and every accepted move is real
    // crossing demand — no circuit is driven below zero.
    EXPECT_LE(snap.link_utilization[i], before.link_utilization[i] + 1e-12);
    EXPECT_GE(snap.link_offered_mbps[i], -1e-9);
  }
  for (const auto& d : report.decisions) {
    EXPECT_TRUE(d.accepted);
    EXPECT_GT(d.flows, 0u);
    // Whole flows, but a cell can run out of demand mid-flow: the move is
    // capped by the cell's remaining demand.
    EXPECT_LE(d.moved_mbps, static_cast<double>(d.flows) * oconfig.flow_mbps + 1e-9);
    EXPECT_GT(d.moved_mbps, static_cast<double>(d.flows - 1) * oconfig.flow_mbps);
  }
}

TEST(Traffic, OffloadHoldsFlowsBelowTheQoeFloor) {
  auto& w = world();
  double t = 0.0;
  const auto matrix = overloaded_matrix(w, 1.1, t);
  auto snap = assign_load(w.vns(), matrix, t);
  const auto before = snap;

  // Internet alternative measures terribly: loss far above qoe_max_loss.
  const OffloadPolicy bad{OffloadConfig{}, [](core::PopId, core::PopId) {
                            return PathQuality{true, 0.5, 50.0};
                          }};
  const auto report = bad.evaluate(w.vns(), matrix, t, snap);
  EXPECT_EQ(report.offloaded_flows, 0u);
  EXPECT_GT(report.rejected_flows, 0u);
  EXPECT_DOUBLE_EQ(report.moved_mbps, 0.0);
  EXPECT_DOUBLE_EQ(report.wan_bytes_saved, 0.0);
  // Nothing moved: the load picture is untouched, bit for bit.
  for (std::size_t i = 0; i < snap.link_offered_mbps.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(snap.link_offered_mbps[i]),
              std::bit_cast<std::uint64_t>(before.link_offered_mbps[i]));
  }

  // An unreachable alternative (probe invalid) is an automatic reject too.
  auto snap2 = assign_load(w.vns(), matrix, t);
  const OffloadPolicy unreachable{OffloadConfig{}, [](core::PopId, core::PopId) {
                                    return PathQuality{};
                                  }};
  const auto report2 = unreachable.evaluate(w.vns(), matrix, t, snap2);
  EXPECT_EQ(report2.offloaded_flows, 0u);
  EXPECT_DOUBLE_EQ(report2.wan_bytes_saved, 0.0);
}

// --------------------------------------------------------------- metrics ----

TEST(Traffic, MetricsSnapshotAccumulates) {
  // Each assignment pass publishes its summary to the registry's traffic
  // block; offload evaluations accumulate their moves there.
  auto& w = world();
  const auto& metrics = obs::MetricsRegistry::global();
  constexpr auto assignments = obs::metric("traffic.assignments");
  constexpr auto offloaded = obs::metric("traffic.offloaded_flows");
  constexpr auto rejected = obs::metric("traffic.rejected_flows");
  constexpr auto saved = obs::metric("traffic.wan_bytes_saved");
  double t = 0.0;
  const auto matrix = overloaded_matrix(w, 1.1, t);
  const std::uint64_t assignments_before = metrics.count(assignments);
  auto snap = assign_load(w.vns(), matrix, t);
  EXPECT_EQ(metrics.count(assignments), assignments_before + 1);
  EXPECT_EQ(metrics.count(obs::metric("traffic.links_loaded")), snap.links_loaded);
  EXPECT_DOUBLE_EQ(metrics.value(obs::metric("traffic.util_p50")), snap.util_p50);
  EXPECT_DOUBLE_EQ(metrics.value(obs::metric("traffic.util_max")), snap.util_max);
  EXPECT_DOUBLE_EQ(metrics.value(obs::metric("traffic.unrouted_mbps")), snap.unrouted_mbps);

  const std::uint64_t offloaded_before = metrics.count(offloaded);
  const std::uint64_t rejected_before = metrics.count(rejected);
  const double saved_before = metrics.value(saved);
  const OffloadPolicy policy{OffloadConfig{}, [](core::PopId, core::PopId) {
                               return PathQuality{true, 0.001, 50.0};
                             }};
  auto second = snap;
  const auto report = policy.evaluate(w.vns(), matrix, t, snap);
  const auto again = policy.evaluate(w.vns(), matrix, t, second);
  ASSERT_GT(report.offloaded_flows, 0u);
  EXPECT_EQ(metrics.count(offloaded) - offloaded_before,
            report.offloaded_flows + again.offloaded_flows);
  EXPECT_EQ(metrics.count(rejected) - rejected_before,
            report.rejected_flows + again.rejected_flows);
  const double moved = report.wan_bytes_saved + again.wan_bytes_saved;
  EXPECT_NEAR(metrics.value(saved) - saved_before, moved, 1e-9 * (saved_before + moved));
}

}  // namespace
}  // namespace vns::traffic
