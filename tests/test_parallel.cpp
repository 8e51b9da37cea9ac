// Tests for the parallel measurement engine: the thread pool, RNG
// jump/substream sharding, the campaign work counters, and — the core contract —
// bit-identical campaign results regardless of thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "measure/prober.hpp"
#include "measure/workbench.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vns {
namespace {

// ------------------------------------------------------------ thread pool --

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool{4};
  EXPECT_EQ(pool.size(), 3u);  // the caller is the fourth lane
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SingleLaneRunsInline) {
  util::ThreadPool pool{1};
  EXPECT_EQ(pool.size(), 0u);
  int sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  util::ThreadPool pool{3};
  std::atomic<int> total{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(100, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, FirstExceptionPropagatesAndPoolSurvives) {
  util::ThreadPool pool{2};
  EXPECT_THROW(pool.parallel_for(50,
                                 [&](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("shard failed");
                                 }),
               std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, WorkerThrownExceptionReachesTheCaller) {
  // FirstExceptionPropagates above can be satisfied by the caller's own lane
  // hitting the throwing index.  Pin the throw to an index claimed by a
  // *worker* thread: the pool must hand the exception_ptr across threads and
  // rethrow it on the submitting thread, not swallow it in worker_loop.
  util::ThreadPool pool{2};
  ASSERT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> worker_throws{0};
  for (int round = 0; round < 20 && worker_throws.load() == 0; ++round) {
    bool threw = false;
    try {
      pool.parallel_for(32, [&](std::size_t) {
        if (std::this_thread::get_id() != caller) {
          ++worker_throws;
          throw std::runtime_error("worker shard failed");
        }
        // Slow the caller's lane down so the worker claims a share even on a
        // single hardware thread.
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
    // Whenever a worker lane threw, the caller must have seen it.
    if (worker_throws.load() > 0) EXPECT_TRUE(threw);
  }
  EXPECT_GT(worker_throws.load(), 0);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(util::resolve_thread_count(5), 5u);
  ::setenv("VNS_THREADS", "3", 1);
  EXPECT_EQ(util::resolve_thread_count(0), 3u);
  EXPECT_EQ(util::resolve_thread_count(2), 2u);  // explicit beats env
  ::unsetenv("VNS_THREADS");
  EXPECT_GE(util::resolve_thread_count(0), 1u);
}

// -------------------------------------------------------- jump/substream ---

TEST(Rng, JumpIsDeterministicAndDiverges) {
  util::Rng a{123};
  util::Rng b{123};
  a.jump();
  b.jump();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());

  util::Rng parent{123};
  util::Rng jumped = parent;
  jumped.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (parent() == jumped());
  EXPECT_LT(equal, 5);
}

TEST(Rng, SubstreamMatchesIteratedJumps) {
  const util::Rng base{7};
  util::Rng manual = base;
  manual.jump();
  manual.jump();
  manual.jump();
  util::Rng sub = base.substream(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(manual(), sub());
}

TEST(Rng, SubstreamsAreMutuallyDisjoint) {
  const util::Rng base{99};
  util::Rng s0 = base.substream(0);
  util::Rng s1 = base.substream(1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (s0() == s1());
  EXPECT_LT(equal, 5);
}

// --------------------------------------- campaign thread-count invariance --

sim::SegmentProfile lossy_segment(int i) {
  sim::SegmentProfile seg;
  seg.label = "seg";
  seg.rtt_ms = 40.0 + i;
  seg.random_loss = 0.005 + 0.001 * i;
  seg.congestion_loss = 0.03;
  seg.diurnal = sim::DiurnalProfile{0.1, 0.5, 0.4};
  seg.burst_rate_per_day = 6.0;
  return seg;
}

TEST(Campaign, TrainResultsBitIdenticalAcrossThreadCounts) {
  std::vector<measure::TrainTask> tasks;
  for (int i = 0; i < 9; ++i) {
    measure::TrainTask task;
    task.segments = {lossy_segment(i)};
    task.horizon_s = 6 * 3600.0;
    task.interval_s = 600.0;
    task.packets = 100;
    tasks.push_back(std::move(task));
  }
  const util::Rng base{4242};
  const auto serial = measure::run_train_campaign(tasks, base, 1);
  const auto parallel = measure::run_train_campaign(tasks, base, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].rounds.size(), parallel[i].rounds.size());
    for (std::size_t r = 0; r < serial[i].rounds.size(); ++r) {
      EXPECT_EQ(serial[i].rounds[r].t, parallel[i].rounds[r].t);
      EXPECT_EQ(serial[i].rounds[r].lost, parallel[i].rounds[r].lost);
    }
    // Per-shard summaries must match to the last bit, and so must the
    // deterministic task-order merge.
    EXPECT_EQ(serial[i].loss_fraction.count(), parallel[i].loss_fraction.count());
    EXPECT_EQ(serial[i].loss_fraction.mean(), parallel[i].loss_fraction.mean());
    EXPECT_EQ(serial[i].loss_fraction.variance(), parallel[i].loss_fraction.variance());
  }
  const auto merged_serial = measure::merged_loss_fraction(serial);
  const auto merged_parallel = measure::merged_loss_fraction(parallel);
  EXPECT_EQ(merged_serial.count(), merged_parallel.count());
  EXPECT_EQ(merged_serial.mean(), merged_parallel.mean());
  EXPECT_EQ(merged_serial.variance(), merged_parallel.variance());
}

TEST(Campaign, StreamResultsBitIdenticalAcrossThreadCounts) {
  std::vector<measure::StreamTask> tasks;
  for (int i = 0; i < 6; ++i) {
    measure::StreamTask task;
    task.segments = {lossy_segment(i)};
    task.horizon_s = 2 * 3600.0;
    task.interval_s = 1800.0;
    task.profile = media::VideoProfile::hd720();
    tasks.push_back(std::move(task));
  }
  const util::Rng base{171};
  const auto serial = measure::run_stream_campaign(tasks, base, 1);
  const auto parallel = measure::run_stream_campaign(tasks, base, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].sessions.size(), parallel[i].sessions.size());
    for (std::size_t s = 0; s < serial[i].sessions.size(); ++s) {
      const auto& a = serial[i].sessions[s];
      const auto& b = parallel[i].sessions[s];
      EXPECT_EQ(a.packets_sent, b.packets_sent);
      EXPECT_EQ(a.packets_lost, b.packets_lost);
      EXPECT_EQ(a.slot_losses, b.slot_losses);
      EXPECT_EQ(a.jitter_ms, b.jitter_ms);
    }
    EXPECT_EQ(serial[i].loss_percent.mean(), parallel[i].loss_percent.mean());
    EXPECT_EQ(serial[i].jitter_ms.mean(), parallel[i].jitter_ms.mean());
  }
}

// ------------------------------------------------- reach-cache data race --

TEST(Campaign, SelectIngressIsSafeAndStableUnderConcurrency) {
  // Regression for the reach_cache_ data race: select_ingress() used to
  // lazily populate a mutable cache from const context, so concurrent
  // campaign shards could write the same map.  feed_routes() now pre-warms
  // the cache for every neighbor AS (a cold miss afterwards asserts), which
  // makes concurrent lookups read-only.  Hammer it and check the answers
  // match a serial pass bit-for-bit.
  auto world = measure::Workbench::build(measure::WorkbenchConfig::small(11));
  const auto& vns = world->vns();
  const auto& internet = world->internet();

  std::vector<topo::AsIndex> ases;
  for (topo::AsIndex as = 0; as < internet.as_count(); as += 3) ases.push_back(as);
  std::vector<core::PopId> serial(ases.size());
  for (std::size_t i = 0; i < ases.size(); ++i) {
    serial[i] = vns.select_ingress(ases[i], internet.as_at(ases[i]).home.location);
  }

  util::ThreadPool pool{4};
  for (int round = 0; round < 8; ++round) {
    std::vector<core::PopId> parallel(ases.size());
    pool.parallel_for(ases.size(), [&](std::size_t i) {
      parallel[i] = vns.select_ingress(ases[i], internet.as_at(ases[i]).home.location);
    });
    EXPECT_EQ(parallel, serial) << "round " << round;
  }
}

TEST(Campaign, CountsProbesSent) {
  const auto& metrics = obs::MetricsRegistry::global();
  constexpr auto probes = obs::metric("counters.measure.probes_sent");
  const std::uint64_t before = metrics.count(probes);
  std::vector<measure::TrainTask> tasks;
  measure::TrainTask task;
  task.segments = {lossy_segment(0)};
  task.horizon_s = 3600.0;
  task.interval_s = 600.0;
  task.packets = 50;
  tasks.push_back(std::move(task));
  (void)measure::run_train_campaign(tasks, util::Rng{1}, 2);
  EXPECT_EQ(metrics.count(probes) - before, 6u * 50u);
}

}  // namespace
}  // namespace vns
