#include "measure/prober.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "util/thread_pool.hpp"

namespace vns::measure {

PingResult Prober::ping(const sim::PathModel& path, double t, int count) {
  PingResult result;
  result.sent = count;
  const double p_one_way = path.loss_probability(t, cache_);
  // Round trip: the echo must survive both directions.
  const double p_rt = 1.0 - (1.0 - p_one_way) * (1.0 - p_one_way);
  for (int i = 0; i < count; ++i) {
    if (rng_.bernoulli(p_rt)) {
      ++result.lost;
      continue;
    }
    const double rtt = path.sample_rtt_ms(t, rng_, cache_);
    if (!result.min_rtt_ms || rtt < *result.min_rtt_ms) result.min_rtt_ms = rtt;
  }
  return result;
}

TrainResult Prober::train(const sim::PathModel& path, double t, int count) {
  TrainResult result;
  result.sent = count;
  result.lost =
      static_cast<int>(path.sample_losses(t, static_cast<std::uint32_t>(count), rng_, cache_));
  return result;
}

std::vector<TrainTaskResult> run_train_campaign(std::span<const TrainTask> tasks,
                                                const util::Rng& base, int threads) {
  const obs::ScopedTimer span{obs::MetricsRegistry::global(), "campaign.train"};
  std::vector<TrainTaskResult> results(tasks.size());
  // Lay the shard substreams out once, serially: substream i sits i+1 jumps
  // past `base`, independent of how shards later map onto workers.
  std::vector<util::Rng> streams;
  streams.reserve(tasks.size());
  util::Rng cursor = base;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    cursor.jump();
    streams.push_back(cursor);
  }
  util::parallel_for(tasks.size(), threads, [&](std::size_t i) {
    const TrainTask& task = tasks[i];
    util::Rng shard_rng = streams[i];
    const sim::PathModel path{task.segments, task.horizon_s, shard_rng.fork("path")};
    Prober prober{shard_rng.fork("trains")};
    TrainTaskResult& result = results[i];
    const double end = task.end_s > 0.0 ? task.end_s : task.horizon_s;
    std::uint64_t probes = 0;
    for (double t = task.start_s; t < end; t += task.interval_s) {
      const auto train = prober.train(path, t, task.packets);
      result.rounds.push_back({t, train.lost});
      result.loss_fraction.add(train.loss_fraction());
      probes += static_cast<std::uint64_t>(train.sent);
    }
    obs::MetricsRegistry::global().add(obs::metric("counters.measure.probes_sent"), probes);
  });
  return results;
}

util::Summary merged_loss_fraction(std::span<const TrainTaskResult> results) {
  util::Summary merged;
  for (const auto& result : results) merged.merge(result.loss_fraction);
  return merged;
}

VantageCampaignResult run_vantage_campaign(
    std::uint64_t count, const util::Rng& base, int threads,
    const std::function<double(std::uint64_t index, util::Rng& rng)>& sample) {
  const obs::ScopedTimer span{obs::MetricsRegistry::global(), "campaign.vantage"};
  const std::uint64_t chunks = (count + kVantageChunk - 1) / kVantageChunk;
  // Same substream discipline as run_train_campaign, but the parallel unit
  // is a fixed-size chunk of vantages rather than a task: chunk i sits i+1
  // jumps past `base` no matter how chunks map onto workers.
  std::vector<util::Rng> streams;
  streams.reserve(chunks);
  util::Rng cursor = base;
  for (std::uint64_t i = 0; i < chunks; ++i) {
    cursor.jump();
    streams.push_back(cursor);
  }
  std::vector<util::Summary> partials(chunks);
  util::parallel_for(static_cast<std::size_t>(chunks), threads, [&](std::size_t c) {
    util::Rng chunk_rng = streams[c].fork("vantage");
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * kVantageChunk;
    const std::uint64_t end = std::min(count, begin + kVantageChunk);
    for (std::uint64_t v = begin; v < end; ++v) {
      partials[c].add(sample(v, chunk_rng));
    }
    obs::MetricsRegistry::global().add(obs::metric("counters.measure.vantages_sampled"),
                                       end - begin);
  });
  VantageCampaignResult result;
  result.vantages = count;
  for (const auto& partial : partials) result.values.merge(partial);
  return result;
}

void HourlyLossCounter::record(double t_seconds, bool had_loss) noexcept {
  const int hour = static_cast<int>(sim::local_hour(t_seconds, tz_)) % 24;
  total_[static_cast<std::size_t>(hour)]++;
  if (had_loss) lossy_[static_cast<std::size_t>(hour)]++;
}

std::uint32_t HourlyLossCounter::peak_lossy_rounds() const noexcept {
  return *std::max_element(lossy_.begin(), lossy_.end());
}

}  // namespace vns::measure
