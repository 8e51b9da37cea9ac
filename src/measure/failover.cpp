#include "measure/failover.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/path_model.hpp"

namespace vns::measure {
namespace {

/// Expands the configured pair list (empty -> all unordered PoP pairs).
std::vector<std::pair<core::PopId, core::PopId>> probe_pairs(const core::VnsNetwork& vns,
                                                             const FailoverConfig& config) {
  if (!config.pairs.empty()) return config.pairs;
  std::vector<std::pair<core::PopId, core::PopId>> pairs;
  const auto pops = vns.pops();
  for (core::PopId a = 0; a < pops.size(); ++a) {
    for (core::PopId b = a + 1; b < pops.size(); ++b) pairs.emplace_back(a, b);
  }
  return pairs;
}

/// Applies one fault/repair; returns true when the network actually changed.
bool apply_event(core::VnsNetwork& vns, const FaultEvent& event) {
  switch (event.kind) {
    case FaultEvent::Kind::kLink:
      return event.fail ? vns.fail_pop_link(event.a, event.b)
                        : vns.restore_pop_link(event.a, event.b);
    case FaultEvent::Kind::kPop:
      if (event.fail) {
        if (vns.pop_is_down(event.a)) return false;
        vns.fail_pop(event.a);
      } else {
        if (!vns.pop_is_down(event.a)) return false;
        vns.restore_pop(event.a);
      }
      return true;
    case FaultEvent::Kind::kUpstream:
      return event.fail ? vns.fail_upstream(event.a, event.which)
                        : vns.restore_upstream(event.a, event.which);
  }
  return false;
}

/// Shared driver: plays the schedule on an EventQueue and calls `sample`
/// once per (pair, probe tick) with the current phase.
template <typename SampleFn>
void drive(core::VnsNetwork& vns, std::span<const FaultEvent> schedule,
           const FailoverConfig& config,
           const std::vector<std::pair<core::PopId, core::PopId>>& pairs,
           std::size_t& faults_applied, std::size_t& repairs_applied, SampleFn&& sample) {
  sim::EventQueue queue;
  int active_faults = 0;
  bool any_fault_seen = false;
  // Faults first, then probe rounds: at an exactly shared timestamp the
  // probe observes the post-fault network (FIFO among equal times).
  for (const FaultEvent& event : schedule) {
    queue.schedule(event.at_s, [&vns, &faults_applied, &repairs_applied, &active_faults,
                                &any_fault_seen, event] {
      if (!apply_event(vns, event)) return;
      if (event.fail) {
        ++active_faults;
        ++faults_applied;
        any_fault_seen = true;
      } else {
        active_faults = std::max(0, active_faults - 1);
        ++repairs_applied;
      }
    });
  }
  for (double t = 0.0; t < config.horizon_s; t += config.probe_interval_s) {
    queue.schedule(t, [&, t] {
      const FaultPhase phase = active_faults > 0 ? FaultPhase::kDuring
                               : any_fault_seen  ? FaultPhase::kPost
                                                 : FaultPhase::kPre;
      for (std::size_t p = 0; p < pairs.size(); ++p) sample(t, p, pairs[p], phase);
    });
  }
  queue.run_all();
}

}  // namespace

FailoverReport run_failover_probes(core::VnsNetwork& vns, std::span<const FaultEvent> schedule,
                                   const FailoverConfig& config) {
  const obs::ScopedTimer span{obs::MetricsRegistry::global(), "campaign.failover_probes"};
  FailoverReport report;
  report.pairs = probe_pairs(vns, config);
  auto phase_stats = [&report](FaultPhase phase) -> PhaseStats& {
    switch (phase) {
      case FaultPhase::kDuring: return report.during_fault;
      case FaultPhase::kPost: return report.post;
      case FaultPhase::kPre: break;
    }
    return report.pre;
  };
  drive(vns, schedule, config, report.pairs, report.faults_applied, report.repairs_applied,
        [&](double t, std::size_t pair_index, const std::pair<core::PopId, core::PopId>& pair,
            FaultPhase phase) {
          PhaseStats& stats = phase_stats(phase);
          ++stats.probes;
          FailoverSample sample;
          sample.t_s = t;
          sample.pair = pair_index;
          sample.phase = phase;
          const auto path = vns.internal_path(pair.first, pair.second);
          sample.reachable = pair.first == pair.second || path.size() > 1;
          if (sample.reachable) {
            sample.rtt_ms = vns.internal_rtt_ms(pair.first, pair.second);
            stats.rtt_ms.add(sample.rtt_ms);
          } else {
            ++stats.unreachable;
          }
          report.samples.push_back(sample);
        });
  obs::MetricsRegistry::global().add(obs::metric("counters.measure.failover_probes"),
                                     report.samples.size());
  return report;
}

FailoverStreamReport run_failover_streams(core::VnsNetwork& vns,
                                          const topo::SegmentCatalog& catalog,
                                          std::span<const FaultEvent> schedule,
                                          const FailoverConfig& config,
                                          const media::VideoProfile& profile,
                                          const util::Rng& base) {
  const obs::ScopedTimer span{obs::MetricsRegistry::global(), "campaign.failover_streams"};
  FailoverStreamReport report;
  auto phase_stats = [&report](FaultPhase phase) -> StreamPhaseStats& {
    switch (phase) {
      case FaultPhase::kDuring: return report.during_fault;
      case FaultPhase::kPost: return report.post;
      case FaultPhase::kPre: break;
    }
    return report.pre;
  };
  const auto pairs = probe_pairs(vns, config);
  media::SessionConfig session_config;
  // Keep each session inside one probe interval so a mid-session topology
  // change cannot straddle a sample (the phase label stays truthful).
  session_config.duration_s = std::min(session_config.duration_s, config.probe_interval_s);
  std::uint64_t session_index = 0;  // event-order index -> RNG substream
  std::uint64_t streamed = 0;
  drive(vns, schedule, config, pairs, report.faults_applied, report.repairs_applied,
        [&](double t, std::size_t pair_index, const std::pair<core::PopId, core::PopId>& pair,
            FaultPhase phase) {
          (void)t;
          (void)pair_index;
          StreamPhaseStats& stats = phase_stats(phase);
          ++stats.sessions;
          const std::uint64_t index = session_index++;
          if (pair.first != pair.second &&
              vns.internal_path(pair.first, pair.second).size() <= 1) {
            ++stats.blackholed;  // no internal path: the stream goes nowhere
            return;
          }
          auto segments = vns.internal_segments(pair.first, pair.second, catalog);
          util::Rng rng = base.substream(index);
          const sim::PathModel path{std::move(segments), session_config.duration_s,
                                    rng.fork("path")};
          util::Rng session_rng = rng.fork("sessions");
          const auto result =
              media::run_session(path, profile, /*start_s=*/0.0, session_config, session_rng);
          stats.loss_percent.add(result.loss_percent());
          ++streamed;
        });
  obs::MetricsRegistry::global().add(obs::metric("counters.measure.failover_sessions"),
                                     streamed);
  return report;
}

}  // namespace vns::measure
