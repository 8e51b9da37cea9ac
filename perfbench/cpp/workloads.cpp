#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>

#include "inputs.hpp"
#include "measure/prober.hpp"
#include "measure/workbench.hpp"
#include "media/session.hpp"
#include "media/video.hpp"
#include "oracle.hpp"
#include "sim/path_model.hpp"
#include "topo/segments.hpp"
#include "traffic/assignment.hpp"
#include "traffic/matrix.hpp"
#include "traffic/offload.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using vns::core::PopId;

/// Fixed addresses checked at every PoP after each update, beside the
/// prefixes the update dirtied.
constexpr std::size_t kUpdateSample = 8;

/// Samples of one quantity, kept apart by whether their request was traced.
struct Split {
  std::vector<double> untraced;
  std::vector<double> traced;
  void add(bool is_traced, double value) { (is_traced ? traced : untraced).push_back(value); }
};

/// Traced over untraced median, minus one, in percent (0 without both).
double overhead_pct(const Split& split) {
  if (split.traced.empty() || split.untraced.empty()) return 0.0;
  return (median(split.traced) / median(split.untraced) - 1.0) * 100.0;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : std::nan("");
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

/// Median of a span family, scaled (e.g. 1e-3 for ns -> us).
void add_span_median(Report& report, const Tracer& tracer, const char* span, double scale,
                     const char* metric, const char* unit) {
  const auto samples = span_ns(tracer.spans(), span);
  report.add(metric, unit, samples.empty() ? std::nan("") : median(samples) * scale,
             samples.size());
}

void add_span_mean(Report& report, const Tracer& tracer, const char* span, double scale,
                   const char* metric, const char* unit) {
  const auto samples = span_ns(tracer.spans(), span);
  report.add(metric, unit, samples.empty() ? std::nan("") : mean(samples) * scale,
             samples.size());
}

/// CPU over wall time summed across every span of the given families.
double span_cpu_ratio(const Tracer& tracer, std::initializer_list<const char*> names,
                      std::size_t& samples) {
  double cpu = 0.0, wall = 0.0;
  samples = 0;
  for (const Span& span : tracer.spans()) {
    if (span.cpu_ns < 0) continue;
    for (const char* name : names) {
      if (std::strcmp(span.name, name) != 0) continue;
      cpu += static_cast<double>(span.cpu_ns);
      wall += static_cast<double>(span.end_ns - span.start_ns);
      ++samples;
    }
  }
  return ratio(cpu, wall);
}

/// What every request class shares: the world, the tracer, the oracle's
/// tally and one follower of the RIB-delta log (every update consumes the
/// deltas it caused before the next request runs, whatever its class).
/// Every world a run builds comes from the same seed and config, so inputs
/// derived from one (addresses, session and PoP ids, the traffic matrix)
/// hold for the next.
struct Shared {
  Shared(World& built, const RunConfig& run, Tracer& trace)
      : world(built),
        config(run),
        tracer(trace),
        pops(vns().pops().size()),
        probe(refresh_probe_address(vns())),
        sample(destination_sets(vns(), run.seed, kUpdateSample).front()),
        follower(std::in_place, vns()) {}

  [[nodiscard]] vns::measure::Workbench& bench() const { return *world.bench; }
  [[nodiscard]] vns::core::VnsNetwork& vns() const { return world.bench->vns(); }

  /// Replaces the world with a freshly built one (a timed set-up).
  void rebuild_world() {
    follower.reset();
    tracer.set_enabled(config.trace);
    setup_world(world, tracer);
    follower.emplace(vns());
  }

  /// Counts one verified operation.
  void count(bool ok) {
    ++out.attempted;
    if (!ok) ++out.failed;
  }

  World& world;
  const RunConfig& config;
  Tracer& tracer;
  const std::size_t pops;
  const vns::net::Ipv4Address probe;
  const std::vector<vns::net::Ipv4Address> sample;
  std::optional<DeltaFollower> follower;
  OracleTally tally;
  Outcome out;
};

/// One request class of the mix.  A block is what the scheduler hands out
/// at a time: long enough that the first, cache-cold request after another
/// class ran is a small share of the class's samples.  In a traced run a
/// class's blocks alternate between traced and untraced, so both halves see
/// the run's whole span of host conditions.
class Load {
 public:
  virtual ~Load() = default;

  void run_block() {
    const bool traced = shared_.config.trace && blocks_ % 2 == 0;
    shared_.tracer.set_enabled(traced);
    const std::int64_t t0 = now_ns();
    block(traced);
    seconds_ += seconds_since(t0);
    ++blocks_;
  }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }
  /// Blocks a run needs whatever the host's speed, so every percentile the
  /// class reports has enough samples beyond it.
  [[nodiscard]] virtual std::size_t min_blocks() const = 0;
  /// Adds the class's end-to-end metrics (untraced and traced halves) and,
  /// in a traced run, its per-layer metrics.
  virtual void report(Outcome& out) const = 0;
  /// Tracing overhead on the class's request latency, in percent.
  [[nodiscard]] virtual double overhead() const = 0;

 protected:
  explicit Load(Shared& shared) : shared_(shared) {}
  virtual void block(bool traced) = 0;

  Shared& shared_;

 private:
  double seconds_ = 0.0;
  std::size_t blocks_ = 0;
};

// --- serve rounds ---------------------------------------------------------
// Each round is one small flap batch, one slice of reads and a batch of call
// setups.  The flap batch is small (4 events) so reads dominate; every PoP
// keeps 256 active-call destinations, a hot set that stays cache-resident
// (a cold full-table sweep measures host memory contention, not the FIB),
// and resolves each 8 times per slice, the way packets of ongoing calls are
// resolved.  resolve_rate is the median slice rate; a slice starts with the
// read that pays each PoP's FIB refresh.  Callers are a fixed set of 128,
// each placing one call per round, so their working set stays
// cache-resident like the destinations' (with 512 callers served 32 per
// round every call ran cache-cold).  After the slice, outside the timed
// region, a sample of its answers, the prefixes the round's flaps dirtied
// and kUpdateSample fixed addresses are checked at every PoP, and so is
// every call's egress.
//
// Every call is timed; call_p90_us is the median over blocks of each
// block's p90 (8192 calls), so a burst of host contention that slows a few
// blocks does not move it the way it moves a run's pooled tail.  Call
// latency is reported at p90 only.  On a 4-vCPU VM whose host swings
// between quiet and memory-contended periods, the median call, which runs
// from cache, moved ~40% between the two, so over ten seeds its spread
// (quartile distance over median) was 0.30 and 0.34, beyond any bound the
// benchmark may set; p90 calls miss cache either way and spread 0.09.  The
// median stays in the run's artifact as a note.

constexpr std::size_t kServeFlapEvents = 4;
constexpr std::size_t kServeDestinations = 256;
constexpr std::size_t kSliceReps = 8;
constexpr std::size_t kServeCallers = 128;
constexpr std::size_t kSliceChecksPerPop = 4;
constexpr std::size_t kServeRoundsPerBlock = 64;

class ServeLoad final : public Load {
 public:
  explicit ServeLoad(Shared& shared)
      : Load(shared),
        flaps_(shared.vns(), shared.config.seed, Family::kServeFlaps),
        destinations_(destination_sets(shared.vns(), shared.config.seed, kServeDestinations)),
        callers_(caller_set(shared.bench().internet(), shared.config.seed, kServeCallers)),
        check_rng_(family_rng(shared.config.seed, Family::kChecks)),
        answers_(shared.pops, std::vector<std::optional<PopId>>(kServeDestinations)),
        calls_(callers_.size()) {}

  [[nodiscard]] std::size_t min_blocks() const override { return 8; }

  void report(Outcome& out) const override {
    out.end_to_end.add("resolve_rate", "lookups/s", median(slice_rate_.untraced),
                       slice_rate_.untraced.size());
    out.end_to_end.add("call_p90_us", "us", median(call_p90_.untraced), call_us_.untraced.size());
    if (!shared_.config.trace) return;
    out.end_to_end_traced.add("resolve_rate", "lookups/s", median(slice_rate_.traced),
                              slice_rate_.traced.size());
    out.end_to_end_traced.add("call_p90_us", "us", median(call_p90_.traced),
                              call_us_.traced.size());
    const Tracer& tracer = shared_.tracer;
    Report& layer = out.per_layer;
    const auto per_lookup = span_ns_per_item(tracer.spans(), "core.resolve");
    layer.add("core.egress_pop_ns", "ns", median(per_lookup), per_lookup.size());
    add_span_median(layer, tracer, "core.fib_refresh", 1e-3, "core.fib_refresh_us", "us");
    layer.add("core.fib_refreshes", "count", static_cast<double>(refreshes_),
              slice_rate_.traced.size());
    add_span_median(layer, tracer, "core.select_ingress", 1.0, "core.select_ingress_ns", "ns");
    const auto per_rtt = span_ns_per_item(tracer.spans(), "core.internal_rtt");
    layer.add("core.internal_rtt_ns", "ns", median(per_rtt), per_rtt.size());
  }

  [[nodiscard]] double overhead() const override { return overhead_pct(call_us_); }

  void add_notes(Outcome& out) const {
    const auto call_p50 = percentile(call_us_.untraced, 0.50);
    out.notes.emplace_back("serve_rounds", static_cast<double>(rounds_));
    out.notes.emplace_back("call_p50_us", call_p50.value.value_or(std::nan("")));
    out.notes.emplace_back("lookup_checksum", static_cast<double>(sink_ % 1000003));
    out.notes.emplace_back("rtt_checksum", rtt_sink_);
  }

 private:
  struct CallRecord {
    const Caller* caller = nullptr;
    PopId ingress = vns::core::kNoPop;
    std::optional<PopId> egress;
    double rtt_ms = 0.0;
  };

  void block(bool traced) override {
    block_calls_.clear();
    for (std::size_t r = 0; r < kServeRoundsPerBlock; ++r) round(traced);
    if (const auto p90 = percentile(block_calls_, 0.90).value) call_p90_.add(traced, *p90);
  }

  void round(bool traced) {
    auto& vns = shared_.vns();
    Tracer& tracer = shared_.tracer;
    const std::size_t pops = shared_.pops;
    ++rounds_;
    {
      const auto request = tracer.new_request();
      ScopedSpan update{tracer, "serve.update", kNoSpan, request, true};
      const auto batch = flaps_.next_batch(kServeFlapEvents);
      {
        ScopedSpan span{tracer, "serve.flap_apply", update.id(), request};
        apply_flaps(vns, batch);
        span.set_items(batch.size());
      }
      ScopedSpan converge{tracer, "serve.converge", update.id(), request, true};
      vns.fabric().run_to_convergence();
    }
    {
      const auto request = tracer.new_request();
      ScopedSpan slice{tracer, "serve.slice", kNoSpan, request};
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span{tracer, "core.fib_refresh", slice.id(), request};
        touch_every_pop(vns, shared_.probe);
        span.set_items(pops);
      }
      {
        ScopedSpan span{tracer, "core.resolve", slice.id(), request};
        for (PopId p = 0; p < pops; ++p) {
          const auto& set = destinations_[p];
          for (std::size_t rep = 1; rep < kSliceReps; ++rep) {
            for (const auto address : set) sink_ += vns.egress_pop(p, address).value_or(0);
          }
          for (std::size_t i = 0; i < set.size(); ++i) answers_[p][i] = vns.egress_pop(p, set[i]);
        }
        span.set_items(pops * kSliceReps * kServeDestinations);
      }
      const double seconds = seconds_since(t0);
      const double lookups = static_cast<double>(pops + pops * kSliceReps * kServeDestinations);
      slice_rate_.add(traced, lookups / seconds);
    }
    bool slice_ok = true;
    for (PopId p = 0; p < pops; ++p) {
      for (std::size_t k = 0; k < kSliceChecksPerPop; ++k) {
        const std::size_t i = check_rng_.below(kServeDestinations);
        slice_ok &= shared_.tally.record(vns, p, destinations_[p][i], answers_[p][i]);
      }
    }
    const auto update = shared_.follower->consume();
    if (traced) {
      for (const auto& dirty : update.per_pop) refreshes_ += !dirty.empty();
    }
    slice_ok &= verify_after_update(vns, update, shared_.sample, shared_.tally);
    shared_.count(slice_ok);

    for (std::size_t c = 0; c < callers_.size(); ++c) {
      const Caller& caller = callers_[c];
      const auto request = tracer.new_request();
      const std::int64_t t0 = now_ns();
      ScopedSpan call{tracer, "serve.call", kNoSpan, request};
      PopId ingress;
      {
        ScopedSpan span{tracer, "core.select_ingress", call.id(), request};
        ingress = vns.select_ingress(caller.as, caller.location);
      }
      const auto egress = vns.egress_pop(ingress, caller.callee);
      const double rtt = egress ? vns.internal_rtt_ms(ingress, *egress) : 0.0;
      call.close();
      const double us = static_cast<double>(now_ns() - t0) / 1e3;
      call_us_.add(traced, us);
      block_calls_.push_back(us);
      calls_[c] = {&caller, ingress, egress, rtt};
    }
    if (traced) {
      // internal_rtt_ms takes a fraction of a microsecond: time the round's
      // calls as one slice instead of one by one.
      const auto request = tracer.new_request();
      ScopedSpan span{tracer, "core.internal_rtt", kNoSpan, request};
      std::uint64_t timed = 0;
      for (const auto& record : calls_) {
        if (!record.egress) continue;
        rtt_sink_ += vns.internal_rtt_ms(record.ingress, *record.egress);
        ++timed;
      }
      span.set_items(timed);
    }
    for (const auto& record : calls_) {
      bool ok = record.ingress < pops && std::isfinite(record.rtt_ms) && record.rtt_ms >= 0.0;
      ok = ok && shared_.tally.record(vns, record.ingress, record.caller->callee, record.egress);
      shared_.count(ok);
    }
  }

  FlapSchedule flaps_;
  const std::vector<std::vector<vns::net::Ipv4Address>> destinations_;
  const std::vector<Caller> callers_;
  SeedRng check_rng_;
  std::vector<std::vector<std::optional<PopId>>> answers_;
  std::vector<CallRecord> calls_;
  Split slice_rate_, call_us_;
  std::vector<double> block_calls_;  ///< the current block's call latencies
  Split call_p90_;                   ///< one p90 per block
  std::uint64_t sink_ = 0;
  double rtt_sink_ = 0.0;
  std::uint64_t rounds_ = 0;
  std::uint64_t refreshes_ = 0;  ///< traced slices' PoP FIBs that owed a patch
};

// --- flap blocks ----------------------------------------------------------
// A block is 1024 batches of 8 flaps on upstream sessions, each applied,
// converged and followed by the first read at every PoP (the refresh the
// update owes), then checked: the prefixes it dirtied plus kUpdateSample
// fixed addresses at every PoP against the oracle.  flap_p50_ms and
// flap_p99_ms are medians over blocks of each block's percentile (1024
// batches leave ten beyond p99), for the same reason as call_p90_us.  Only
// the first batch of a block follows another class's cache-cold aftermath,
// so it cannot become the p99.  Flaps and failover events are
// timed apart: an event costs about 1000x a flap batch, and one mixed
// percentile would sit on the boundary between the two.

constexpr std::size_t kChurnFlapEvents = 8;
constexpr std::size_t kFlapBlock = 1024;

class FlapLoad final : public Load {
 public:
  explicit FlapLoad(Shared& shared)
      : Load(shared), flaps_(shared.vns(), shared.config.seed, Family::kFlaps) {}

  [[nodiscard]] std::size_t min_blocks() const override { return 4; }

  void report(Outcome& out) const override {
    const auto untraced = flap_ms_.untraced.size(), traced = flap_ms_.traced.size();
    out.end_to_end.add("flap_p50_ms", "ms", median(flap_p50_.untraced), untraced);
    out.end_to_end.add("flap_p99_ms", "ms", median(flap_p99_.untraced), untraced);
    if (!shared_.config.trace) return;
    out.end_to_end_traced.add("flap_p50_ms", "ms", median(flap_p50_.traced), traced);
    out.end_to_end_traced.add("flap_p99_ms", "ms", median(flap_p99_.traced), traced);
    const Tracer& tracer = shared_.tracer;
    Report& layer = out.per_layer;
    add_span_median(layer, tracer, "bgp.flap_apply", 1e-3, "bgp.flap_apply_us", "us");
    add_span_median(layer, tracer, "bgp.converge", 1e-3, "bgp.flap_converge_us", "us");
    layer.add("bgp.flap_messages", "count", mean(messages_), messages_.size());
    layer.add("bgp.flap_useful_ratio", "ratio", ratio(sum(deltas_), sum(messages_)),
              messages_.size());
    add_span_median(layer, tracer, "core.flap_refresh", 1e-3, "core.flap_refresh_us", "us");
    layer.add("core.flap_dirty_prefixes", "count", mean(dirty_), dirty_.size());
  }

  [[nodiscard]] double overhead() const override { return overhead_pct(flap_ms_); }

 private:
  void block(bool traced) override {
    auto& vns = shared_.vns();
    Tracer& tracer = shared_.tracer;
    std::vector<double> block_ms;
    block_ms.reserve(kFlapBlock);
    for (std::size_t b = 0; b < kFlapBlock; ++b) {
      const auto batch = flaps_.next_batch(kChurnFlapEvents);
      const auto request = tracer.new_request();
      const std::size_t messages0 = vns.fabric().messages_delivered();
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan update{tracer, "update.flap", kNoSpan, request, true};
        {
          ScopedSpan span{tracer, "bgp.flap_apply", update.id(), request};
          apply_flaps(vns, batch);
          span.set_items(batch.size());
        }
        {
          ScopedSpan span{tracer, "bgp.converge", update.id(), request, true};
          vns.fabric().run_to_convergence();
        }
        ScopedSpan span{tracer, "core.flap_refresh", update.id(), request};
        touch_every_pop(vns, shared_.probe);
        span.set_items(shared_.pops);
      }
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      flap_ms_.add(traced, ms);
      block_ms.push_back(ms);
      const auto update = shared_.follower->consume();
      messages_.push_back(static_cast<double>(vns.fabric().messages_delivered() - messages0));
      deltas_.push_back(static_cast<double>(update.deltas));
      dirty_.push_back(static_cast<double>(update.distinct));
      shared_.count(verify_after_update(vns, update, shared_.sample, shared_.tally));
    }
    if (const auto p50 = percentile(block_ms, 0.50).value) flap_p50_.add(traced, *p50);
    if (const auto p99 = percentile(block_ms, 0.99).value) flap_p99_.add(traced, *p99);
  }

  FlapSchedule flaps_;
  Split flap_ms_;
  Split flap_p50_, flap_p99_;  ///< one value per block
  std::vector<double> messages_, deltas_, dirty_;
};

// --- failover pass --------------------------------------------------------
// The run's fault_pass(): 22 targets, each failed and then repaired, one
// target per scheduling step so the pass spreads evenly over the run.
// Failover is reported at p50 only.  Its 44 events allow p75 with ten
// samples beyond it, but a failover event walks the whole RIB and is the
// request most exposed to host memory contention: over ten runs its p75
// spread (quartile distance over median) reached 0.22-0.26, at the largest
// bound the benchmark may set, while p50 spread 0.18.  p75 stays in the
// run's artifact as a note.  Each
// event is timed through the first read at every PoP; then the prefixes it
// dirtied plus kUpdateSample fixed addresses are checked at every PoP.  In
// a traced run link targets and upstream targets alternate between traced
// and untraced within their own class, so both halves see both classes.

class FailoverPass {
 public:
  explicit FailoverPass(Shared& shared)
      : shared_(shared),
        pass_(fault_pass(shared.vns(), shared.config.seed)),
        known_(static_cast<double>(shared.vns().known_prefix_log().size())) {}

  [[nodiscard]] std::size_t targets() const noexcept { return pass_.size(); }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

  /// Fails and repairs the next target of the pass.
  void step() {
    const FaultTarget& target = pass_[next_++];
    const std::size_t index = target.down.upstream() ? upstreams_++ : links_++;
    const bool traced = shared_.config.trace && index % 2 == 0;
    shared_.tracer.set_enabled(traced);
    const std::int64_t t0 = now_ns();
    event(target.down, traced);
    event(target.up, traced);
    seconds_ += seconds_since(t0);
  }

  void add_notes(Outcome& out) const {
    const auto p75 = percentile(failover_ms_.untraced, 0.75);
    out.notes.emplace_back("failover_p75_ms", p75.value.value_or(std::nan("")));
  }

  void report(Outcome& out) const {
    out.end_to_end.add("failover_p50_ms", "ms", percentile(failover_ms_.untraced, 0.50));
    if (!shared_.config.trace) return;
    out.end_to_end_traced.add("failover_p50_ms", "ms", percentile(failover_ms_.traced, 0.50));
    const Tracer& tracer = shared_.tracer;
    Report& layer = out.per_layer;
    // Fault classes differ ~5x in cost and a class mixes failures with
    // repairs, so their per-layer times are means, not medians.
    add_span_mean(layer, tracer, "bgp.link_fault", 1e-6, "bgp.link_fault_ms", "ms");
    add_span_mean(layer, tracer, "bgp.upstream_fault", 1e-6, "bgp.upstream_fault_ms", "ms");
    layer.add("bgp.fault_messages", "count", mean(messages_), messages_.size());
    layer.add("bgp.fault_useful_ratio", "ratio", ratio(sum(deltas_), sum(messages_)),
              messages_.size());
    std::size_t cpu_samples = 0;
    const double cpu_ratio =
        span_cpu_ratio(tracer, {"bgp.link_fault", "bgp.upstream_fault"}, cpu_samples);
    layer.add("bgp.fault_cpu_ratio", "ratio", cpu_ratio, cpu_samples);
    add_span_mean(layer, tracer, "core.fault_refresh", 1e-6, "core.fault_refresh_ms", "ms");
    layer.add("core.fault_dirty_fraction", "ratio", mean(dirty_fraction_),
              dirty_fraction_.size());
  }

 private:
  void event(const Fault& fault, bool traced) {
    auto& vns = shared_.vns();
    Tracer& tracer = shared_.tracer;
    const auto request = tracer.new_request();
    const std::size_t messages0 = vns.fabric().messages_delivered();
    const std::int64_t t0 = now_ns();
    bool applied = false;
    {
      ScopedSpan update{tracer, "update.fault", kNoSpan, request, true};
      {
        ScopedSpan span{tracer, fault.upstream() ? "bgp.upstream_fault" : "bgp.link_fault",
                        update.id(), request, true};
        applied = apply_fault(vns, fault);
      }
      ScopedSpan span{tracer, "core.fault_refresh", update.id(), request};
      touch_every_pop(vns, shared_.probe);
      span.set_items(shared_.pops);
    }
    failover_ms_.add(traced, static_cast<double>(now_ns() - t0) / 1e6);
    const auto update = shared_.follower->consume();
    messages_.push_back(static_cast<double>(vns.fabric().messages_delivered() - messages0));
    deltas_.push_back(static_cast<double>(update.deltas));
    double fraction = 0.0;
    for (const auto& dirty : update.per_pop) fraction += static_cast<double>(dirty.size());
    dirty_fraction_.push_back(fraction / static_cast<double>(shared_.pops) / known_);
    shared_.count(applied && verify_after_update(vns, update, shared_.sample, shared_.tally));
  }

  Shared& shared_;
  const std::vector<FaultTarget> pass_;
  const double known_;
  std::size_t next_ = 0;
  std::size_t links_ = 0;
  std::size_t upstreams_ = 0;
  double seconds_ = 0.0;
  Split failover_ms_;
  std::vector<double> messages_, deltas_, dirty_fraction_;
};

// --- campaign rounds ------------------------------------------------------
// A block is one round of each campaign kind, and each metric is the
// median over its rounds (one-shot campaigns of 1-4 s varied +-9-14% run to
// run).  A streaming round is 24 shards of one simulated week of two-minute
// HD sessions every half hour, half over the overlay and half over transit
// (Fig. 9); a probing round is 24 shards of three weeks of 100-packet
// last-mile trains every ten minutes (Fig. 12); a TE round is a week of
// hourly passes at 48x the long-haul circuit size of offered load, where
// the peak-hour long-hauls cross the offload threshold.  Each round runs
// for tens of milliseconds, so pool start-up does not dominate it, and a
// run in which campaigns get a quarter of the time still has about twenty
// rounds to take the median of (with rounds of 96 shards, eight rounds
// left sessions_per_s spreading up to 0.28 over ten runs).  The
// traffic matrix is built once, with the library's default matrix seed for
// every --seed: with a matrix per seed, the number of offload decisions per
// pass, and with it te_passes_per_s, differed by up to 1.6x between seeds.
// --seed drives the task lists and the QoE probes.

constexpr std::size_t kStreamTasks = 24;
constexpr std::size_t kTrainTasks = 24;
constexpr double kDay = 86400.0;
constexpr double kStreamHorizon = 7 * kDay;
constexpr double kTrainHorizon = 21 * kDay;
constexpr int kTePassesPerRound = 7 * 24;
constexpr double kSessionInterval = 1800.0;
constexpr double kTrainInterval = 600.0;
constexpr int kTrainPackets = 100;
constexpr double kOfferedLoadFactor = 48.0;
constexpr std::size_t kSpecPoolRounds = 32;

/// Iterations of the library's `for (t = start; t < end; t += interval)`
/// campaign loop, counted the same way.
std::size_t expected_count(double start, double end, double interval) {
  std::size_t n = 0;
  for (double t = start; t < end; t += interval) ++n;
  return n;
}

bool session_ok(const vns::media::SessionStats& stats, std::size_t slots) {
  if (stats.packets_lost > stats.packets_sent) return false;
  if (stats.slot_packets.size() != slots || stats.slot_losses.size() != slots) return false;
  std::uint64_t lost = 0, sent = 0;
  for (std::size_t i = 0; i < slots; ++i) {
    if (stats.slot_losses[i] > stats.slot_packets[i]) return false;
    lost += stats.slot_losses[i];
    sent += stats.slot_packets[i];
  }
  return lost == stats.packets_lost && sent == stats.packets_sent &&
         std::isfinite(stats.jitter_ms) && stats.jitter_ms >= 0.0;
}

bool te_pass_ok(const vns::core::VnsNetwork& vns, const vns::traffic::LoadSnapshot& snapshot,
                const vns::traffic::OffloadReport& report) {
  if (snapshot.link_utilization.size() != vns.links().size()) return false;
  for (std::size_t i = 0; i < snapshot.link_utilization.size(); ++i) {
    const double u = snapshot.link_utilization[i];
    const double offered = snapshot.link_offered_mbps[i];
    if (!std::isfinite(u) || u < 0.0 || !std::isfinite(offered) || offered < 0.0) return false;
  }
  std::uint64_t offloaded = 0, rejected = 0;
  double moved = 0.0;
  for (const auto& decision : report.decisions) {
    if (decision.accepted) {
      if (!decision.internet.valid || !(decision.moved_mbps > 0.0)) return false;
      offloaded += decision.flows;
      moved += decision.moved_mbps;
    } else {
      if (decision.moved_mbps != 0.0) return false;
      rejected += decision.flows;
    }
  }
  return offloaded == report.offloaded_flows && rejected == report.rejected_flows &&
         std::abs(moved - report.moved_mbps) <= 1e-6 * std::max(1.0, moved);
}

class CampaignLoad final : public Load {
 public:
  explicit CampaignLoad(Shared& shared)
      : Load(shared),
        streams_(stream_specs(shared.vns(), shared.config.seed, kStreamTasks * kSpecPoolRounds)),
        trains_(train_specs(shared.vns(), shared.bench().internet(), shared.config.seed,
                            kTrainTasks * kSpecPoolRounds)),
        primary_upstream_(shared.pops),
        slots_(static_cast<std::size_t>(
            std::ceil(session_config_.duration_s / session_config_.slot_s))),
        campaign_base_(family_rng(shared.config.seed, Family::kStreams).next()),
        probe_seed_(family_rng(shared.config.seed, Family::kTraffic).next()) {
    namespace traffic = vns::traffic;
    const auto& vns = shared.vns();
    shared.tracer.set_enabled(shared.config.trace);
    traffic::MatrixConfig matrix_config;
    matrix_config.offered_load_mbps = kOfferedLoadFactor * vns.config().long_haul_capacity_mbps;
    matrix_config.threads = worker_count();
    {
      ScopedSpan span{shared.tracer, "traffic.matrix", kNoSpan, shared.tracer.new_request(), true};
      matrix_.emplace(traffic::Matrix::build(vns, shared.bench().internet(), matrix_config));
    }
    // The offload policy's Internet-path probe: a 100-packet train and a
    // 5-ping burst over the representative prefix's local-exit transit
    // path, each cell on its own RNG so decisions never depend on
    // evaluation order.
    policy_.emplace(traffic::OffloadConfig{}, [this](PopId ingress, PopId egress) {
      traffic::PathQuality quality;
      const auto rep = matrix_->representative_prefix(ingress, egress);
      if (!rep) return quality;
      auto segments = shared_.bench().probe_segments(ingress, *rep,
                                                     /*include_last_mile=*/false,
                                                     /*upstreams_only=*/true);
      if (segments.empty()) return quality;
      vns::util::Rng cell_rng =
          vns::util::Rng{probe_seed_}.fork(std::uint64_t{ingress} << 16 | egress);
      const vns::sim::PathModel path{std::move(segments), 0.0, cell_rng.fork("path")};
      vns::measure::Prober prober{cell_rng.fork("probe")};
      const auto train = prober.train(path, probe_t_, kTrainPackets);
      const auto ping = prober.ping(path, probe_t_, 5);
      quality.valid = true;
      quality.loss = train.loss_fraction();
      quality.rtt_ms = ping.min_rtt_ms.value_or(path.base_rtt_ms());
      return quality;
    });
    for (const auto& attachment : vns.attachments()) {
      auto& path = primary_upstream_[attachment.pop];
      if (attachment.upstream && path.empty()) path.push_back(attachment.as);
    }
  }

  [[nodiscard]] std::size_t min_blocks() const override { return 6; }

  void report(Outcome& out) const override {
    out.end_to_end.add("sessions_per_s", "sessions/s", median(sessions_rate_.untraced),
                       sessions_rate_.untraced.size());
    out.end_to_end.add("probe_rounds_per_s", "rounds/s", median(trains_rate_.untraced),
                       trains_rate_.untraced.size());
    out.end_to_end.add("te_passes_per_s", "passes/s", median(te_rate_.untraced),
                       te_rate_.untraced.size());
    if (!shared_.config.trace) return;
    out.end_to_end_traced.add("sessions_per_s", "sessions/s", median(sessions_rate_.traced),
                              sessions_rate_.traced.size());
    out.end_to_end_traced.add("probe_rounds_per_s", "rounds/s", median(trains_rate_.traced),
                              trains_rate_.traced.size());
    out.end_to_end_traced.add("te_passes_per_s", "passes/s", median(te_rate_.traced),
                              te_rate_.traced.size());
    const Tracer& tracer = shared_.tracer;
    Report& layer = out.per_layer;
    add_span_median(layer, tracer, "measure.stream", 1e-9, "measure.stream_s", "s");
    std::size_t cpu_samples = 0;
    double cpu = span_cpu_ratio(tracer, {"measure.stream"}, cpu_samples);
    layer.add("measure.stream_cpu_ratio", "ratio", cpu, cpu_samples);
    auto per_path = span_ns_per_item(tracer.spans(), "measure.stream_paths");
    layer.add("measure.stream_paths_us", "us", median(per_path) * 1e-3, per_path.size());
    add_span_median(layer, tracer, "measure.train", 1e-9, "measure.train_s", "s");
    cpu = span_cpu_ratio(tracer, {"measure.train"}, cpu_samples);
    layer.add("measure.train_cpu_ratio", "ratio", cpu, cpu_samples);
    per_path = span_ns_per_item(tracer.spans(), "measure.probe_segments");
    layer.add("measure.probe_segments_us", "us", median(per_path) * 1e-3, per_path.size());
    add_span_median(layer, tracer, "traffic.matrix", 1e-6, "traffic.matrix_ms", "ms");
    add_span_median(layer, tracer, "traffic.assign", 1e-3, "traffic.assign_us", "us");
    add_span_median(layer, tracer, "traffic.offload", 1e-3, "traffic.offload_us", "us");
    layer.add("traffic.offload_accept_ratio", "ratio",
              ratio(static_cast<double>(accepted_), static_cast<double>(decisions_)),
              decisions_);
  }

  /// Rates run the other way: a slower traced round is a positive overhead.
  [[nodiscard]] double overhead() const override { return -overhead_pct(sessions_rate_); }

  /// The offered load is chosen so the policy has work at peak hours; a
  /// run whose TE passes made no decision at all lost its purpose.
  [[nodiscard]] bool te_had_work() const noexcept { return passes_with_decisions_ != 0; }

  void add_notes(Outcome& out) const {
    out.notes.emplace_back("te_decisions", static_cast<double>(decisions_));
    out.notes.emplace_back("te_accepted", static_cast<double>(accepted_));
    out.notes.emplace_back("te_passes_with_decisions",
                           static_cast<double>(passes_with_decisions_));
  }

 private:
  void block(bool traced) override {
    streams_round(traced);
    trains_round(traced);
    te_round(traced);
    ++round_;
  }

  void streams_round(bool traced) {
    const auto& vns = shared_.vns();
    const auto& bench = shared_.bench();
    Tracer& tracer = shared_.tracer;
    const auto request = tracer.new_request();
    ScopedSpan span{tracer, "campaign.streams", kNoSpan, request, true};
    const std::int64_t t0 = now_ns();
    std::vector<vns::measure::StreamTask> tasks(kStreamTasks);
    {
      ScopedSpan paths{tracer, "measure.stream_paths", span.id(), request};
      for (std::size_t k = 0; k < kStreamTasks; ++k) {
        const StreamSpec& spec = streams_[(round_ * kStreamTasks + k) % streams_.size()];
        const auto& client = vns.pop(spec.client);
        const auto& server = vns.pop(spec.server);
        auto& task = tasks[k];
        task.segments =
            spec.via_vns
                ? vns.internal_segments(spec.client, spec.server, bench.catalog())
                : vns::topo::transit_path_segments(
                      bench.internet(), client.city.location, client.city.region,
                      primary_upstream_[spec.client], server.city.location,
                      vns::topo::AsType::kLTP, server.city.region, bench.catalog(),
                      bench.delay(), /*include_last_mile=*/false);
        task.horizon_s = kStreamHorizon;
        task.start_s = spec.start_s;
        task.end_s = kStreamHorizon - 150.0;
        task.interval_s = kSessionInterval;
        task.profile = spec.hd720 ? hd720_ : hd1080_;
        task.session = session_config_;
      }
      paths.set_items(kStreamTasks);
    }
    std::vector<vns::measure::StreamTaskResult> results;
    {
      ScopedSpan campaign{tracer, "measure.stream", span.id(), request, true};
      results =
          vns::measure::run_stream_campaign(tasks, campaign_base_.fork(round_), worker_count());
    }
    const double seconds = seconds_since(t0);
    std::size_t sessions = 0;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      const auto& result = results[k];
      sessions += result.sessions.size();
      const bool count_ok = result.sessions.size() ==
                            expected_count(tasks[k].start_s, tasks[k].end_s, kSessionInterval);
      for (const auto& stats : result.sessions) {
        shared_.count(count_ok && session_ok(stats, slots_));
      }
      if (result.sessions.empty()) shared_.count(false);
    }
    span.set_items(sessions);
    sessions_rate_.add(traced, static_cast<double>(sessions) / seconds);
  }

  void trains_round(bool traced) {
    const auto& bench = shared_.bench();
    Tracer& tracer = shared_.tracer;
    const auto request = tracer.new_request();
    ScopedSpan span{tracer, "campaign.trains", kNoSpan, request, true};
    const std::int64_t t0 = now_ns();
    std::vector<vns::measure::TrainTask> tasks(kTrainTasks);
    {
      ScopedSpan paths{tracer, "measure.probe_segments", span.id(), request};
      for (std::size_t k = 0; k < kTrainTasks; ++k) {
        const TrainSpec& spec = trains_[(round_ * kTrainTasks + k) % trains_.size()];
        auto& task = tasks[k];
        task.segments = bench.probe_segments(spec.pop, spec.prefix_id,
                                             /*include_last_mile=*/true);
        task.horizon_s = kTrainHorizon;
        task.start_s = spec.start_s;
        task.interval_s = kTrainInterval;
        task.packets = kTrainPackets;
      }
      paths.set_items(kTrainTasks);
    }
    std::vector<vns::measure::TrainTaskResult> results;
    {
      ScopedSpan campaign{tracer, "measure.train", span.id(), request, true};
      results =
          vns::measure::run_train_campaign(tasks, campaign_base_.fork(~round_), worker_count());
    }
    const double seconds = seconds_since(t0);
    std::size_t probe_rounds = 0;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      const auto& result = results[k];
      probe_rounds += result.rounds.size();
      bool ok = result.rounds.size() ==
                expected_count(tasks[k].start_s, kTrainHorizon, kTrainInterval);
      for (const auto& r : result.rounds) ok = ok && r.lost >= 0 && r.lost <= kTrainPackets;
      shared_.count(ok);
    }
    span.set_items(probe_rounds);
    trains_rate_.add(traced, static_cast<double>(probe_rounds) / seconds);
  }

  void te_round(bool traced) {
    namespace traffic = vns::traffic;
    const auto& vns = shared_.vns();
    Tracer& tracer = shared_.tracer;
    const std::int64_t t0 = now_ns();
    for (int hour = 0; hour < kTePassesPerRound; ++hour) {
      const double t = hour * 3600.0;
      probe_t_ = t;
      const auto request = tracer.new_request();
      ScopedSpan pass{tracer, "te.pass", kNoSpan, request};
      std::optional<traffic::LoadSnapshot> snapshot;
      {
        ScopedSpan span{tracer, "traffic.assign", pass.id(), request};
        snapshot.emplace(traffic::assign_load(vns, *matrix_, t));
      }
      std::optional<traffic::OffloadReport> report;
      {
        ScopedSpan span{tracer, "traffic.offload", pass.id(), request};
        report.emplace(policy_->evaluate(vns, *matrix_, t, *snapshot));
      }
      pass.close();
      shared_.count(te_pass_ok(vns, *snapshot, *report));
      decisions_ += report->decisions.size();
      for (const auto& decision : report->decisions) accepted_ += decision.accepted;
      passes_with_decisions_ += !report->decisions.empty();
    }
    te_rate_.add(traced, kTePassesPerRound / seconds_since(t0));
  }

  const std::vector<StreamSpec> streams_;
  const std::vector<TrainSpec> trains_;
  std::vector<std::vector<vns::topo::AsIndex>> primary_upstream_;
  const vns::media::VideoProfile hd1080_ = vns::media::VideoProfile::hd1080();
  const vns::media::VideoProfile hd720_ = vns::media::VideoProfile::hd720();
  const vns::media::SessionConfig session_config_;
  const std::size_t slots_;
  const vns::util::Rng campaign_base_;
  const std::uint64_t probe_seed_;
  std::optional<vns::traffic::Matrix> matrix_;
  std::optional<vns::traffic::OffloadPolicy> policy_;
  double probe_t_ = 0.0;
  std::uint64_t round_ = 0;
  Split sessions_rate_, trains_rate_, te_rate_;
  std::uint64_t decisions_ = 0, accepted_ = 0, passes_with_decisions_ = 0;
};

// --- the mix --------------------------------------------------------------
// The run interleaves the classes step by step.  Each step fails and
// repairs one failover target, then runs blocks of the other three classes
// until each has had its share of the time the run has used so far.  The
// time left for them is --seconds minus the failover pass's projected
// length (at least kMinOtherShare of --seconds), so the run measures for
// about --seconds and every class sees the same stretches of host
// conditions.  The steps are split evenly over the kSetupRepeats worlds the
// run builds, each set-up starting its share on a fresh world, so the
// measurements spread over the whole run: on a shared 4-vCPU host a quiet
// or contended spell lasting tens of seconds otherwise sets a run's every
// timing at once.  After the pass, any class still short of its minimum
// block count is topped up.

constexpr double kMinOtherShare = 0.3;

struct Mix {
  const char* workload;
  double serve;
  double flaps;
  double campaign;
};

// Why each workload exists is stated beside its definition in
// workloads.hpp and in BENCHMARK.json.
constexpr std::array<Mix, 3> kMixes = {{
    {"serve_paper", 0.5, 0.25, 0.25},
    {"churn_paper", 0.25, 0.5, 0.25},
    {"campaign_paper", 0.25, 0.25, 0.5},
}};

const Mix* find_mix(std::string_view workload) noexcept {
  for (const Mix& mix : kMixes) {
    if (workload == mix.workload) return &mix;
  }
  return nullptr;
}

}  // namespace

bool known_workload(std::string_view name) noexcept { return find_mix(name) != nullptr; }

Outcome run_workload(World& world, const RunConfig& config, Tracer& tracer) {
  const Mix& mix = *find_mix(config.workload);
  setup_world(world, tracer);
  Shared shared{world, config, tracer};
  ServeLoad serve{shared};
  FlapLoad flaps{shared};
  CampaignLoad campaign{shared};
  FailoverPass failover{shared};
  const std::array<std::pair<Load*, double>, 3> loads = {
      {{&serve, mix.serve}, {&flaps, mix.flaps}, {&campaign, mix.campaign}}};

  const std::size_t targets = failover.targets();
  std::size_t worlds = 1;
  for (std::size_t step = 0; step < targets; ++step) {
    if (step == targets * worlds / kSetupRepeats) {
      shared.rebuild_world();
      ++worlds;
    }
    failover.step();
    const double pass_s = failover.seconds() / static_cast<double>(step + 1) *
                          static_cast<double>(targets);
    const double others_s = std::max(kMinOtherShare * config.seconds, config.seconds - pass_s);
    const double due_s =
        others_s * static_cast<double>(step + 1) / static_cast<double>(targets);
    for (const auto& [load, share] : loads) {
      while (load->seconds() < share * due_s) load->run_block();
    }
  }
  for (const auto& [load, share] : loads) {
    while (load->blocks() < load->min_blocks()) load->run_block();
  }
  tracer.set_enabled(config.trace);
  if (!campaign.te_had_work()) shared.count(false);

  Outcome out = std::move(shared.out);
  serve.report(out);
  flaps.report(out);
  failover.report(out);
  campaign.report(out);
  const Load* main_load = std::max_element(loads.begin(), loads.end(), [](const auto& a,
                                                                         const auto& b) {
                            return a.second < b.second;
                          })->first;
  out.overhead_pct = main_load->overhead();
  out.answers_checked = shared.tally.checked;
  out.answers_wrong = shared.tally.wrong;
  serve.add_notes(out);
  failover.add_notes(out);
  campaign.add_notes(out);
  out.notes.emplace_back("serve_s", serve.seconds());
  out.notes.emplace_back("serve_blocks", static_cast<double>(serve.blocks()));
  out.notes.emplace_back("flap_s", flaps.seconds());
  out.notes.emplace_back("flap_blocks", static_cast<double>(flaps.blocks()));
  out.notes.emplace_back("campaign_s", campaign.seconds());
  out.notes.emplace_back("campaign_blocks", static_cast<double>(campaign.blocks()));
  out.notes.emplace_back("failover_s", failover.seconds());
  out.notes.emplace_back("failover_events", static_cast<double>(2 * targets));
  return out;
}

std::string feeds_of(const std::string& span) {
  static const std::map<std::string, std::string> kFeeds = {
      {"setup", "setup_s"},
      {"measure.world_build", "setup_s"},
      {"bgp.feed", "setup_s"},
      {"bgp.geo_flip", "setup_s"},
      {"core.fib_compile", "setup_s"},
      {"serve.slice", "resolve_rate"},
      {"core.fib_refresh", "resolve_rate"},
      {"core.resolve", "resolve_rate"},
      {"serve.call", "call_p90_us"},
      {"core.select_ingress", "call_p90_us"},
      {"core.internal_rtt", "call_p90_us"},
      {"update.flap", "flap_p50_ms,flap_p99_ms"},
      {"bgp.flap_apply", "flap_p50_ms,flap_p99_ms"},
      {"bgp.converge", "flap_p50_ms,flap_p99_ms"},
      {"core.flap_refresh", "flap_p50_ms,flap_p99_ms"},
      {"update.fault", "failover_p50_ms"},
      {"bgp.link_fault", "failover_p50_ms"},
      {"bgp.upstream_fault", "failover_p50_ms"},
      {"core.fault_refresh", "failover_p50_ms"},
      {"campaign.streams", "sessions_per_s"},
      {"measure.stream_paths", "sessions_per_s"},
      {"measure.stream", "sessions_per_s"},
      {"campaign.trains", "probe_rounds_per_s"},
      {"measure.probe_segments", "probe_rounds_per_s"},
      {"measure.train", "probe_rounds_per_s"},
      {"te.pass", "te_passes_per_s"},
      {"traffic.assign", "te_passes_per_s"},
      {"traffic.offload", "te_passes_per_s"},
  };
  const auto it = kFeeds.find(span);
  return it == kFeeds.end() ? "-" : it->second;
}

}  // namespace perfbench
