// Shared scaffolding for the figure/table benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation.  They accept:
//   --small        tiny topology (CI smoke runs); alias for --scale small
//   --scale S      world tier: small | paper (default) | full (10k ASes,
//                  100k+ prefixes, full-table scale)
//   --seed N       world seed (default 1)
//   --days D       campaign length where applicable (scaled-down defaults)
//   --threads N    campaign worker count (default: VNS_THREADS, then
//                  hardware; results are bit-identical for any N)
//   --json         additionally write BENCH_<name>.json with the run's
//                  config, key metrics, wall-clock and work counters
//   --trace        attach an obs::TraceSink to the fabric and write
//                  TRACE_<name>.jsonl (metrics registry + fabric trace)
// and print deterministic, diff-able text tables.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bgp/attr_table.hpp"
#include "bgp/fabric.hpp"
#include "measure/workbench.hpp"
#include "net/flat_fib.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "traffic/metrics.hpp"
#include "util/counters.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace vns::bench {

/// Peak resident-set size of this process in KiB (getrusage ru_maxrss; Linux
/// reports KiB directly, macOS reports bytes).  0 on platforms without
/// getrusage — the JSON field is still emitted so downstream tooling sees a
/// stable schema.
[[nodiscard]] inline std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  auto rss = static_cast<std::uint64_t>(usage.ru_maxrss);
#if defined(__APPLE__)
  rss /= 1024;
#endif
  return rss;
#else
  return 0;
#endif
}

/// The process-wide fabric trace sink used by --trace runs.  Function-local
/// static so benches that never pass --trace never construct the ring buffer.
[[nodiscard]] inline obs::TraceSink& trace_sink() {
  static obs::TraceSink sink{1u << 18};
  return sink;
}

struct BenchArgs {
  bool small = false;  ///< kept as an alias for --scale small
  bool json = false;   ///< also emit BENCH_<name>.json
  bool trace = false;  ///< attach a TraceSink and emit TRACE_<name>.jsonl
  topo::InternetScale scale = topo::InternetScale::kPaper;
  std::uint64_t seed = 1;
  double days = 0.0;  ///< 0: bench-specific default
  int threads = 0;    ///< 0: VNS_THREADS env, then hardware concurrency
  /// Network-wide peak offered load (Mbps) for the traffic matrix; 0 keeps
  /// the legacy load-free data plane (bench-specific default may apply).
  double offered_load_mbps = 0.0;
  /// Long-haul utilization that arms the WAN-offload policy.
  double offload_threshold = 0.85;

  /// Parses the shared flags.  An unknown flag, a flag missing its value,
  /// or a number that is malformed or has trailing characters prints a
  /// message and exits 2.
  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string_view {
        if (i + 1 >= argc) usage_error("missing value for " + arg);
        return argv[++i];
      };
      const auto number = [&]<typename T>(T& out) {
        const std::string_view text = value();
        const auto parsed = util::parse_number<T>(text);
        if (!parsed) usage_error("malformed number '" + std::string{text} + "' for " + arg);
        out = *parsed;
      };
      if (arg == "--small") {
        args.small = true;
        args.scale = topo::InternetScale::kSmall;
      } else if (arg == "--scale") {
        const std::string_view tier = value();
        const auto parsed = topo::scale_from_string(tier);
        if (!parsed) {
          usage_error("unknown --scale '" + std::string{tier} + "' (valid: small|paper|full|xl)");
        }
        args.scale = *parsed;
        args.small = (*parsed == topo::InternetScale::kSmall);
      } else if (arg == "--json") {
        args.json = true;
      } else if (arg == "--trace") {
        args.trace = true;
      } else if (arg == "--seed") {
        number(args.seed);
      } else if (arg == "--days") {
        number(args.days);
      } else if (arg == "--threads") {
        number(args.threads);
      } else if (arg == "--offered-load") {
        number(args.offered_load_mbps);
      } else if (arg == "--offload-threshold") {
        number(args.offload_threshold);
      } else if (arg == "--help") {
        std::cout << "flags: --scale {small,paper,full,xl} --small --seed N --days D "
                     "--threads N --offered-load MBPS --offload-threshold U "
                     "--json --trace\n";
        std::exit(0);
      } else {
        usage_error("unknown flag '" + arg + "'");
      }
    }
    return args;
  }

  [[noreturn]] static void usage_error(const std::string& message) {
    std::cerr << message << " (see --help)\n";
    std::exit(2);
  }

  [[nodiscard]] measure::WorkbenchConfig workbench_config() const {
    auto config = measure::WorkbenchConfig::at_scale(scale, seed);
    config.threads = threads;
    if (trace) config.trace = &trace_sink();
    return config;
  }
};

// ---- machine-readable run record (--json) ----------------------------------

[[nodiscard]] inline std::string json_escape(std::string_view text) {
  return obs::json_escape(text);
}

[[nodiscard]] inline std::string json_value(bool value) { return value ? "true" : "false"; }
template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
[[nodiscard]] std::string json_value(T value) {
  return std::to_string(value);
}
[[nodiscard]] inline std::string json_value(double value) { return obs::json_number(value); }
[[nodiscard]] inline std::string json_value(std::string_view value) {
  return '"' + json_escape(value) + '"';
}
[[nodiscard]] inline std::string json_value(const char* value) {
  return json_value(std::string_view{value});
}
[[nodiscard]] inline std::string json_value(const std::string& value) {
  return json_value(std::string_view{value});
}

/// Per-process record of one bench run: the name, the resolved config and
/// whichever key metrics the bench registers.  `finish_run` serializes it to
/// `BENCH_<name>.json` when the bench ran with --json.
class BenchRecord {
 public:
  [[nodiscard]] static BenchRecord& global() {
    static BenchRecord record;
    return record;
  }

  void begin(std::string name, std::string paper_ref) {
    name_ = std::move(name);
    paper_ref_ = std::move(paper_ref);
  }

  template <typename T>
  void config(std::string key, const T& value) {
    config_.emplace_back(std::move(key), json_value(value));
  }

  template <typename T>
  void metric(std::string key, const T& value) {
    metrics_.emplace_back(std::move(key), json_value(value));
  }

  /// Attaches a pre-rendered JSON object under a top-level key (after
  /// "metrics").  Benches with structured results beyond flat key/value
  /// metrics — e.g. bench_slo_serving's "slo" block — register them here.
  void block(std::string key, std::string raw_json_object) {
    blocks_.emplace_back(std::move(key), std::move(raw_json_object));
  }

  /// Run-identity fields for the "meta" header (scale preset + world seed;
  /// threads comes in via write_json, the timestamp is stamped at write).
  void set_run_meta(std::string scale, std::uint64_t seed) {
    meta_scale_ = std::move(scale);
    meta_seed_ = seed;
  }

  void set_build_seconds(double seconds) { build_seconds_ = seconds; }

  /// Route (prefix) count of the world, the denominator of
  /// memory.rss_per_route (set by build_world).
  void set_route_count(std::size_t count) { route_count_ = count; }

  /// `BENCH_fig9_video_loss.json` for `bench_fig9_video_loss`.
  [[nodiscard]] std::string output_path() const {
    std::string_view stem = name_;
    if (stem.starts_with("bench_")) stem.remove_prefix(6);
    return "BENCH_" + std::string{stem} + ".json";
  }

  /// `TRACE_fig9_video_loss.jsonl` for `bench_fig9_video_loss`.
  [[nodiscard]] std::string trace_output_path() const {
    std::string_view stem = name_;
    if (stem.starts_with("bench_")) stem.remove_prefix(6);
    return "TRACE_" + std::string{stem} + ".jsonl";
  }

  void write_json(std::ostream& out, double campaign_seconds, int threads) const {
    auto object = [&out](std::string_view key,
                         const std::vector<std::pair<std::string, std::string>>& fields) {
      out << "  \"" << key << "\": {";
      for (std::size_t i = 0; i < fields.size(); ++i) {
        out << (i ? ", " : "") << '"' << json_escape(fields[i].first)
            << "\": " << fields[i].second;
      }
      out << "}";
    };
    out << "{\n";
    out << "  \"name\": " << json_value(name_) << ",\n";
    out << "  \"paper_ref\": " << json_value(paper_ref_) << ",\n";
    // Run-identity header: enough to re-run the exact world (scale preset,
    // seed, thread count) plus when the artifact was produced.
    std::vector<std::pair<std::string, std::string>> meta;
    meta.emplace_back("scale", json_value(meta_scale_));
    meta.emplace_back("threads", json_value(threads));
    meta.emplace_back("seed", json_value(meta_seed_));
    meta.emplace_back("timestamp", json_value(obs::iso8601_utc_now()));
    object("meta", meta);
    out << ",\n";
    out << "  \"threads\": " << threads << ",\n";
    out << "  \"build_seconds\": " << json_value(build_seconds_) << ",\n";
    out << "  \"campaign_seconds\": " << json_value(campaign_seconds) << ",\n";
    object("config", config_);
    out << ",\n";
    object("metrics", metrics_);
    out << ",\n";
    for (const auto& [key, raw] : blocks_) {
      out << "  \"" << json_escape(key) << "\": " << raw << ",\n";
    }
    std::vector<std::pair<std::string, std::string>> counters;
    for (const auto& [name, value] : util::Counters::global().snapshot()) {
      counters.emplace_back(name, json_value(value));
    }
    object("counters", counters);
    out << ",\n";
    // Memory accounting: process peak RSS plus the control plane's interned
    // path-attribute table, so route-memory regressions show up in every
    // BENCH_*.json instead of only in the microbench.
    const auto attr = bgp::AttrTable::global().stats();
    std::vector<std::pair<std::string, std::string>> memory;
    const std::uint64_t rss_kb = peak_rss_kb();
    memory.emplace_back("peak_rss_kb", json_value(rss_kb));
    // Scale-normalized footprint: peak RSS bytes per routed prefix.  Lets
    // small / paper / full runs of the same bench compare directly and makes
    // per-route memory regressions visible at every tier.
    memory.emplace_back("rss_per_route",
                        json_value(route_count_ ? static_cast<double>(rss_kb) * 1024.0 /
                                                      static_cast<double>(route_count_)
                                                : 0.0));
    memory.emplace_back("routes", json_value(route_count_));
    memory.emplace_back("attr_unique_live", json_value(attr.unique_live));
    memory.emplace_back("attr_peak_unique", json_value(attr.peak_unique));
    memory.emplace_back("attr_live_refs", json_value(attr.live_refs));
    memory.emplace_back("attr_intern_calls", json_value(attr.intern_calls));
    memory.emplace_back("attr_intern_hits", json_value(attr.intern_hits));
    memory.emplace_back("attr_bytes_allocated", json_value(attr.bytes_allocated));
    memory.emplace_back("attr_bytes_requested", json_value(attr.bytes_requested));
    memory.emplace_back("attr_dedup_ratio", json_value(attr.dedup_ratio()));
    // Compiled data plane: live footprint of every FlatFib (per-viewpoint
    // resolution tables + the GeoIP fast path) and cumulative rebuild cost.
    const auto fib = net::FlatFibMetrics::global().snapshot();
    memory.emplace_back("fib",
                        "{\"entries\": " + json_value(fib.entries) +
                            ", \"spill_tables\": " + json_value(fib.spill_tables) +
                            ", \"bytes\": " + json_value(fib.bytes) +
                            ", \"rebuilds\": " + json_value(fib.rebuilds) +
                            ", \"full_rebuilds\": " + json_value(fib.full_rebuilds) +
                            ", \"patches\": " + json_value(fib.patches) +
                            ", \"slots_touched\": " + json_value(fib.slots_touched) +
                            ", \"build_seconds\": " + json_value(fib.build_seconds) +
                            ", \"full_build_seconds\": " + json_value(fib.full_build_seconds) +
                            ", \"patch_seconds\": " + json_value(fib.patch_seconds) + "}");
    object("memory", memory);
    out << ",\n";
    // Control-plane convergence engine: cumulative across every fabric this
    // process ran (world build plus any fault churn the bench injected).
    const auto conv = bgp::ConvergenceMetrics::global().snapshot();
    std::vector<std::pair<std::string, std::string>> convergence;
    convergence.emplace_back("runs", json_value(conv.runs));
    convergence.emplace_back("messages", json_value(conv.messages));
    convergence.emplace_back("batches", json_value(conv.batches));
    convergence.emplace_back("messages_per_sec", json_value(conv.messages_per_sec()));
    convergence.emplace_back("shard_limit", json_value(conv.shard_limit));
    convergence.emplace_back("shard_occupancy_mean", json_value(conv.mean_shard_occupancy()));
    convergence.emplace_back("shard_occupancy_max", json_value(conv.max_shards_occupied));
    convergence.emplace_back("max_batch_messages", json_value(conv.max_batch_messages));
    convergence.emplace_back("seconds", json_value(conv.seconds));
    object("convergence", convergence);
    out << ",\n";
    // Traffic engineering: the last load-assignment pass's utilization
    // picture plus cumulative offload-policy moves.  All-zero for benches
    // that never build a matrix — emitted unconditionally so the schema is
    // stable (tools/json_check requires the block in every BENCH json).
    const auto traffic = traffic::TrafficMetrics::global().snapshot();
    std::vector<std::pair<std::string, std::string>> traffic_fields;
    traffic_fields.emplace_back("assignments", json_value(traffic.assignments));
    traffic_fields.emplace_back("links_loaded", json_value(traffic.links_loaded));
    traffic_fields.emplace_back("util_p50", json_value(traffic.util_p50));
    traffic_fields.emplace_back("util_max", json_value(traffic.util_max));
    traffic_fields.emplace_back("offloaded_flows", json_value(traffic.offloaded_flows));
    traffic_fields.emplace_back("rejected_flows", json_value(traffic.rejected_flows));
    traffic_fields.emplace_back("wan_bytes_saved", json_value(traffic.wan_bytes_saved));
    object("traffic", traffic_fields);
    out << "\n}\n";
  }

 private:
  std::string name_, paper_ref_;
  std::vector<std::pair<std::string, std::string>> config_, metrics_, blocks_;
  std::string meta_scale_ = "paper";
  std::uint64_t meta_seed_ = 0;
  double build_seconds_ = 0.0;
  std::size_t route_count_ = 0;
};

/// Shorthand the benches use to register a key metric for the JSON record.
template <typename T>
inline void metric(std::string key, const T& value) {
  BenchRecord::global().metric(std::move(key), value);
}

/// Prints the standard bench header and opens the run record (every bench
/// calls this, directly or through `build_world`).
inline void begin_bench(const BenchArgs& args, const std::string& bench_name,
                        const std::string& paper_ref) {
  util::print_bench_header(std::cout, bench_name, paper_ref, args.seed);
  auto& record = BenchRecord::global();
  record.begin(bench_name, paper_ref);
  record.set_run_meta(std::string{topo::to_string(args.scale)}, args.seed);
  record.config("small", args.small);
  record.config("scale", topo::to_string(args.scale));
  record.config("seed", args.seed);
  record.config("days", args.days);
  record.config("threads", util::resolve_thread_count(args.threads));
}

/// Builds the workbench, timing and reporting construction.
inline std::unique_ptr<measure::Workbench> build_world(const BenchArgs& args,
                                                       const std::string& bench_name,
                                                       const std::string& paper_ref) {
  begin_bench(args, bench_name, paper_ref);
  const auto t0 = std::chrono::steady_clock::now();
  auto world = measure::Workbench::build(args.workbench_config());
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::cout << "world: " << world->internet().as_count() << " ASes, "
            << world->internet().prefix_count() << " prefixes, "
            << world->vns().fabric().neighbor_count() << " eBGP sessions (built in "
            << util::format_double(elapsed, 1) << " s)\n\n";
  util::Counters::global().set("bgp.messages_delivered",
                               world->vns().fabric().messages_delivered());
  auto& record = BenchRecord::global();
  record.set_build_seconds(elapsed);
  record.set_route_count(world->internet().prefix_count());
  record.config("ases", world->internet().as_count());
  record.config("prefixes", world->internet().prefix_count());
  record.config("ebgp_sessions", world->vns().fabric().neighbor_count());
  return world;
}

/// Prints the work-counter snapshot and campaign wall-clock, the trailing
/// block every bench emits so the engine's perf trajectory stays observable.
inline void print_run_counters(std::ostream& out, const BenchArgs& args,
                               double campaign_seconds) {
  out << "\nthreads: " << util::resolve_thread_count(args.threads)
      << ", campaign wall-clock: " << util::format_double(campaign_seconds, 2) << " s\n";
  util::Counters::global().print(out);
}

/// The standard bench epilogue: counter snapshot on stdout, plus the
/// machine-readable BENCH_<name>.json when the bench ran with --json and
/// TRACE_<name>.jsonl (metrics registry + fabric trace) when it ran with
/// --trace.
inline void finish_run(const BenchArgs& args, double campaign_seconds) {
  print_run_counters(std::cout, args, campaign_seconds);
  if (args.json) {
    const auto path = BenchRecord::global().output_path();
    std::ofstream out{path};
    BenchRecord::global().write_json(out, campaign_seconds,
                                     util::resolve_thread_count(args.threads));
    std::cout << "wrote " << path << "\n";
  }
  if (args.trace) {
    const auto path = BenchRecord::global().trace_output_path();
    std::ofstream out{path};
    // Same run-identity header as the BENCH json, as the first line, so a
    // trace file is self-describing even when separated from its json.
    out << "{\"type\":\"run_meta\",\"scale\":"
        << obs::json_string(topo::to_string(args.scale))
        << ",\"threads\":" << util::resolve_thread_count(args.threads)
        << ",\"seed\":" << args.seed << ",\"timestamp\":"
        << obs::json_string(obs::iso8601_utc_now()) << "}\n";
    obs::MetricsRegistry::global().write_jsonl(out);
    trace_sink().write_jsonl(out);
    std::cout << "wrote " << path << "\n";
  }
}

}  // namespace vns::bench
