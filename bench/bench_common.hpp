// Shared scaffolding for the figure/table benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation.  They accept:
//   --scale S      world tier: small (CI smoke runs) | paper (default) |
//                  full (10k ASes, 100k+ prefixes, full-table scale) | xl
//   --seed N       world seed (default 1)
//   --days D       campaign length where applicable (scaled-down defaults)
//   --threads N    campaign worker count (default: VNS_THREADS, then
//                  hardware; results are bit-identical for any N)
//   --json         additionally write BENCH_<name>.json with the run's
//                  config, key metrics, wall-clock and the metrics registry
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
#include "measure/workbench.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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
      if (arg == "--scale") {
        const std::string_view tier = value();
        const auto parsed = topo::scale_from_string(tier);
        if (!parsed) {
          usage_error("unknown --scale '" + std::string{tier} + "' (valid: small|paper|full|xl)");
        }
        args.scale = *parsed;
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
        std::cout << "flags: --scale {small,paper,full,xl} --seed N --days D "
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
    if (trace) config.trace = &trace_sink();
    return config;
  }
};

// ---- machine-readable run record (--json) ----------------------------------

/// Per-process record of one bench run: the name, the resolved config and
/// whichever key metrics the bench registers.  `finish_run` serializes it,
/// followed by the metrics registry's blocks, to `BENCH_<name>.json` when the
/// bench ran with --json.
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
    config_.emplace_back(std::move(key), to_json(value));
  }

  template <typename T>
  void metric(std::string key, const T& value) {
    metrics_.emplace_back(std::move(key), to_json(value));
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
      out << "  " << obs::json_string(key) << ": {";
      for (std::size_t i = 0; i < fields.size(); ++i) {
        out << (i ? ", " : "") << obs::json_string(fields[i].first) << ": " << fields[i].second;
      }
      out << "}";
    };
    out << "{\n";
    out << "  \"name\": " << obs::json_string(name_) << ",\n";
    out << "  \"paper_ref\": " << obs::json_string(paper_ref_) << ",\n";
    // Run-identity header: enough to re-run the exact world (scale preset,
    // seed, thread count) plus when the artifact was produced.
    object("meta", {{"scale", obs::json_string(meta_scale_)},
                    {"threads", to_json(threads)},
                    {"seed", to_json(meta_seed_)},
                    {"timestamp", obs::json_string(obs::iso8601_utc_now())}});
    out << ",\n";
    out << "  \"build_seconds\": " << to_json(build_seconds_) << ",\n";
    out << "  \"campaign_seconds\": " << to_json(campaign_seconds) << ",\n";
    object("config", config_);
    out << ",\n";
    object("metrics", metrics_);
    for (const auto& [key, raw] : blocks_) {
      out << ",\n  " << obs::json_string(key) << ": " << raw;
    }
    obs::MetricsRegistry::global().write_bench_blocks(out);
    out << "\n}\n";
  }

 private:
  template <typename T>
  [[nodiscard]] static std::string to_json(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      return value ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
      return obs::json_number(static_cast<double>(value));
    } else if constexpr (std::is_signed_v<T>) {
      return obs::json_number(static_cast<std::int64_t>(value));
    } else {
      return obs::json_number(static_cast<std::uint64_t>(value));
    }
  }

  std::string name_, paper_ref_;
  std::vector<std::pair<std::string, std::string>> config_, metrics_, blocks_;
  std::string meta_scale_ = "paper";
  std::uint64_t meta_seed_ = 0;
  double build_seconds_ = 0.0;
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
}

/// The campaign length this run uses — `--days`, or the bench's default at
/// the chosen scale — recorded as config.days.
inline double campaign_days(const BenchArgs& args, double small_days, double default_days) {
  double days = args.scale == topo::InternetScale::kSmall ? small_days : default_days;
  if (args.days > 0) days = args.days;
  BenchRecord::global().config("days", days);
  return days;
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
  auto& metrics = obs::MetricsRegistry::global();
  metrics.set(obs::metric("counters.bgp.messages_delivered"),
              world->vns().fabric().messages_delivered());
  metrics.set(obs::metric("memory.routes"), world->internet().prefix_count());
  auto& record = BenchRecord::global();
  record.set_build_seconds(elapsed);
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
  obs::MetricsRegistry::global().print_counters(out);
}

/// Samples into the registry what it cannot count as it happens: peak RSS,
/// the AttrTable's live intern stats and the ratios derived from other
/// cells.  The one place these gauges are written, just before an export
/// reads them.
inline void sample_export_metrics() {
  auto& metrics = obs::MetricsRegistry::global();
  const std::uint64_t rss_kb = peak_rss_kb();
  const std::uint64_t routes = metrics.count(obs::metric("memory.routes"));
  metrics.set(obs::metric("memory.peak_rss_kb"), rss_kb);
  // Scale-normalized footprint: peak RSS bytes per routed prefix, so runs of
  // the same bench at different tiers compare directly.
  metrics.set_real(obs::metric("memory.rss_per_route"),
                   routes ? static_cast<double>(rss_kb) * 1024.0 / static_cast<double>(routes)
                          : 0.0);
  const auto attr = bgp::AttrTable::global().stats();
  metrics.set(obs::metric("memory.attr_unique_live"), attr.unique_live);
  metrics.set(obs::metric("memory.attr_peak_unique"), attr.peak_unique);
  metrics.set(obs::metric("memory.attr_live_refs"), attr.live_refs);
  metrics.set(obs::metric("memory.attr_intern_calls"), attr.intern_calls);
  metrics.set(obs::metric("memory.attr_intern_hits"), attr.intern_hits);
  metrics.set(obs::metric("memory.attr_bytes_allocated"), attr.bytes_allocated);
  metrics.set(obs::metric("memory.attr_bytes_requested"), attr.bytes_requested);
  metrics.set_real(obs::metric("memory.attr_dedup_ratio"), attr.dedup_ratio());
  const double seconds = metrics.value(obs::metric("convergence.seconds"));
  metrics.set_real(obs::metric("convergence.messages_per_sec"),
                   seconds > 0.0 ? metrics.value(obs::metric("convergence.messages")) / seconds
                                 : 0.0);
}

/// The standard bench epilogue: counter snapshot on stdout, plus the
/// machine-readable BENCH_<name>.json when the bench ran with --json and
/// TRACE_<name>.jsonl (metrics registry + fabric trace) when it ran with
/// --trace.
inline void finish_run(const BenchArgs& args, double campaign_seconds) {
  print_run_counters(std::cout, args, campaign_seconds);
  sample_export_metrics();
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
