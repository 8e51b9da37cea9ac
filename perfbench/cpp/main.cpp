// perfbench: the vnskit benchmark program.
//
//   perfbench --workload serve_paper|churn_paper|campaign_paper --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// Builds the paper-scale world kSetupRepeats times (setup_s is their
// median) and runs a third of one workload's mix of request classes on each
// world, about S seconds in all (longer only when the host is too slow for
// every class to reach its minimum sample count), verifies its answers, and
// prints one JSON object as the last line of stdout: with --trace 0 every
// end-to-end metric, with --trace 1 every per-layer metric.  --out receives
// result.json, and for a traced run spans.jsonl and layers.txt.  Exit
// status 2 means bad arguments, 1 a failed run.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  RunConfig run;
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload serve_paper|churn_paper|campaign_paper --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n";
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc{} || end != text.data() + text.size()) {
    usage(std::string{flag} + " expects a number, got '" + std::string{text} + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string{flag});
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      if (!known_workload(value)) usage("unknown workload '" + std::string{value} + "'");
      args.run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.run.seed = parse_number<std::uint64_t>(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.run.seconds = parse_number<double>(flag, value);
      if (!(args.run.seconds > 0.0 && args.run.seconds <= 3600.0)) {
        usage("--seconds must be in (0, 3600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      const int trace = parse_number<int>(flag, value);
      if (trace != 0 && trace != 1) usage("--trace expects 0 or 1");
      args.run.trace = trace == 1;
      have_trace = true;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      usage("unknown flag '" + std::string{flag} + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::string notes_json(const std::vector<std::pair<std::string, double>>& notes) {
  std::string out = "{";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(notes[i].first) + ": " + json_number(notes[i].second);
  }
  return out + "}";
}

/// Per-layer metrics of the set-up stages: medians over the run's set-ups.
void add_setup_layers(const World& world, Report& layer) {
  const auto pick = [&](auto field) {
    std::vector<double> values;
    for (const SetupSample& s : world.setups) values.push_back(field(s));
    return median(std::move(values));
  };
  const std::size_t n = world.setups.size();
  layer.add("measure.world_build_s", "s",
            pick([](const SetupSample& s) { return s.world_build_s; }), n);
  layer.add("measure.world_build_rss_mb", "MiB",
            pick([](const SetupSample& s) { return s.world_build_rss_mib; }), n);
  layer.add("bgp.feed_s", "s", pick([](const SetupSample& s) { return s.feed_s; }), n);
  layer.add("bgp.feed_messages", "count",
            pick([](const SetupSample& s) { return static_cast<double>(s.feed_messages); }), n);
  layer.add("bgp.feed_cpu_ratio", "ratio",
            pick([](const SetupSample& s) { return s.feed_cpu_s / s.feed_s; }), n);
  layer.add("bgp.feed_rss_mb", "MiB", pick([](const SetupSample& s) { return s.feed_rss_mib; }), n);
  layer.add("bgp.geo_flip_s", "s", pick([](const SetupSample& s) { return s.geo_flip_s; }), n);
  layer.add("bgp.geo_flip_messages", "count",
            pick([](const SetupSample& s) { return static_cast<double>(s.geo_flip_messages); }),
            n);
  layer.add("core.fib_compile_ms", "ms",
            pick([](const SetupSample& s) { return s.first_compile_s * 1e3; }), n);
}

[[noreturn]] void run(const Args& args) {
  const RunConfig& config = args.run;
  const double clock_ns = clock_cost_ns();
  const double mem_start_ns = mem_probe_ns(config.seed);
  Tracer tracer{config.trace};

  World world;
  Outcome outcome = run_workload(world, config, tracer);
  std::vector<double> setup_s;
  for (const SetupSample& s : world.setups) setup_s.push_back(s.total_s);
  const double peak_rss = peak_rss_mib();
  const double mem_end_ns = mem_probe_ns(config.seed + 1);

  Report end_to_end;
  end_to_end.add("setup_s", "s", median(setup_s), setup_s.size());
  end_to_end.add("peak_rss_mb", "MiB", peak_rss, 1);
  for (const Metric& m : outcome.end_to_end.metrics()) {
    end_to_end.add(m.name, m.unit, m.value, m.samples);
  }

  Report per_layer;
  if (config.trace) {
    add_setup_layers(world, per_layer);
    for (const Metric& m : outcome.per_layer.metrics()) {
      per_layer.add(m.name, m.unit, m.value, m.samples);
    }
    per_layer.add("host.clock_ns", "ns", clock_ns, 31);
    per_layer.add("host.mem_probe_ns", "ns", (mem_start_ns + mem_end_ns) / 2.0, 2);
    per_layer.add("trace.overhead_pct", "%", outcome.overhead_pct, 0);
  }
  const Report& printed = config.trace ? per_layer : end_to_end;

  bool complete = true;
  for (const Metric& m : printed.metrics()) {
    if (!m.value) {
      std::cerr << "perfbench: metric " << m.name << " has too few samples (" << m.samples
                << ")\n";
      complete = false;
    }
  }
  const bool correct = outcome.failed == 0;

  std::cout << "workload " << config.workload << " seed " << config.seed << " seconds "
            << config.seconds << " trace " << config.trace << " workers " << worker_count()
            << " control-plane lanes " << kControlPlaneLanes << "\n"
            << "host: steady_clock::now() " << json_number(clock_ns) << " ns; mem probe "
            << json_number(mem_start_ns) << " ns at start, " << json_number(mem_end_ns)
            << " ns at end\n"
            << "verified: " << outcome.attempted << " operations, " << outcome.failed
            << " failed; " << outcome.answers_checked << " answers checked against the oracle, "
            << outcome.answers_wrong << " wrong\n";
  if (config.trace) std::cout << "end-to-end over the untraced half of the requests:\n";
  for (const Metric& m : end_to_end.metrics()) {
    std::cout << "  " << m.name << " = " << (m.value ? json_number(*m.value) : "null") << " "
              << m.unit << " (n=" << m.samples << ")\n";
  }

  if (!args.out_dir.empty()) {
    const std::filesystem::path dir{args.out_dir};
    std::filesystem::create_directories(dir);
    std::ofstream result{dir / "result.json"};
    result << "{\"workload\": " << json_string(config.workload) << ", \"seed\": " << config.seed
           << ", \"seconds\": " << json_number(config.seconds)
           << ", \"trace\": " << (config.trace ? "true" : "false")
           << ", \"workers\": " << worker_count()
           << ", \"control_plane_lanes\": " << kControlPlaneLanes
           << ", \"world_seed\": " << kWorldSeed
           << ", \"setup_repeats\": " << kSetupRepeats
           << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
           << ", \"answers_checked\": " << outcome.answers_checked
           << ", \"answers_wrong\": " << outcome.answers_wrong
           << ", \"host\": {\"clock_ns\": " << json_number(clock_ns)
           << ", \"mem_probe_ns_start\": " << json_number(mem_start_ns)
           << ", \"mem_probe_ns_end\": " << json_number(mem_end_ns) << "}"
           << ", \"end_to_end\": " << end_to_end.json(true);
    if (config.trace) {
      result << ", \"end_to_end_traced\": " << outcome.end_to_end_traced.json(true)
             << ", \"per_layer\": " << per_layer.json(true);
    }
    result << ", \"notes\": " << notes_json(outcome.notes) << "}\n";
    if (config.trace) {
      std::ofstream spans{dir / "spans.jsonl"};
      write_spans_jsonl(tracer.spans(), spans);
      const auto rows = layer_table(tracer.spans(), [&](const std::string& name) {
        return feeds_of(name);
      });
      std::ofstream table{dir / "layers.txt"};
      write_layer_table(rows, table);
      write_layer_table(rows, std::cout);
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << printed.json(false) << "}" << std::endl;
  // The world holds hundreds of MiB of small allocations; the OS reclaims
  // them far faster than its destructors would.
  std::fflush(nullptr);
  std::_Exit(complete ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
