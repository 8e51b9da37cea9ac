// vns_serve — the serving-mode SLO harness as a standalone tool.
//
// Builds the world, streams churn into it (freshly generated or replayed
// from a recorded trace), serves resolution queries from N threads, and
// prints JSONL heartbeats plus a final `slo` summary object on stdout.
//
//   vns_serve [--scale small|paper|full] [--seed N] [--threads N]
//             [--duration S] [--qps Q] [--batches N] [--events N]
//             [--heartbeat N] [--record FILE] [--replay FILE]
//             [--dump-state FILE]
//
//   --duration S     total dwell budget in seconds, spread over the batches
//                    (pacing only; the event schedule is wall-clock free)
//   --qps Q          per-resolver probe rate (0 = unthrottled)
//   --record FILE    generate the trace, save it to FILE, then run it
//   --replay FILE    load the trace from FILE instead of generating one; a
//                    malformed line or one naming a session, PoP, upstream
//                    or link the world lacks exits 1 and names the line, and
//                    so does a trace recorded for another --scale or --seed
//   --dump-state F   write the canonical final fabric state dump to F —
//                    byte-compare two runs to verify replay determinism
//
// Record/replay contract: the trace file and the final state dump are
// byte-identical for any --threads value; only the latency samples (wall
// clock) differ run to run.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "measure/workbench.hpp"
#include "serve/engine.hpp"
#include "serve/update_trace.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

using namespace vns;

namespace {

struct ServeArgs {
  topo::InternetScale scale = topo::InternetScale::kSmall;
  std::uint64_t seed = 1;
  int threads = 0;
  double duration_s = 0.0;
  double qps = 0.0;
  std::uint64_t batches = 16;
  std::uint32_t events_per_batch = 8;
  std::uint64_t heartbeat_every = 4;
  std::string record_path;
  std::string replay_path;
  std::string dump_state_path;
};

void usage(std::ostream& out) {
  out << "usage: vns_serve [--scale small|paper|full|xl] [--seed N] [--threads N]\n"
         "                 [--duration S] [--qps Q] [--batches N] [--events N]\n"
         "                 [--heartbeat N] [--record FILE] [--replay FILE]\n"
         "                 [--dump-state FILE]\n";
}

/// Parses the flags; nullopt (usage, exit 2) on an unknown flag, a flag
/// missing its value, or a number that is malformed or has trailing
/// characters.
std::optional<ServeArgs> parse(int argc, char** argv) {
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const auto number = [&]<typename T>(T& out) {
      const char* v = next();
      if (v == nullptr) return false;
      const auto parsed = util::parse_number<T>(v);
      if (!parsed) {
        std::cerr << "vns_serve: malformed number '" << v << "' for " << arg << "\n";
        return false;
      }
      out = *parsed;
      return true;
    };
    if (arg == "--scale") {
      const char* tier = next();
      if (tier == nullptr) return std::nullopt;
      const auto parsed = topo::scale_from_string(tier);
      if (!parsed) {
        std::cerr << "unknown --scale '" << tier << "' (valid: small|paper|full|xl)\n";
        return std::nullopt;
      }
      args.scale = *parsed;
    } else if (arg == "--seed") {
      if (!number(args.seed)) return std::nullopt;
    } else if (arg == "--threads") {
      if (!number(args.threads)) return std::nullopt;
    } else if (arg == "--duration") {
      if (!number(args.duration_s)) return std::nullopt;
    } else if (arg == "--qps") {
      if (!number(args.qps)) return std::nullopt;
    } else if (arg == "--batches") {
      if (!number(args.batches)) return std::nullopt;
    } else if (arg == "--events") {
      if (!number(args.events_per_batch)) return std::nullopt;
    } else if (arg == "--heartbeat") {
      if (!number(args.heartbeat_every)) return std::nullopt;
    } else if (arg == "--record") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.record_path = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.replay_path = v;
    } else if (arg == "--dump-state") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      args.dump_state_path = v;
    } else if (arg == "--help") {
      usage(std::cout);
      std::exit(0);
    } else {
      return std::nullopt;
    }
  }
  if (!args.record_path.empty() && !args.replay_path.empty()) return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    usage(std::cerr);
    return 2;
  }

  auto world = measure::Workbench::build(
      measure::WorkbenchConfig::at_scale(args->scale, args->seed));
  world->vns().set_geo_routing(true);

  serve::UpdateTrace trace;
  if (!args->replay_path.empty()) {
    std::ifstream in{args->replay_path};
    if (!in) {
      std::cerr << "vns_serve: cannot open " << args->replay_path << "\n";
      return 1;
    }
    // Checked against the built world before serving: an event naming a
    // session, PoP, upstream or link this world lacks is refused, not
    // applied to whatever its id happens to reach.
    std::string error;
    auto loaded = serve::load_trace(in, &world->vns(), &error);
    if (!loaded) {
      std::cerr << "vns_serve: bad trace " << args->replay_path << ", " << error << "\n";
      return 1;
    }
    // A trace replays only into the world it was recorded against.
    const std::string_view scale = topo::to_string(args->scale);
    if (loaded->scale != scale || loaded->seed != args->seed) {
      std::cerr << "vns_serve: trace " << args->replay_path << " was recorded for scale "
                << loaded->scale << ", seed " << loaded->seed << "; this world is scale "
                << scale << ", seed " << args->seed << "\n";
      return 1;
    }
    trace = std::move(*loaded);
  } else {
    serve::GenerateConfig gen;
    gen.seed = args->seed;
    gen.scale = std::string{topo::to_string(args->scale)};
    gen.batches = args->batches;
    gen.events_per_batch = args->events_per_batch;
    trace = serve::generate_trace(world->vns(), gen);
    if (!args->record_path.empty()) {
      std::ofstream out{args->record_path};
      if (!out) {
        std::cerr << "vns_serve: cannot write " << args->record_path << "\n";
        return 1;
      }
      serve::save_trace(trace, out);
      std::cerr << "vns_serve: recorded " << trace.events.size() << " events to "
                << args->record_path << "\n";
    }
  }

  serve::EngineConfig engine_config;
  engine_config.resolver_threads = util::resolve_thread_count(args->threads);
  engine_config.duration_s = args->duration_s;
  engine_config.qps = args->qps;
  engine_config.seed = args->seed;
  engine_config.heartbeat_every = args->heartbeat_every;
  engine_config.heartbeat_out = &std::cout;

  serve::Engine engine(world->vns(), engine_config);
  const serve::SloReport report = engine.run(trace);
  std::cout << "{\"type\":\"slo\",\"slo\":" << report.to_json() << "}\n";

  if (!args->dump_state_path.empty()) {
    std::ofstream out{args->dump_state_path};
    if (!out) {
      std::cerr << "vns_serve: cannot write " << args->dump_state_path << "\n";
      return 1;
    }
    out << serve::dump_fabric_state(world->vns().fabric());
    std::cerr << "vns_serve: wrote state dump to " << args->dump_state_path << "\n";
  }
  return 0;
}
