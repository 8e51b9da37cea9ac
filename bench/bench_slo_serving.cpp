// Serving-mode SLO bench: resolution latency and publish latency under churn.
//
// Builds the serving world, generates a deterministic churn trace (route
// flaps over the upstream transit sessions plus link/upstream faults), and
// runs serve::Engine: a churn thread streams the trace into the fabric while
// resolver threads probe the viewpoint FIBs that each convergence publishes.
// One run yields the resolve ladder (ns per probe), the publish ladder (µs
// from a batch's first applied event to the end of the convergence that made
// it live) and the patch-vs-rebuild split, emitted as the `slo` block of
// BENCH_slo_serving.json.
//
// A second engine run over the *same trace* against a world with incremental
// FIB patching disabled (fib_patch_max_dirty_fraction < 0, every publish a
// full DIR-16-8-8 recompile of each viewpoint) isolates what the RIB-delta
// patch path buys: the publish latency of both configurations prints side by
// side and lands in the metrics.
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>

#include "bench/bench_common.hpp"
#include "serve/engine.hpp"
#include "serve/update_trace.hpp"

using namespace vns;

namespace {

serve::SloReport run_engine(core::VnsNetwork& vns, const serve::UpdateTrace& trace,
                            const bench::BenchArgs& args, std::ostream* heartbeat_out) {
  serve::EngineConfig config;
  config.resolver_threads = util::resolve_thread_count(args.threads);
  config.duration_s = args.scale == topo::InternetScale::kSmall ? 0.0 : 0.5;
  config.qps = 0.0;  // unthrottled: tails come from the FIB, not the pacer
  config.seed = args.seed;
  config.heartbeat_every = 4;
  config.heartbeat_out = heartbeat_out;
  serve::Engine engine(vns, config);
  return engine.run(trace);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  auto world = bench::build_world(args, "bench_slo_serving",
                                  "serving-mode SLO observability under churn (S3.2)");
  auto& w = *world;
  w.vns().set_geo_routing(true);

  serve::GenerateConfig gen;
  gen.seed = args.seed;
  gen.scale = std::string{topo::to_string(args.scale)};
  gen.batches = args.scale == topo::InternetScale::kSmall ? 12 : 24;
  gen.events_per_batch = args.scale == topo::InternetScale::kSmall ? 6 : 12;
  const serve::UpdateTrace trace = serve::generate_trace(w.vns(), gen);
  std::cout << "trace: " << trace.events.size() << " events over " << trace.batches
            << " batches (seed " << trace.seed << ")\n\n";

  const auto campaign_t0 = std::chrono::steady_clock::now();
  std::ostringstream heartbeats;
  const serve::SloReport patched = run_engine(w.vns(), trace, args, &heartbeats);

  // Comparison world: identical topology and routes, but every viewpoint-FIB
  // publish is a full recompile.  Same trace, so the control-plane
  // trajectory is identical; only the data-plane refresh strategy differs.
  auto full_config = args.workbench_config();
  full_config.vns.fib_patch_max_dirty_fraction = -1.0;
  auto full_world = measure::Workbench::build(full_config);
  full_world->vns().set_geo_routing(true);
  const serve::SloReport full_rebuild =
      run_engine(full_world->vns(), trace, args, nullptr);
  const auto campaign_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - campaign_t0).count();

  std::cout << "heartbeats (every 4 batches):\n" << heartbeats.str() << "\n";

  // Percentiles with fewer than ten samples beyond them print as "-" (the
  // publish ladder has one sample per batch).
  util::TextTable table{{"configuration", "ladder", "samples", "p50", "p90", "p99", "max"}};
  const auto cell = [](std::optional<double> value) {
    return value ? util::format_double(*value, 1) : std::string{"-"};
  };
  const auto row = [&](const char* config_name, const char* ladder,
                       const obs::LatencySnapshot& snap) {
    table.add_row({config_name, ladder, std::to_string(snap.total()),
                   cell(snap.reported_quantile(0.50)), cell(snap.reported_quantile(0.90)),
                   cell(snap.reported_quantile(0.99)), cell(snap.reported_max())});
  };
  row("incremental patch", "resolve (ns)", patched.resolve_ns);
  row("incremental patch", "publish (us)", patched.publish_us);
  row("full rebuild", "resolve (ns)", full_rebuild.resolve_ns);
  row("full rebuild", "publish (us)", full_rebuild.publish_us);
  table.print(std::cout);
  std::cout << "\npatch vs rebuild: " << patched.fib_patches << " patches, "
            << patched.fib_full_rebuilds << " full rebuilds (patched world); "
            << full_rebuild.fib_patches << " patches, " << full_rebuild.fib_full_rebuilds
            << " full rebuilds (rebuild world)\n";

  const auto reported = [](std::optional<double> value) { return value.value_or(std::nan("")); };
  bench::metric("probes", patched.probes);
  bench::metric("resolve_p50_ns", reported(patched.resolve_ns.reported_quantile(0.50)));
  bench::metric("resolve_p99_ns", reported(patched.resolve_ns.reported_quantile(0.99)));
  bench::metric("publish_p50_us", reported(patched.publish_us.reported_quantile(0.50)));
  bench::metric("publish_p50_full_rebuild_us",
                reported(full_rebuild.publish_us.reported_quantile(0.50)));
  bench::metric("publish_max_us", reported(patched.publish_us.reported_max()));
  bench::metric("publish_max_full_rebuild_us", reported(full_rebuild.publish_us.reported_max()));
  bench::metric("fib_patches", patched.fib_patches);
  bench::metric("fib_full_rebuilds", patched.fib_full_rebuilds);
  bench::BenchRecord::global().block("slo", patched.to_json());

  bench::finish_run(args, campaign_seconds);
  return 0;
}
