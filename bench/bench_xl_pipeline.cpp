// Million-prefix pipeline bench: streamed world generation -> GeoIP ->
// streamed route feed -> viewpoint FIB compile, at any --scale (the gated
// bench_smoke_xl ctest runs it at xl: ~30k ASes, 1M+ prefixes).
//
// The point of the streamed pipeline is that the full prefix table never
// exists twice in memory: topo::Internet hands each origin's batch straight
// through GeoIP construction and the VNS feed, with periodic convergence
// checkpoints bounding the pending-update queue.  This bench enforces that
// property: peak RSS (getrusage) must stay within ~1.2x of the steady-state
// compiled footprint (/proc/self/statm after the build settles), i.e. the
// build may not transiently balloon past what the converged world needs
// anyway.  A materialized build fails this at xl by hundreds of MB.
//
// Emits the standard BENCH json (rss_per_route, fib.full_build_seconds /
// patch_seconds, arena accounting) with --json.
#include <fstream>
#include <iostream>

#if defined(__unix__)
#include <unistd.h>
#endif

#include "bench/bench_common.hpp"

using namespace vns;

namespace {

/// Current (not peak) resident set in KiB, from /proc/self/statm; 0 where
/// unavailable (the ratio check is skipped there).
std::uint64_t current_rss_kb() {
#if defined(__unix__)
  std::ifstream statm{"/proc/self/statm"};
  std::uint64_t total_pages = 0, resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return resident_pages * static_cast<std::uint64_t>(page) / 1024;
#else
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::begin_bench(args, "bench_xl_pipeline",
                     "million-prefix streamed build pipeline (ROADMAP item 2)");

  auto config = args.workbench_config();
  // Stream at every tier, not just xl: the smoke tiers exercise the same
  // pipeline shape the gated xl run scales up.
  config.stream_generation = true;

  const auto t0 = std::chrono::steady_clock::now();
  auto world = measure::Workbench::build(config);
  const double build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  auto& w = *world;
  const std::size_t prefixes = w.internet().prefix_count();
  std::cout << "world: " << w.internet().as_count() << " ASes, " << prefixes
            << " prefixes (streamed), " << w.vns().fabric().neighbor_count()
            << " eBGP sessions (built in " << util::format_double(build_seconds, 1)
            << " s)\n";
  auto& record = bench::BenchRecord::global();
  record.set_build_seconds(build_seconds);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.set(obs::metric("memory.routes"), prefixes);
  record.config("ases", w.internet().as_count());
  record.config("prefixes", prefixes);
  record.config("ebgp_sessions", w.vns().fabric().neighbor_count());

  // The feed's closing convergence published every viewpoint FIB; one egress
  // query per PoP checks that each answers.  This is the steady serving
  // footprint the ratio check compares against.
  const auto probe = config.vns.anycast_prefix.first_host();
  for (const auto& pop : w.vns().pops()) {
    const auto egress = w.vns().egress_pop(pop.id, probe);
    if (!egress) {
      std::cerr << "bench_xl_pipeline: no anycast route at PoP " << pop.name << "\n";
      return 1;
    }
  }

  const std::uint64_t steady_kb = current_rss_kb();
  const std::uint64_t peak_kb = bench::peak_rss_kb();
  const double fib_compile_seconds = metrics.value(obs::metric("memory.fib.full_build_seconds"));
  const auto arena = w.vns().fabric().rib_arena_stats();
  const double peak_over_steady =
      steady_kb > 0 ? static_cast<double>(peak_kb) / static_cast<double>(steady_kb) : 0.0;

  std::cout << "viewpoint FIBs: " << metrics.count(obs::metric("memory.fib.entries"))
            << " entries, " << metrics.count(obs::metric("memory.fib.spill_tables"))
            << " spill tables, cumulative full builds "
            << util::format_double(fib_compile_seconds, 2) << " s (inside the build)\n";
  std::cout << "rib arena: " << arena.reserved_bytes / (1024 * 1024) << " MiB reserved, "
            << arena.live_bytes / (1024 * 1024) << " MiB live, " << arena.freelist_reuses
            << " freelist reuses across " << arena.allocations << " allocations\n";
  std::cout << "memory: steady " << steady_kb / 1024 << " MiB, peak " << peak_kb / 1024
            << " MiB (peak/steady " << util::format_double(peak_over_steady, 3) << ")\n";

  bench::metric("prefixes", prefixes);
  bench::metric("build_seconds", build_seconds);
  bench::metric("fib_compile_seconds", fib_compile_seconds);
  bench::metric("steady_rss_kb", steady_kb);
  bench::metric("peak_over_steady", peak_over_steady);
  bench::metric("arena_reserved_bytes", arena.reserved_bytes);
  bench::metric("arena_live_bytes", arena.live_bytes);
  bench::metric("arena_freelist_reuses", arena.freelist_reuses);

  bench::finish_run(args, build_seconds);

  // The streaming guarantee, enforced: the build may not have transiently
  // held significantly more than the converged world retains.  64 MiB of
  // slack absorbs allocator quantization at the small smoke tiers, where
  // the absolute footprint is tiny and the ratio alone would be noise.
  if (steady_kb > 0) {
    const std::uint64_t budget_kb =
        static_cast<std::uint64_t>(static_cast<double>(steady_kb) * 1.2) + 64 * 1024;
    if (peak_kb > budget_kb) {
      std::cerr << "bench_xl_pipeline: peak RSS " << peak_kb << " KiB exceeds budget "
                << budget_kb << " KiB (1.2x steady " << steady_kb
                << " KiB + 64 MiB slack) - streamed build is materializing\n";
      return 1;
    }
  }
  return 0;
}
