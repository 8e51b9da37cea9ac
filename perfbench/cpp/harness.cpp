#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

namespace perfbench {

int worker_count() noexcept {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores == 0 ? kWorkers : std::min<int>(kWorkers, static_cast<int>(cores));
}

std::int64_t process_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mib() noexcept {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double current_rss_mib() noexcept {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int read = std::fscanf(statm, "%lu %lu", &size, &resident);
  std::fclose(statm);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void release_free_memory() noexcept { malloc_trim(0); }

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  p.beyond = n - rank;
  if (p.beyond < kMinBeyond) return p;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  p.value = values[rank - 1];
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  const double upper = *mid;
  const double lower = *std::max_element(values.begin(), mid);
  return (lower + upper) / 2.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double clock_cost_ns() {
  constexpr int kCalls = 1000;
  std::vector<double> slices;
  for (int s = 0; s < 31; ++s) {
    const auto t0 = Clock::now();
    Clock::time_point last = t0;
    for (int i = 0; i < kCalls; ++i) last = Clock::now();
    slices.push_back(static_cast<double>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(last - t0).count()) /
                     kCalls);
  }
  return median(std::move(slices));
}

double mem_probe_ns(std::uint64_t seed) {
  constexpr std::size_t kEntries = (4u << 20) / sizeof(std::uint32_t);  // 4 MiB
  constexpr std::size_t kReads = 1u << 22;
  std::vector<std::uint32_t> table(kEntries);
  std::uint64_t x = seed | 1;
  for (auto& entry : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    entry = static_cast<std::uint32_t>(x);
  }
  std::vector<double> per_read;
  std::uint64_t sink = 0;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kReads; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sink += table[x % kEntries];
    }
    per_read.push_back(static_cast<double>(now_ns() - t0) / kReads);
  }
  // Keeps the reads live without printing anything.
  if (sink == 0x5eed) std::fputc('\0', stderr);
  return median(std::move(per_read));
}

void Report::add(std::string name, std::string unit, std::optional<double> value,
                 std::size_t samples) {
  if (value && !std::isfinite(*value)) value.reset();
  metrics_.push_back({std::move(name), std::move(unit), value, samples});
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Report::json(bool with_samples) const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i != 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " +
           (m.value ? json_number(*m.value) : std::string{"null"}) +
           ", \"unit\": " + json_string(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

vns::net::Ipv4Address refresh_probe_address(const vns::core::VnsNetwork& vns) {
  return vns.known_prefix_log().front().first_host();
}

std::size_t touch_every_pop(const vns::core::VnsNetwork& vns, vns::net::Ipv4Address probe) {
  std::size_t answered = 0;
  for (const auto& pop : vns.pops()) {
    if (vns.egress_pop(pop.id, probe)) ++answered;
  }
  return answered;
}

namespace {

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

}  // namespace

void setup_world(World& world, Tracer& tracer) {
  using vns::measure::Workbench;
  using vns::measure::WorkbenchConfig;
  if (world.bench) {
    world.bench.reset();
    release_free_memory();
  }
  const std::uint64_t request = tracer.new_request();
  ScopedSpan setup_span{tracer, "setup", kNoSpan, request, /*with_cpu=*/true};
  SetupSample sample;
  const std::int64_t t0 = now_ns();

  WorkbenchConfig config = WorkbenchConfig::paper_scale(kWorldSeed);
  config.feed_routes = false;
  config.threads = kControlPlaneLanes;
  double rss0 = current_rss_mib();
  {
    ScopedSpan span{tracer, "measure.world_build", setup_span.id(), request, true};
    world.bench = Workbench::build(config);
  }
  sample.world_build_s = seconds_since(t0);
  sample.world_build_rss_mib = current_rss_mib() - rss0;

  auto& vns = world.bench->vns();
  rss0 = current_rss_mib();
  const std::size_t messages0 = vns.fabric().messages_delivered();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t feed0 = now_ns();
  {
    ScopedSpan span{tracer, "bgp.feed", setup_span.id(), request, true};
    vns.feed_routes();
  }
  sample.feed_s = seconds_since(feed0);
  sample.feed_cpu_s = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
  sample.feed_rss_mib = current_rss_mib() - rss0;
  sample.feed_messages = vns.fabric().messages_delivered() - messages0;

  const std::size_t messages1 = vns.fabric().messages_delivered();
  const std::int64_t flip0 = now_ns();
  {
    ScopedSpan span{tracer, "bgp.geo_flip", setup_span.id(), request, true};
    vns.set_geo_routing(true);
  }
  sample.geo_flip_s = seconds_since(flip0);
  sample.geo_flip_messages = vns.fabric().messages_delivered() - messages1;

  const std::int64_t compile0 = now_ns();
  {
    ScopedSpan span{tracer, "core.fib_compile", setup_span.id(), request};
    touch_every_pop(vns, refresh_probe_address(vns));
    span.set_items(vns.pops().size());
  }
  sample.first_compile_s = seconds_since(compile0);
  sample.total_s = seconds_since(t0);
  world.setups.push_back(sample);
}

}  // namespace perfbench
