// Self-tests of the benchmark's own machinery: span self-time arithmetic,
// the sample-count rule for percentiles, input determinism and coverage,
// and the oracle counting a deliberately wrong answer as a failure.
//
//   ctest --test-dir .bench_build/perfbench --output-on-failure
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "measure/workbench.hpp"
#include "oracle.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool condition, const char* what, int line) {
  if (condition) return;
  std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
  ++failures;
}
#define CHECK(cond) check((cond), #cond, __LINE__)

Span make_span(std::int64_t start, std::int64_t end, int parent) {
  Span span;
  span.name = "s";
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

void test_self_time_nested() {
  // parent [0,100] > child [10,50] > grandchild [20,30]: only direct
  // children count against a span.
  const std::vector<Span> spans = {make_span(0, 100, kNoSpan), make_span(10, 50, 0),
                                   make_span(20, 30, 1)};
  const auto self = self_times(spans);
  CHECK(self[0] == 60);
  CHECK(self[1] == 30);
  CHECK(self[2] == 10);
}

void test_self_time_overlapping_children() {
  // Children [10,40] and [30,60] overlap: their union (50) is covered once.
  // A third child [90,120] sticks out of the parent and is clipped to 10.
  const std::vector<Span> spans = {make_span(0, 100, kNoSpan), make_span(10, 40, 0),
                                   make_span(30, 60, 0), make_span(90, 120, 0)};
  const auto self = self_times(spans);
  CHECK(self[0] == 100 - 50 - 10);
  CHECK(self[1] == 30);
  CHECK(self[2] == 30);
}

void test_self_time_disjoint_and_contained_children() {
  // [20,30] lies inside [10,40]: the union is [10,40] plus [60,70].
  const std::vector<Span> spans = {make_span(0, 100, kNoSpan), make_span(10, 40, 0),
                                   make_span(20, 30, 0), make_span(60, 70, 0)};
  const auto self = self_times(spans);
  CHECK(self[0] == 100 - 30 - 10);
}

void test_layer_table() {
  std::vector<Span> spans = {make_span(0, 100, kNoSpan), make_span(10, 40, 0)};
  spans[1].name = "child";
  spans[1].items = 5;
  spans[0].cpu_ns = 200;  // two busy threads over the parent's 100 ns
  const auto rows = layer_table(spans, [](const std::string& name) {
    return name == "child" ? std::string{"metric_a"} : std::string{"-"};
  });
  CHECK(rows.size() == 2);
  CHECK(rows[0].name == "s" && std::abs(rows[0].self_ms - 70e-6) < 1e-12);
  CHECK(std::abs(rows[0].cpu_ratio - 2.0) < 1e-12);
  CHECK(rows[1].items == 5 && rows[1].feeds == "metric_a" && rows[1].cpu_ratio < 0.0);
}

void test_percentile_sample_rule() {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const auto p90 = percentile(values, 0.90);
  CHECK(p90.value && *p90.value == 90.0 && p90.beyond == 10 && p90.samples == 100);
  CHECK(!percentile(values, 0.99).value);  // one sample beyond p99
  values.pop_back();
  CHECK(!percentile(values, 0.90).value);  // nine beyond p90
  CHECK(*percentile(values, 0.50).value == 50.0);
  CHECK(median({3.0, 1.0, 2.0, 4.0}) == 2.5);
}

void test_inputs_follow_the_seed(vns::core::VnsNetwork& vns) {
  FlapSchedule a{vns, 7}, b{vns, 7}, c{vns, 8};
  const auto batch_a = a.next_batch(16), batch_b = b.next_batch(16), batch_c = c.next_batch(16);
  bool same = true, differs = false;
  for (std::size_t i = 0; i < batch_a.size(); ++i) {
    same = same && batch_a[i].prefix == batch_b[i].prefix &&
           batch_a[i].session == batch_b[i].session && batch_a[i].withdraw == batch_b[i].withdraw;
    differs = differs || batch_a[i].prefix != batch_c[i].prefix;
  }
  CHECK(same);
  CHECK(differs);

  // The failover pass fails and repairs every link once and exactly
  // kUpstreamTargets distinct upstream sessions; the seed changes the order
  // and the sessions, never the link population.
  using Kind = Fault::Kind;
  const auto pass = fault_pass(vns, 7);
  CHECK(pass.size() == vns.links().size() + kUpstreamTargets);
  std::map<std::pair<vns::core::PopId, vns::core::PopId>, std::size_t> link_failures;
  std::map<std::pair<vns::core::PopId, int>, std::size_t> upstream_failures;
  for (const FaultTarget& target : pass) {
    const bool pair =
        (target.down.kind == Kind::kLinkDown && target.up.kind == Kind::kLinkUp) ||
        (target.down.kind == Kind::kUpstreamDown && target.up.kind == Kind::kUpstreamUp);
    CHECK(pair && target.down.a == target.up.a && target.down.b == target.up.b &&
          target.down.which == target.up.which);
    if (target.down.upstream()) {
      ++upstream_failures[{target.down.a, target.down.which}];
    } else {
      ++link_failures[{target.down.a, target.down.b}];
    }
  }
  CHECK(link_failures.size() == vns.links().size());
  for (const auto& [link, count] : link_failures) CHECK(count == 1);
  CHECK(upstream_failures.size() == kUpstreamTargets);

  const auto same_pass = fault_pass(vns, 7);
  bool same_order = true;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    same_order = same_order && pass[i].down.kind == same_pass[i].down.kind &&
                 pass[i].down.a == same_pass[i].down.a && pass[i].down.b == same_pass[i].down.b &&
                 pass[i].down.which == same_pass[i].down.which;
  }
  CHECK(same_order);
  bool reordered = false;
  for (std::uint64_t seed = 8; seed < 12 && !reordered; ++seed) {
    const auto other = fault_pass(vns, seed);
    for (std::size_t i = 0; i < pass.size(); ++i) {
      reordered = reordered || pass[i].down.a != other[i].down.a ||
                  pass[i].down.b != other[i].down.b || pass[i].down.kind != other[i].down.kind;
    }
  }
  CHECK(reordered);
}

void test_oracle_counts_wrong_answers(vns::core::VnsNetwork& vns) {
  const vns::core::PopId viewpoint = 0;
  std::optional<vns::net::Ipv4Address> routed;
  for (const auto& prefix : vns.known_prefix_log()) {
    if (oracle_egress(vns, viewpoint, prefix.first_host())) {
      routed = prefix.first_host();
      break;
    }
  }
  CHECK(routed.has_value());
  if (!routed) return;
  const auto expected = oracle_egress(vns, viewpoint, *routed);
  CHECK(vns.egress_pop(viewpoint, *routed) == expected);

  OracleTally tally;
  CHECK(tally.record(vns, viewpoint, *routed, expected));
  const vns::core::PopId wrong_pop =
      static_cast<vns::core::PopId>((*expected + 1) % vns.pops().size());
  CHECK(!tally.record(vns, viewpoint, *routed, wrong_pop));
  // Unrouted while the oracle has a route: a failure.
  CHECK(!tally.record(vns, viewpoint, *routed, std::nullopt));
  CHECK(tally.checked == 3 && tally.wrong == 2);

  // Unrouted where the oracle has no route either: not a failure.
  const vns::net::Ipv4Address nowhere{0, 0, 0, 1};
  CHECK(!oracle_egress(vns, viewpoint, nowhere));
  CHECK(tally.record(vns, viewpoint, nowhere, std::nullopt));
  CHECK(!tally.record(vns, viewpoint, nowhere, viewpoint));
  CHECK(tally.checked == 5 && tally.wrong == 3);

  // The post-update check over the full table passes on the real FIB.
  DeltaFollower follower{vns};
  DeltaFollower::Update everything;
  everything.complete = false;
  OracleTally full;
  CHECK(verify_after_update(vns, everything, std::vector<vns::net::Ipv4Address>{*routed}, full));
  CHECK(full.wrong == 0 && full.checked > vns.known_prefix_log().size());
  CHECK(follower.consume().deltas == 0);
}

}  // namespace

int main() {
  test_self_time_nested();
  test_self_time_overlapping_children();
  test_self_time_disjoint_and_contained_children();
  test_layer_table();
  test_percentile_sample_rule();

  auto config = vns::measure::WorkbenchConfig::small(3);
  config.threads = 1;
  auto world = vns::measure::Workbench::build(config);
  world->vns().set_geo_routing(true);
  test_inputs_follow_the_seed(world->vns());
  test_oracle_counts_wrong_answers(world->vns());

  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
