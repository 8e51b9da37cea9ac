// The synthetic Internet: AS-level topology generation and valley-free
// (Gao–Rexford) policy routing.
//
// This substrate stands in for the production Internet the paper measures
// through.  It preserves the structural properties the experiments depend
// on: a tier-1 clique with global PoP footprints, regional transit
// hierarchies, geography-correlated peering, prefix origination with
// ground-truth locations (plus the geo-spread and stale-record pathologies
// of §3.2/§4.1), and policy routing in which providers announce everything
// to customers while peers exchange only customer routes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geo/geoip.hpp"
#include "topo/as_node.hpp"
#include "util/rng.hpp"

namespace vns::topo {

/// Preference class of a route under Gao–Rexford policies; lower wins.
enum class PathClass : std::uint8_t { kCustomer = 0, kPeer = 1, kProvider = 2, kNone = 3 };

/// World size tiers (see InternetConfig::preset): kSmall for smoke tests,
/// kPaper for the default paper-experiment world, kFull for the 10k-AS /
/// 100k+-prefix full-table scale, kXL for the ~30k-AS / 1M+-prefix
/// streamed million-route world (ROADMAP item 2).
enum class InternetScale : std::uint8_t { kSmall, kPaper, kFull, kXL };

[[nodiscard]] constexpr const char* to_string(InternetScale scale) noexcept {
  switch (scale) {
    case InternetScale::kSmall: return "small";
    case InternetScale::kPaper: return "paper";
    case InternetScale::kFull: return "full";
    case InternetScale::kXL: return "xl";
  }
  return "unknown";
}

/// Parses a scale-tier name ("small" | "paper" | "full" | "xl"); nullopt on
/// anything else.  The single source of truth for every --scale flag.
[[nodiscard]] std::optional<InternetScale> scale_from_string(std::string_view name) noexcept;

/// Generation parameters.  Defaults build a ~2.5k-AS Internet that runs all
/// paper experiments in seconds; counts scale linearly.
struct InternetConfig {
  std::uint64_t seed = 1;
  std::size_t ltp_count = 12;
  std::size_t stp_count = 260;
  std::size_t cahp_count = 560;
  std::size_t ec_count = 1400;
  /// The tier this config was derived from (informational; preset() sets it).
  InternetScale scale = InternetScale::kPaper;

  /// Canonical size tiers.  kPaper keeps the defaults above; kSmall is the
  /// bench `--scale small` world; kFull grows to ~10.4k ASes originating
  /// ~107k prefixes with a mixed /16–/24 length distribution, exercising the
  /// FlatFib spill tables and the streamed memory-bounded generation path.
  [[nodiscard]] static InternetConfig preset(InternetScale scale, std::uint64_t seed = 1);

  /// Prefixes originated per AS, [min, max] by type.
  int ltp_prefixes_min = 12, ltp_prefixes_max = 40;
  int stp_prefixes_min = 4, stp_prefixes_max = 16;
  int cahp_prefixes_min = 3, cahp_prefixes_max = 14;
  int ec_prefixes_min = 1, ec_prefixes_max = 3;

  /// Fraction of prefixes whose hosts are spread into a different region.
  double geo_spread_fraction = 0.015;
  /// Prefixes of the synthetic "acquired ISP" whose GeoIP records are stale
  /// (the paper's Indian-prefixes-located-in-Canada cluster).
  int stale_block_prefixes = 40;
  /// How the paper's regions weigh in AS counts (EU, NA, AP heavy).
  double region_weights[geo::kWorldRegionCount] = {
      /*Oceania*/ 0.05, /*AsiaPacific*/ 0.22, /*MiddleEast*/ 0.05,
      /*Africa*/ 0.04,  /*Europe*/ 0.32,      /*NorthCentralAmerica*/ 0.27,
      /*SouthAmerica*/ 0.05};
};

/// Per-destination routing state for every AS: class, AS-hop distance and
/// next hop toward the destination under Gao–Rexford policies.
class RouteTable {
 public:
  struct Entry {
    PathClass cls = PathClass::kNone;
    std::uint16_t hops = 0;
    AsIndex next_hop = kNoAs;
  };

  explicit RouteTable(std::size_t as_count, AsIndex dest)
      : dest_(dest), entries_(as_count) {}

  [[nodiscard]] AsIndex destination() const noexcept { return dest_; }
  [[nodiscard]] const Entry& at(AsIndex as) const { return entries_[as]; }
  [[nodiscard]] Entry& at(AsIndex as) { return entries_[as]; }
  [[nodiscard]] bool reachable(AsIndex as) const { return entries_[as].cls != PathClass::kNone; }

  /// AS indices on the path from `src` to the destination, inclusive of
  /// both; empty when unreachable.
  [[nodiscard]] std::vector<AsIndex> path_from(AsIndex src) const;

 private:
  AsIndex dest_;
  std::vector<Entry> entries_;
};

class Internet {
 public:
  /// Deterministically generates a topology from the config seed.
  /// Equivalent to generate_topology() followed by materialize_prefixes().
  [[nodiscard]] static Internet generate(const InternetConfig& config);

  /// Generates only the AS-level topology (nodes, edges, stale-AS fixup);
  /// prefixes()/prefix() stay empty until materialize_prefixes() or
  /// stream_prefixes() runs.  This is the streamed-generation entry point:
  /// at kXL scale the PrefixInfo table alone is hundreds of MB, and
  /// streaming hands each origin's batch to the consumer without ever
  /// holding the full table here.
  [[nodiscard]] static Internet generate_topology(const InternetConfig& config);

  /// One streamed origination batch: all prefixes of one origin AS.
  /// `first_id` is the id of batch.prefixes[0] (ids are dense and identical
  /// to the materialized world's prefix ids); the span is only valid for
  /// the duration of the sink call.
  struct PrefixBatch {
    AsIndex origin = kNoAs;
    std::size_t first_id = 0;
    std::span<const PrefixInfo> prefixes;
  };
  using PrefixSink = std::function<void(const PrefixBatch&)>;

  /// Fills prefixes() exactly as generate() would have.  Callable once,
  /// on a generate_topology() result.
  void materialize_prefixes();

  /// Streams the same origination, batch per origin AS, through `sink`
  /// instead of materializing it: draw-for-draw the same RNG consumption,
  /// so the emitted PrefixInfo sequence is byte-identical to the
  /// materialized one (enforced by the StreamWorld equivalence tests).
  /// prefix_ids on the AS nodes and prefix_count() are still recorded;
  /// prefixes() stays empty.  Callable once.
  void stream_prefixes(const PrefixSink& sink);

  /// Total originated prefixes — valid in both materialized and streamed
  /// worlds (prefixes().size() is zero in the latter).
  [[nodiscard]] std::size_t prefix_count() const noexcept { return prefix_count_; }

  [[nodiscard]] std::span<const AsNode> ases() const noexcept { return ases_; }
  [[nodiscard]] const AsNode& as_at(AsIndex index) const { return ases_.at(index); }
  [[nodiscard]] std::size_t as_count() const noexcept { return ases_.size(); }
  [[nodiscard]] std::optional<AsIndex> index_of(net::Asn asn) const noexcept;

  [[nodiscard]] std::span<const PrefixInfo> prefixes() const noexcept { return prefixes_; }
  [[nodiscard]] const PrefixInfo& prefix(std::size_t id) const { return prefixes_.at(id); }

  /// Gao–Rexford routing toward one destination AS: O(V+E).
  [[nodiscard]] RouteTable routes_to(AsIndex dest) const;

  /// Convenience: the AS-index path from src to dst (valley-free, policy
  /// preferred); empty when unreachable.
  [[nodiscard]] std::vector<AsIndex> best_path(AsIndex src, AsIndex dst) const {
    return routes_to(dst).path_from(src);
  }

  /// ASes of the given types with a PoP within `radius_km` of `where`.
  [[nodiscard]] std::vector<AsIndex> ases_near(const geo::GeoPoint& where, double radius_km,
                                               std::span<const AsType> types) const;

  /// Builds the GeoIP database over all prefixes: truthful locations pushed
  /// through the error model, plus explicit stale records for the M&A block.
  [[nodiscard]] geo::GeoIpDatabase build_geoip(const geo::GeoIpErrorModel& model,
                                               std::uint64_t seed) const;

  /// Pushes one prefix batch into a GeoIP database, applying the same
  /// stale/geo-spread/error-model logic as build_geoip.  Feeding every
  /// batch of stream_prefixes() through one `util::Rng{seed}` yields a
  /// database byte-identical to build_geoip(model, seed) on the
  /// materialized world.
  static void append_geoip_records(geo::GeoIpDatabase& db,
                                   std::span<const PrefixInfo> batch,
                                   const geo::GeoIpErrorModel& model, util::Rng& rng);

  /// The config this Internet was generated from.
  [[nodiscard]] const InternetConfig& config() const noexcept { return config_; }

 private:
  /// Shared origination engine: draws every prefix of every AS in order,
  /// handing each origin's batch (with its first dense id) to `consume`.
  /// Records prefix_ids on the AS nodes and prefix_count_.
  void generate_prefixes(
      const std::function<void(AsIndex, std::size_t, std::vector<PrefixInfo>&)>& consume);

  InternetConfig config_;
  std::vector<AsNode> ases_;
  std::vector<PrefixInfo> prefixes_;
  std::unordered_map<net::Asn, AsIndex> asn_index_;
  /// Origination stream state, captured by generate_topology so the
  /// prefix draws happen identically whether materialized or streamed.
  util::Rng prefix_rng_{0};
  AsIndex stale_as_ = kNoAs;
  std::size_t prefix_count_ = 0;
  bool prefixes_generated_ = false;
};

}  // namespace vns::topo
