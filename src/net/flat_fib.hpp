// Compiled forwarding table: a DIR-16-8-8 multi-stride flattening of a
// PrefixTrie snapshot that answers longest-prefix match in at most three
// array indexations instead of up to 32 pointer chases.
//
// Layout.  The root level is a 2^16 slot array indexed by the top 16 address
// bits; prefixes longer than /16 spill into 256-slot second-level tables
// (bits 8..15) and, past /24, third-level tables (bits 0..7).  A slot either
// names a leaf (index into the leaf array), names a spill table (high bit
// set), or is empty.  Real-world tables are dominated by /16../24 prefixes,
// so the footprint is 256 KiB for the root plus ~1 KiB per populated /16
// (DIR-24-8 would cost a flat 64 MiB per instance; we compile one FIB per
// viewpoint plus one for GeoIP, so the small-root layout wins — see
// DESIGN.md §9 for the full trade-off).
//
// A FlatFib is a pure cache: it is compiled from a converged RIB snapshot
// and, when the owner's RIB-delta cursor falls behind, either *patched* in
// place (`patch`: only the root slots / spill tables covered by the changed
// prefixes are rewritten) or rebuilt from scratch.  Either way it never
// answers differently from the trie it was compiled from (the equivalence
// property is enforced by tests/test_fib.cpp and the FibPatch churn fuzz).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "net/ip.hpp"
#include "net/prefix_trie.hpp"

namespace vns::net {

/// Footprint and build cost of one compiled instance.
struct FlatFibStats {
  std::size_t entries = 0;       ///< leaves: distinct (prefix, value) pairs
  std::size_t spill_tables = 0;  ///< 256-slot second/third-level tables
  std::size_t bytes = 0;         ///< resident bytes of the compiled arrays
  double build_seconds = 0.0;    ///< wall-clock cost of this compile
};

/// DIR-16-8-8 compiled longest-prefix-match table.  Move-only; the live
/// footprint is counted in the metrics registry's memory.fib cells for the
/// instance's lifetime.
class FlatFib {
 public:
  /// One compiled entry: the stored prefix and the caller's payload index.
  struct Leaf {
    Ipv4Prefix prefix;
    std::uint32_t value = 0;
  };

  FlatFib() = default;
  ~FlatFib();
  FlatFib(FlatFib&& other) noexcept;
  FlatFib& operator=(FlatFib&& other) noexcept;
  FlatFib(const FlatFib&) = delete;
  FlatFib& operator=(const FlatFib&) = delete;

  /// Result of one patch() call, for metrics and assertions.
  struct PatchStats {
    std::size_t updated = 0;       ///< deltas that rewrote an existing leaf payload
    std::size_t inserted = 0;      ///< deltas that added a new leaf
    std::size_t slots_touched = 0; ///< slot writes (inserts only; updates touch none)
  };

  /// Compiles a leaf set (prefixes must be distinct).  Longer prefixes
  /// overwrite the slot ranges of shorter covering ones, which is exactly
  /// longest-prefix-match semantics frozen into the arrays.
  [[nodiscard]] static FlatFib compile(std::vector<Leaf> leaves);

  /// Iterator-range compile: leaves stream straight into the instance's own
  /// storage (works with std::move_iterator), so callers holding leaves in a
  /// foreign container never materialize a second transient copy.
  template <typename It>
  [[nodiscard]] static FlatFib compile(It first, It last, std::size_t size_hint = 0) {
    FlatFib fib;
    fib.leaves_.reserve(size_hint != 0
                            ? size_hint
                            : static_cast<std::size_t>(std::distance(first, last)));
    for (; first != last; ++first) fib.leaves_.push_back(*first);
    fib.finish_compile();
    return fib;
  }

  /// Compiles from a trie snapshot; `map(prefix, value)` chooses the
  /// uint32 payload recorded in each leaf.  Leaves are emitted directly
  /// into the new instance's storage — one allocation sized from the
  /// trie's live prefix count (`node_count()` bounds it from above), so a
  /// full-table compile never transiently doubles peak RSS.
  template <typename T, typename Map>
  [[nodiscard]] static FlatFib compile_from(const PrefixTrie<T>& trie, Map&& map) {
    FlatFib fib;
    fib.leaves_.reserve(trie.size());
    trie.for_each([&](const Ipv4Prefix& prefix, const T& value) {
      fib.leaves_.push_back(Leaf{prefix, map(prefix, value)});
    });
    fib.finish_compile();
    return fib;
  }

  /// Incrementally applies a batch of changed leaves to a compiled
  /// instance.  A delta whose prefix is already stored rewrites that
  /// leaf's payload in place (zero slot writes); a new prefix is inserted
  /// by claiming exactly the root/spill slots it covers — existing slots
  /// holding an equal-or-longer prefix keep their more-specific
  /// resolution, so longest-prefix-match semantics are preserved without
  /// recompiling the arrays.  The result is bit-identical to a
  /// from-scratch compile of the updated leaf set (enforced by the
  /// FibPatch churn fuzz).  Deltas may repeat a prefix; the last write
  /// wins.  patch() cannot *remove* a prefix — owners model withdrawal by
  /// rewriting the payload to an unresolvable value, exactly like the
  /// full compile path does for known-but-unrouted prefixes.
  PatchStats patch(std::span<const Leaf> deltas);

  /// Exact-match probe: the stored leaf for `prefix` (address AND length
  /// equal), or nullptr.  Binary search over the sorted exact index.
  [[nodiscard]] const Leaf* lookup_exact(const Ipv4Prefix& prefix) const noexcept;

  /// Longest-prefix match in one to three array probes; nullptr when no
  /// stored prefix covers the address.
  [[nodiscard]] const Leaf* lookup(Ipv4Address address) const noexcept {
    if (root_.empty()) return nullptr;
    const std::uint32_t addr = address.value();
    std::uint32_t slot = root_[addr >> 16];
    if (slot & kTableBit) slot = tables_[slot & kIndexMask][(addr >> 8) & 0xffu];
    if (slot & kTableBit) slot = tables_[slot & kIndexMask][addr & 0xffu];
    if (slot == kEmpty) return nullptr;
    return &leaves_[slot];
  }

  [[nodiscard]] bool compiled() const noexcept { return !root_.empty(); }
  [[nodiscard]] std::size_t entry_count() const noexcept { return leaves_.size(); }
  [[nodiscard]] const FlatFibStats& stats() const noexcept { return stats_; }

 private:
  // Slot encoding: high bit set => spill-table index in the low 31 bits;
  // kEmpty => no covering prefix; otherwise a leaf index.
  static constexpr std::uint32_t kTableBit = 0x8000'0000u;
  static constexpr std::uint32_t kIndexMask = 0x7fff'ffffu;
  static constexpr std::uint32_t kEmpty = kIndexMask;

  void release_footprint() noexcept;
  /// Compiles leaves_ (already populated) into the slot arrays and
  /// registers the footprint; shared by every compile entry point.
  void finish_compile();
  /// Position in exact_ where `prefix` lives or would be inserted.
  [[nodiscard]] std::size_t exact_position(const Ipv4Prefix& prefix) const noexcept;
  /// Writes `index` (a leaf of length `len`) into one slot subtree:
  /// empty and strictly-shorter leaves are overwritten, spill tables are
  /// descended, equal-or-longer leaves keep their resolution.
  void claim_slot(std::uint32_t& slot, std::uint32_t index, std::uint8_t len,
                  std::size_t& touched);
  /// Inserts a brand-new leaf during patch(), claiming its covered slots.
  void insert_leaf(const Leaf& leaf, std::size_t exact_pos, PatchStats& out);

  std::vector<std::uint32_t> root_;                    // 2^16 once compiled
  std::vector<std::array<std::uint32_t, 256>> tables_;  // spill levels 2 and 3
  std::vector<Leaf> leaves_;
  std::vector<std::uint32_t> exact_;  // leaf indices sorted by (address, length)
  FlatFibStats stats_;
};

}  // namespace vns::net
