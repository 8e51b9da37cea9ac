#include "net/flat_fib.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>
#include <utility>

#include "obs/metrics.hpp"

namespace vns::net {

namespace {

/// Moves the registry's live-footprint cells from one state of an instance
/// to another: a compile moves from empty, a patch from its pre-patch state
/// and a release back to empty.  The unsigned differences wrap, so a
/// shrinking move subtracts.
void move_footprint(const FlatFibStats& from, const FlatFibStats& to) noexcept {
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::metric("memory.fib.entries"), to.entries - from.entries);
  metrics.add(obs::metric("memory.fib.spill_tables"), to.spill_tables - from.spill_tables);
  metrics.add(obs::metric("memory.fib.bytes"), to.bytes - from.bytes);
}

}  // namespace

FlatFib::~FlatFib() { release_footprint(); }

FlatFib::FlatFib(FlatFib&& other) noexcept
    : root_(std::move(other.root_)),
      tables_(std::move(other.tables_)),
      leaves_(std::move(other.leaves_)),
      exact_(std::move(other.exact_)),
      stats_(other.stats_) {
  other.root_.clear();
  other.tables_.clear();
  other.leaves_.clear();
  other.exact_.clear();
  other.stats_ = FlatFibStats{};
}

FlatFib& FlatFib::operator=(FlatFib&& other) noexcept {
  if (this != &other) {
    release_footprint();
    root_ = std::move(other.root_);
    tables_ = std::move(other.tables_);
    leaves_ = std::move(other.leaves_);
    exact_ = std::move(other.exact_);
    stats_ = other.stats_;
    other.root_.clear();
    other.tables_.clear();
    other.leaves_.clear();
    other.exact_.clear();
    other.stats_ = FlatFibStats{};
  }
  return *this;
}

void FlatFib::release_footprint() noexcept {
  if (stats_.entries != 0 || stats_.spill_tables != 0 || stats_.bytes != 0) {
    move_footprint(stats_, FlatFibStats{});
    stats_ = FlatFibStats{};
  }
}

FlatFib FlatFib::compile(std::vector<Leaf> leaves) {
  FlatFib fib;
  fib.leaves_ = std::move(leaves);
  fib.finish_compile();
  return fib;
}

void FlatFib::finish_compile() {
  const auto start = std::chrono::steady_clock::now();
  assert(leaves_.size() < static_cast<std::size_t>(kEmpty));

  root_.assign(1u << 16, kEmpty);
  tables_.clear();

  // Insert shortest-first: each longer prefix overwrites the slot range of
  // any shorter covering prefix, freezing LPM into the arrays.  Prefixes of
  // equal length are disjoint, so order within a length never matters; the
  // (length, address) sort keys only keep the compile deterministic.
  std::vector<std::uint32_t> order(leaves_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Leaf& la = leaves_[a];
    const Leaf& lb = leaves_[b];
    if (la.prefix.length() != lb.prefix.length())
      return la.prefix.length() < lb.prefix.length();
    return la.prefix.address().value() < lb.prefix.address().value();
  });

  // Allocates a spill table whose every slot starts as the parent slot's
  // current resolution, so addresses outside the longer prefix keep
  // resolving to the shorter covering one.
  const auto spawn_table = [this](std::uint32_t backfill) -> std::uint32_t {
    tables_.emplace_back();
    tables_.back().fill(backfill);
    return static_cast<std::uint32_t>(tables_.size() - 1) | kTableBit;
  };

  for (const std::uint32_t index : order) {
    const Leaf& leaf = leaves_[index];
    const std::uint32_t addr = leaf.prefix.address().value();
    const std::uint8_t len = leaf.prefix.length();
    if (len <= 16) {
      // No spill tables exist yet under a /<=16 range: tables are only
      // spawned by longer prefixes, which all sort after this one.
      const std::uint32_t first = addr >> 16;
      const std::uint32_t count = 1u << (16 - len);
      std::fill_n(root_.begin() + first, count, index);
    } else if (len <= 24) {
      const std::uint32_t rslot = addr >> 16;
      if (!(root_[rslot] & kTableBit)) {
        const std::uint32_t table = spawn_table(root_[rslot]);
        root_[rslot] = table;
      }
      auto& table = tables_[root_[rslot] & kIndexMask];
      const std::uint32_t first = (addr >> 8) & 0xffu;
      const std::uint32_t count = 1u << (24 - len);
      std::fill_n(table.begin() + first, count, index);
    } else {
      const std::uint32_t rslot = addr >> 16;
      if (!(root_[rslot] & kTableBit)) {
        const std::uint32_t table = spawn_table(root_[rslot]);
        root_[rslot] = table;
      }
      const std::uint32_t mid_table = root_[rslot] & kIndexMask;
      const std::uint32_t mslot = (addr >> 8) & 0xffu;
      if (!(tables_[mid_table][mslot] & kTableBit)) {
        const std::uint32_t table = spawn_table(tables_[mid_table][mslot]);
        tables_[mid_table][mslot] = table;
      }
      auto& table = tables_[tables_[mid_table][mslot] & kIndexMask];
      const std::uint32_t first = addr & 0xffu;
      const std::uint32_t count = 1u << (32 - len);
      std::fill_n(table.begin() + first, count, index);
    }
  }
  // Drop the fill's growth slack: the footprint below counts capacity, and
  // a compiled table only grows again when patch() inserts.
  tables_.shrink_to_fit();

  // Exact-match index: leaf indices sorted by (address, length) so patch()
  // can distinguish payload updates from fresh inserts in O(log n).
  exact_.resize(leaves_.size());
  std::iota(exact_.begin(), exact_.end(), 0u);
  std::sort(exact_.begin(), exact_.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Leaf& la = leaves_[a];
    const Leaf& lb = leaves_[b];
    if (la.prefix.address().value() != lb.prefix.address().value())
      return la.prefix.address().value() < lb.prefix.address().value();
    return la.prefix.length() < lb.prefix.length();
  });

  stats_.entries = leaves_.size();
  stats_.spill_tables = tables_.size();
  stats_.bytes = root_.capacity() * sizeof(std::uint32_t) +
                 tables_.capacity() * sizeof(std::array<std::uint32_t, 256>) +
                 leaves_.capacity() * sizeof(Leaf) +
                 exact_.capacity() * sizeof(std::uint32_t);
  stats_.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::metric("memory.fib.full_rebuilds"));
  metrics.add_seconds(obs::metric("memory.fib.full_build_seconds"), stats_.build_seconds);
  move_footprint(FlatFibStats{}, stats_);
}

std::size_t FlatFib::exact_position(const Ipv4Prefix& prefix) const noexcept {
  const auto less = [this](std::uint32_t index, const Ipv4Prefix& p) {
    const Leaf& leaf = leaves_[index];
    if (leaf.prefix.address().value() != p.address().value())
      return leaf.prefix.address().value() < p.address().value();
    return leaf.prefix.length() < p.length();
  };
  const auto it = std::lower_bound(exact_.begin(), exact_.end(), prefix, less);
  return static_cast<std::size_t>(it - exact_.begin());
}

const FlatFib::Leaf* FlatFib::lookup_exact(const Ipv4Prefix& prefix) const noexcept {
  const std::size_t pos = exact_position(prefix);
  if (pos >= exact_.size()) return nullptr;
  const Leaf& leaf = leaves_[exact_[pos]];
  if (leaf.prefix == prefix) return &leaf;
  return nullptr;
}

void FlatFib::claim_slot(std::uint32_t& slot, std::uint32_t index, std::uint8_t len,
                         std::size_t& touched) {
  if (slot & kTableBit) {
    // A spill table under this range means longer prefixes already carved it
    // up; descend and claim only the sub-slots they did not take.  claim_slot
    // never spawns tables, so tables_ cannot reallocate under this reference.
    auto& table = tables_[slot & kIndexMask];
    for (auto& sub : table) claim_slot(sub, index, len, touched);
    return;
  }
  if (slot != kEmpty && leaves_[slot].prefix.length() >= len) return;
  slot = index;
  ++touched;
}

void FlatFib::insert_leaf(const Leaf& leaf, std::size_t exact_pos, PatchStats& out) {
  assert(leaves_.size() < static_cast<std::size_t>(kEmpty));
  const auto index = static_cast<std::uint32_t>(leaves_.size());
  leaves_.push_back(leaf);
  exact_.insert(exact_.begin() + static_cast<std::ptrdiff_t>(exact_pos), index);

  const std::uint32_t addr = leaf.prefix.address().value();
  const std::uint8_t len = leaf.prefix.length();
  const auto spawn_table = [this, &out](std::uint32_t backfill) -> std::uint32_t {
    tables_.emplace_back();
    tables_.back().fill(backfill);
    out.slots_touched += 256;  // the backfill writes are real slot work
    return static_cast<std::uint32_t>(tables_.size() - 1) | kTableBit;
  };

  if (len <= 16) {
    // Unlike the shortest-first full compile, spill tables MAY already exist
    // under this range; claim_slot descends them instead of clobbering.
    const std::uint32_t first = addr >> 16;
    const std::uint32_t count = 1u << (16 - len);
    for (std::uint32_t s = first; s < first + count; ++s)
      claim_slot(root_[s], index, len, out.slots_touched);
  } else if (len <= 24) {
    const std::uint32_t rslot = addr >> 16;
    if (!(root_[rslot] & kTableBit)) root_[rslot] = spawn_table(root_[rslot]);
    const std::uint32_t mid = root_[rslot] & kIndexMask;
    const std::uint32_t first = (addr >> 8) & 0xffu;
    const std::uint32_t count = 1u << (24 - len);
    for (std::uint32_t s = first; s < first + count; ++s)
      claim_slot(tables_[mid][s], index, len, out.slots_touched);
  } else {
    const std::uint32_t rslot = addr >> 16;
    if (!(root_[rslot] & kTableBit)) root_[rslot] = spawn_table(root_[rslot]);
    const std::uint32_t mid = root_[rslot] & kIndexMask;
    const std::uint32_t mslot = (addr >> 8) & 0xffu;
    if (!(tables_[mid][mslot] & kTableBit))
      tables_[mid][mslot] = spawn_table(tables_[mid][mslot]);
    const std::uint32_t bottom = tables_[mid][mslot] & kIndexMask;
    const std::uint32_t first = addr & 0xffu;
    const std::uint32_t count = 1u << (32 - len);
    for (std::uint32_t s = first; s < first + count; ++s)
      claim_slot(tables_[bottom][s], index, len, out.slots_touched);
  }
}

FlatFib::PatchStats FlatFib::patch(std::span<const Leaf> deltas) {
  const auto start = std::chrono::steady_clock::now();
  assert(compiled());
  const FlatFibStats released = stats_;
  PatchStats result;

  for (const Leaf& delta : deltas) {
    const std::size_t pos = exact_position(delta.prefix);
    if (pos < exact_.size()) {
      Leaf& existing = leaves_[exact_[pos]];
      if (existing.prefix == delta.prefix) {
        // Payload rewrite in place: every slot already pointing at this leaf
        // stays valid, so zero slot writes are needed.
        existing.value = delta.value;
        ++result.updated;
        continue;
      }
    }
    insert_leaf(delta, pos, result);
    ++result.inserted;
  }

  stats_.entries = leaves_.size();
  stats_.spill_tables = tables_.size();
  stats_.bytes = root_.capacity() * sizeof(std::uint32_t) +
                 tables_.capacity() * sizeof(std::array<std::uint32_t, 256>) +
                 leaves_.capacity() * sizeof(Leaf) +
                 exact_.capacity() * sizeof(std::uint32_t);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  stats_.build_seconds += seconds;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::metric("memory.fib.patches"));
  metrics.add(obs::metric("memory.fib.slots_touched"), result.slots_touched);
  metrics.add_seconds(obs::metric("memory.fib.patch_seconds"), seconds);
  move_footprint(released, stats_);
  return result;
}

}  // namespace vns::net
