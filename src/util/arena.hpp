// Bump-pointer arena with size-class freelists for RIB node storage.
//
// The BGP convergence hot path allocates and frees millions of small,
// similarly-sized objects: Adj-RIB-In entries, Loc-RIB nodes and
// Adj-RIB-Out copies, all hash-map nodes of a few cache lines each.  The
// general-purpose allocator pays lock/metadata overhead per node and
// scatters them across the heap; at the kXL scale (≥1M prefixes × ~23
// routers) that overhead dominates the feed path.
//
// `Arena` carves 256 KiB chunks off the heap and bump-allocates
// 16-byte-aligned blocks from them.  Freed blocks go onto a power-of-two
// size-class freelist (16 B … 4 KiB) and are handed back verbatim on the
// next same-class allocation, so a fail→restore churn cycle reuses the
// exact memory it released — reserved bytes stay flat across churn (the
// `Arena.*` regression tests pin this).  Oversized requests (> 4 KiB,
// e.g. hash-bucket arrays) pass through to operator new/delete and are
// only *accounted* here.
//
// Concurrency: none.  Each arena is owned by one `bgp::Router`, whose RIBs
// only the thread driving its fabric mutates.  `ArenaAllocator` makes the arena usable as a standard
// allocator; it is deliberately *not* default-constructible so every
// container creation site names its arena explicitly.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace vns::util {

class Arena {
 public:
  struct Stats {
    std::size_t chunks = 0;          ///< bump chunks reserved from the heap
    std::size_t reserved_bytes = 0;  ///< total bytes in those chunks
    std::size_t large_bytes = 0;     ///< live bytes in pass-through allocations
    std::size_t live_bytes = 0;      ///< bytes currently handed out (all classes)
    std::uint64_t allocations = 0;   ///< allocate() calls served
    std::uint64_t freelist_reuses = 0;  ///< allocations served from a freelist

    Stats& operator+=(const Stats& other) noexcept {
      chunks += other.chunks;
      reserved_bytes += other.reserved_bytes;
      large_bytes += other.large_bytes;
      live_bytes += other.live_bytes;
      allocations += other.allocations;
      freelist_reuses += other.freelist_reuses;
      return *this;
    }
  };

  Arena() = default;
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = delete;
  Arena& operator=(Arena&&) = delete;

  /// Returns a block of at least `bytes` bytes aligned to `align`
  /// (align must be ≤ 16).  Never returns nullptr; throws std::bad_alloc
  /// only if the underlying heap is exhausted.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align);

  /// Returns a block obtained from allocate(bytes, align).  Small classes
  /// go onto the matching freelist; oversized blocks go back to the heap.
  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept;

  [[nodiscard]] Stats stats() const noexcept { return stats_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t kChunkBytes = 256 * 1024;
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kMinClassLog2 = 4;   // 16 B
  static constexpr std::size_t kMaxClassLog2 = 12;  // 4 KiB
  static constexpr std::size_t kClassCount = kMaxClassLog2 - kMinClassLog2 + 1;

  /// Size-class index for a request, or kClassCount for oversized ones.
  [[nodiscard]] static std::size_t class_index(std::size_t bytes) noexcept;
  /// Block size of a size class.
  [[nodiscard]] static constexpr std::size_t class_bytes(std::size_t index) noexcept {
    return std::size_t{1} << (kMinClassLog2 + index);
  }

  std::vector<Chunk> chunks_;
  void* freelists_[kClassCount] = {};
  Stats stats_;
};

/// Standard-allocator adapter over an Arena.  Not default-constructible:
/// a container backed by an arena must be handed its arena at creation.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  // Assignment/swap move the arena pointer with the container contents so
  // nodes are always freed into the arena they came from.
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  explicit ArenaAllocator(Arena& arena) noexcept : arena_(&arena) {}

  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    arena_->deallocate(p, n * sizeof(T), alignof(T));
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace vns::util
