// Size-class pool arena for the simulator's steady-state allocations.
//
// Profiling at N=500 shows ~1.5 mallocs per executed event: shared packets,
// packet route/neighbor vectors, SmallFn heap spills, MAC queue chunks, and
// cancellation flags. All of these are small, short-lived, and recur with
// the same handful of sizes, which is the textbook pool-allocator shape.
//
// Arena carves blocks from geometrically grown chunks obtained once from
// the system allocator; freed blocks go on per-size-class freelists and
// are recycled without ever touching ::operator new again. After warm-up
// every steady-state allocation is a freelist pop — the zero-allocation
// property the LW_COUNT_ALLOCS tier-1 test asserts.
//
// Threading: each thread owns one arena (thread_arena()). A replica runs
// wholly on one worker thread, so pooled memory never outlives its thread.
// PoolAllocator is stateless (all instances compare equal) so swapping it
// into a container is a type alias, not a plumbing change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace lw::util {

class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Pool-or-passthrough allocation. Sizes up to kMaxPooled bytes (and
  /// natural alignment) come from the size-class freelists; anything
  /// larger or over-aligned falls through to ::operator new.
  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t));
  void deallocate(void* ptr, std::size_t bytes,
                  std::size_t align = alignof(std::max_align_t)) noexcept;

  struct Stats {
    std::size_t chunk_bytes = 0;      ///< total carved from the system
    std::size_t chunks = 0;           ///< system allocations made for pools
    std::uint64_t pool_allocs = 0;    ///< served from freelist or chunk bump
    std::uint64_t direct_allocs = 0;  ///< fell through to ::operator new
  };
  const Stats& stats() const { return stats_; }

  /// Largest pooled block. Must cover the biggest per-guard tables that
  /// cycle in steady state: the watch-buffer and seen-request bucket
  /// arrays (thousands of entries, rehashed to prime bucket counts past
  /// 64 KiB of pointers) and the ForwardDedup slot vector at its clamp
  /// (16384 slots x 16 B = 256 KiB). A block that falls through to
  /// ::operator new would show up as steady-state heap traffic every time
  /// one of those tables grows again.
  static constexpr std::size_t kMaxPooled = std::size_t{1} << 20;

 private:
  static constexpr std::size_t kMinShift = 4;  // smallest class: 16 bytes
  static constexpr std::size_t kMaxShift = 20;
  static constexpr std::size_t kClasses = kMaxShift - kMinShift + 1;

  struct FreeBlock {
    FreeBlock* next;
  };
  struct Chunk {
    Chunk* next;
  };

  /// Power-of-two size class; bytes must be <= kMaxPooled.
  static std::size_t class_index(std::size_t bytes);
  /// Carves a fresh block of class `cls` from the current chunk, growing
  /// the chunk list when exhausted.
  void* carve(std::size_t cls);

  FreeBlock* free_[kClasses] = {};
  Chunk* chunks_ = nullptr;
  unsigned char* bump_ = nullptr;
  unsigned char* bump_end_ = nullptr;
  std::size_t next_chunk_bytes_ = std::size_t{1} << 16;  // doubles to 4 MiB
  Stats stats_;
};

/// The calling thread's pool. Pooled memory must not outlive the thread
/// that allocated it (true for all simulator state: a replica lives and
/// dies on one worker).
Arena& thread_arena();

/// Stateless std-allocator over thread_arena(). All instances are equal,
/// so containers swap in with a type alias and no constructor plumbing.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  using is_always_equal = std::true_type;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT: converting

  T* allocate(std::size_t n) {
    return static_cast<T*>(thread_arena().allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* ptr, std::size_t n) noexcept {
    thread_arena().deallocate(ptr, n * sizeof(T), alignof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

/// std::vector on the thread pool arena.
template <typename T>
using PoolVector = std::vector<T, PoolAllocator<T>>;

/// std::string on the thread pool arena (reusable serialization buffers).
using PoolString =
    std::basic_string<char, std::char_traits<char>, PoolAllocator<char>>;

/// std::unordered_map whose nodes and bucket array recycle through the
/// thread pool arena.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
using PoolUnorderedMap =
    std::unordered_map<K, V, Hash, Eq, PoolAllocator<std::pair<const K, V>>>;

template <typename K, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
using PoolUnorderedSet = std::unordered_set<K, Hash, Eq, PoolAllocator<K>>;

}  // namespace lw::util
