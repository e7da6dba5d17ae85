// Process-wide recycling pool for arena chunk storage.
//
// Every ChunkArray (the mesh's vertex, position and cell arenas and the
// geometry cache's entries) draws its fixed-size chunk blocks from this
// pool and returns them at destruction. A one-shot run pays the page
// faults once either way; the next mesh in the same process (serving,
// benchmarks, tests) re-uses warm blocks — same sizes, pages already
// resident — instead of faulting fresh ones in, and its peak RSS no longer
// depends on which glibc arena the heap would have served it from.
//
// The pool hands out *raw storage only*; ChunkArray placement-news fresh
// elements into every block it acquires, so no object state can leak
// between meshes (the second-run determinism test in tests/serve_test.cpp
// guards exactly this). Blocks are bucketed by byte size and capped by a
// byte budget; releases beyond the budget free immediately. Under
// AddressSanitizer a cached block is poisoned until it is handed out
// again, so a read through a destroyed mesh still reports.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include <sanitizer/asan_interface.h>

#include "support/common.hpp"

namespace pi2m {

class ArenaPool {
 public:
  /// All pool blocks share this alignment, which must dominate the
  /// alignment of every element type stored in chunk arrays.
  static constexpr std::size_t kAlignment = 64;
  /// Cap on the cached (idle) bytes; in-flight blocks are not counted.
  static constexpr std::size_t kBudgetBytes = std::size_t{512} << 20;

  struct Stats {
    std::uint64_t acquires = 0;  ///< total acquire() calls
    std::uint64_t reuses = 0;    ///< acquires served from the pool
    std::uint64_t releases = 0;  ///< total release() calls
    std::uint64_t frees = 0;     ///< releases dropped (budget exceeded)
    std::size_t cached_bytes = 0;
    std::size_t budget_bytes = 0;
  };

  static ArenaPool& instance() {
    static ArenaPool* pool = new ArenaPool;  // leaked: alive at any teardown
    return *pool;
  }

  /// Returns a block of exactly `bytes` (recycled when one is cached, fresh
  /// otherwise). Never nullptr.
  void* acquire(std::size_t bytes) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.acquires;
      auto it = free_.find(bytes);
      if (it != free_.end() && !it->second.empty()) {
        void* p = it->second.back();
        it->second.pop_back();
        cached_bytes_ -= bytes;
        ++stats_.reuses;
        ASAN_UNPOISON_MEMORY_REGION(p, bytes);
        return p;
      }
    }
    return ::operator new(bytes, std::align_val_t{kAlignment});
  }

  /// Returns a block to the pool; frees it instead when caching it would
  /// exceed the byte budget.
  void release(void* p, std::size_t bytes) {
    if (p == nullptr) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.releases;
      if (cached_bytes_ + bytes <= kBudgetBytes) {
        ASAN_POISON_MEMORY_REGION(p, bytes);
        free_[bytes].push_back(p);
        cached_bytes_ += bytes;
        return;
      }
      ++stats_.frees;
    }
    ::operator delete(p, std::align_val_t{kAlignment});
  }

  /// Frees every cached block (tests).
  void clear() {
    std::vector<void*> victims;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto& [sz, blocks] : free_) {
        for (void* p : blocks) {
          ASAN_UNPOISON_MEMORY_REGION(p, sz);
          victims.push_back(p);
        }
        blocks.clear();
      }
      cached_bytes_ = 0;
    }
    for (void* p : victims) ::operator delete(p, std::align_val_t{kAlignment});
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    Stats s = stats_;
    s.cached_bytes = cached_bytes_;
    s.budget_bytes = kBudgetBytes;
    return s;
  }

 private:
  ArenaPool() = default;

  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<void*>> free_;
  std::size_t cached_bytes_ = 0;
  Stats stats_;
};

/// Fixed-capacity array of lazily allocated chunks, indexed by id. The
/// first touch of a chunk installs it lock-free (a CAS; the loser of a race
/// returns its copy), and chunks never move or free while the array lives,
/// so concurrent readers never see an element relocate. Chunk storage comes
/// from the ArenaPool and goes back there on destruction; every acquired
/// block is re-initialized element by element with placement-new.
template <typename T>
class ChunkArray {
  static_assert(alignof(T) <= ArenaPool::kAlignment,
                "pool blocks under-aligned for T");
  static_assert(std::is_trivially_destructible_v<T>,
                "pool blocks are released without element destruction");

 public:
  static constexpr std::size_t kChunkBits = 14;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;

  explicit ChunkArray(std::size_t max_elems)
      : chunks_((max_elems + kChunkSize - 1) / kChunkSize + 1),
        max_elems_(max_elems) {
    for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
  }
  ~ChunkArray() {
    for (auto& c : chunks_) free_chunk(c.load(std::memory_order_relaxed));
  }
  ChunkArray(const ChunkArray&) = delete;
  ChunkArray& operator=(const ChunkArray&) = delete;

  /// Element `id`, installing its chunk first if no thread has yet.
  T& ensure(std::uint32_t id) {
    PI2M_CHECK(id < max_elems_, "chunk array: id beyond capacity");
    std::atomic<T*>& slot = chunks_[id >> kChunkBits];
    T* chunk = slot.load(std::memory_order_acquire);
    if (chunk == nullptr) {
      T* fresh = make_chunk();
      if (slot.compare_exchange_strong(chunk, fresh,
                                       std::memory_order_acq_rel)) {
        chunk = fresh;
      } else {
        free_chunk(fresh);  // another thread won the race; `chunk` is its
      }
    }
    return chunk[id & (kChunkSize - 1)];
  }

  /// Element `id` of an installed chunk (see ensure).
  T& operator[](std::uint32_t id) const {
    return chunks_[id >> kChunkBits].load(
        std::memory_order_acquire)[id & (kChunkSize - 1)];
  }

  [[nodiscard]] std::size_t capacity() const { return max_elems_; }

 private:
  static constexpr std::size_t kChunkBytes = kChunkSize * sizeof(T);

  static T* make_chunk() {
    T* fresh = static_cast<T*>(ArenaPool::instance().acquire(kChunkBytes));
    for (std::size_t i = 0; i < kChunkSize; ++i) new (fresh + i) T;
    return fresh;
  }
  static void free_chunk(T* p) {
    if (p != nullptr) ArenaPool::instance().release(p, kChunkBytes);
  }

  mutable std::vector<std::atomic<T*>> chunks_;
  std::size_t max_elems_;
};

}  // namespace pi2m
