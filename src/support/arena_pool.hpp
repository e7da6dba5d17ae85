// Process-wide recycling pool for arena chunk storage.
//
// A one-shot run allocates its mesh arenas, faults the pages in, and frees
// everything at teardown; the next job in the same process pays the
// page-fault bill again. In the serving scenario (many jobs per process)
// that bill dominates small-job latency, so ChunkedStore can optionally
// draw its fixed-size chunk blocks from this pool instead of the heap:
// blocks released by a finished job's mesh come back warm — same sizes,
// pages already resident — and the next job re-uses them.
//
// The pool hands out *raw storage only*; ChunkArray placement-news fresh
// elements into every block it acquires, so no object state can leak
// between jobs (the second-run determinism test in tests/serve_test.cpp
// guards exactly this). Blocks are bucketed by byte size and capped by a
// byte budget; releases beyond the budget free immediately.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include "support/common.hpp"

namespace pi2m {

class ArenaPool {
 public:
  /// All pool blocks share this alignment, which must dominate the
  /// alignment of every element type stored in pooled chunks.
  static constexpr std::size_t kAlignment = 64;

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
      if (cached_bytes_ + bytes <= budget_bytes_) {
        free_[bytes].push_back(p);
        cached_bytes_ += bytes;
        return;
      }
      ++stats_.frees;
    }
    ::operator delete(p, std::align_val_t{kAlignment});
  }

  /// Caps the cached (idle) bytes; shrinks the cache immediately when
  /// lowered. In-flight blocks are not counted or affected.
  void set_budget(std::size_t bytes) {
    std::vector<std::pair<void*, std::size_t>> victims;
    {
      std::lock_guard<std::mutex> lk(mu_);
      budget_bytes_ = bytes;
      trim_locked(victims);
    }
    for (auto& [p, sz] : victims) {
      (void)sz;
      ::operator delete(p, std::align_val_t{kAlignment});
    }
  }

  /// Frees every cached block (tests; budget unchanged).
  void clear() {
    std::vector<std::pair<void*, std::size_t>> victims;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto& [sz, blocks] : free_) {
        for (void* p : blocks) victims.emplace_back(p, sz);
        blocks.clear();
      }
      cached_bytes_ = 0;
    }
    for (auto& [p, sz] : victims) {
      (void)sz;
      ::operator delete(p, std::align_val_t{kAlignment});
    }
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    Stats s = stats_;
    s.cached_bytes = cached_bytes_;
    s.budget_bytes = budget_bytes_;
    return s;
  }

 private:
  ArenaPool() = default;

  void trim_locked(std::vector<std::pair<void*, std::size_t>>& victims) {
    // Evict largest buckets first: one big block frees the most budget.
    for (auto it = free_.rbegin();
         it != free_.rend() && cached_bytes_ > budget_bytes_; ++it) {
      while (!it->second.empty() && cached_bytes_ > budget_bytes_) {
        victims.emplace_back(it->second.back(), it->first);
        it->second.pop_back();
        cached_bytes_ -= it->first;
        ++stats_.frees;
      }
    }
  }

  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<void*>> free_;
  std::size_t cached_bytes_ = 0;
  std::size_t budget_bytes_ = std::size_t{512} << 20;  // 512 MiB default
  Stats stats_;
};

/// Fixed-capacity array of lazily allocated chunks, indexed by id. The
/// first touch of a chunk installs it lock-free (a CAS; the loser of a race
/// frees its copy), and chunks never move or free while the array lives,
/// so concurrent readers never see an element relocate. `pooled` draws
/// chunk storage from the ArenaPool and returns it there on destruction;
/// every acquired block is re-initialized element by element with
/// placement-new, so a pooled array is observationally identical to a
/// heap-backed one.
template <typename T>
class ChunkArray {
 public:
  static constexpr std::size_t kChunkBits = 14;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;

  explicit ChunkArray(std::size_t max_elems, bool pooled = false)
      : chunks_((max_elems + kChunkSize - 1) / kChunkSize + 1),
        max_elems_(max_elems),
        pooled_(pooled) {
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

  T* make_chunk() {
    if (!pooled_) return new T[kChunkSize];
    static_assert(alignof(T) <= ArenaPool::kAlignment,
                  "pool blocks under-aligned for T");
    T* fresh = static_cast<T*>(ArenaPool::instance().acquire(kChunkBytes));
    for (std::size_t i = 0; i < kChunkSize; ++i) new (fresh + i) T;
    return fresh;
  }
  void free_chunk(T* p) {
    if (p == nullptr) return;
    if (pooled_) {
      static_assert(std::is_trivially_destructible_v<T>,
                    "pooled chunks skip element destruction");
      ArenaPool::instance().release(p, kChunkBytes);
    } else {
      delete[] p;
    }
  }

  mutable std::vector<std::atomic<T*>> chunks_;
  std::size_t max_elems_;
  bool pooled_;
};

}  // namespace pi2m
