// Minimal fork-join helper for coarse-grained data-parallel loops (EDT rows,
// final mesh scans). The PI2M refiner itself uses its own long-lived worker
// threads (runtime/); this helper is only for pre/post-processing phases.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <pthread.h>
#include <thread>
#include <vector>

namespace pi2m {

namespace detail {
struct BlockTask {
  const std::function<void(std::size_t, std::size_t)>* fn;
  std::size_t begin, end;
  std::exception_ptr error;  ///< what the block threw, if anything
};
inline void* run_block(void* task) {
  auto* t = static_cast<BlockTask*>(task);
  try {
    (*t->fn)(t->begin, t->end);
  } catch (...) {
    t->error = std::current_exception();
  }
  return nullptr;
}
}  // namespace detail

/// Runs fn(begin, end) over [0, n) split into contiguous blocks across
/// `threads` threads (the calling thread executes block 0). Every helper
/// is joined before an exception a block threw is rethrown here.
///
/// The helpers are plain pthreads whose start routine neither allocates
/// nor frees. A std::thread frees its launch state on the new thread, and
/// glibc attaches a malloc arena to a thread at its first malloc or free;
/// short-lived helpers holding arenas reshuffle glibc's list of free
/// arenas, so the next refinement worker can land in an arena other than
/// the one holding the previous job's freed pages (+30 MB peak RSS on a
/// 1-worker 96^3 job followed by 4-thread post-mesh scans). A block body
/// that allocates still gets an arena, as before. A helper that cannot be
/// started runs its block on the calling thread.
inline void parallel_blocks(std::size_t n, int threads,
                            const std::function<void(std::size_t, std::size_t)>& fn) {
  if (threads <= 1 || n <= 1) {
    fn(0, n);
    return;
  }
  const std::size_t t = std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  const std::size_t chunk = (n + t - 1) / t;
  std::vector<detail::BlockTask> tasks;  // stable: filled before any start
  tasks.reserve(t);
  for (std::size_t i = 0; i < t; ++i) {
    const std::size_t b = i * chunk;
    const std::size_t e = std::min(n, b + chunk);
    if (b >= e) break;
    tasks.push_back({&fn, b, e, nullptr});
  }
  std::vector<pthread_t> pool;
  pool.reserve(tasks.size());
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    pthread_t id{};
    if (pthread_create(&id, nullptr, detail::run_block, &tasks[i]) == 0) {
      pool.push_back(id);
    } else {
      detail::run_block(&tasks[i]);
    }
  }
  detail::run_block(&tasks[0]);
  for (const pthread_t id : pool) pthread_join(id, nullptr);
  for (const detail::BlockTask& task : tasks) {
    if (task.error) std::rethrow_exception(task.error);
  }
}

/// Runs fn(k, begin, end) for each of the `blocks` contiguous blocks of
/// [0, n), block k = [k*n/blocks, (k+1)*n/blocks), one thread per block
/// (the calling thread runs block 0). Results stored per k merge in a
/// fixed order whatever the scheduling.
inline void parallel_indexed_blocks(
    std::size_t n, std::size_t blocks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  parallel_blocks(blocks, static_cast<int>(blocks),
                  [&](std::size_t b, std::size_t e) {
                    for (std::size_t k = b; k < e; ++k) {
                      fn(k, k * n / blocks, (k + 1) * n / blocks);
                    }
                  });
}

/// Records grouped by bucket in CSR form: bucket b holds
/// items[start[b] .. start[b + 1]).
template <typename Rec>
struct Buckets {
  std::vector<std::size_t> start;
  std::vector<Rec> items;
};

/// Counting sort of the records that the items [0, n) emit into `buckets`
/// buckets: emit(i, out) calls out(bucket, record) once per record of item
/// i, the same sequence on each of its two calls (count, then scatter).
/// Each of the `blocks` contiguous item blocks counts its records per
/// bucket on its own thread; bucket b takes block 0's records first, then
/// block 1's, ..., so the blocks scatter in parallel and stably: every
/// bucket holds its records in item order, at any block count. Memory is
/// one count per (bucket, block).
template <typename Rec, typename Emit>
Buckets<Rec> bucket_scatter(std::size_t n, std::size_t buckets,
                            std::size_t blocks, const Emit& emit) {
  // at[k * buckets + b]: block k's record count for bucket b, then its
  // next slot.
  std::vector<std::size_t> at(blocks * buckets, 0);
  parallel_indexed_blocks(n, blocks, [&](std::size_t k, std::size_t b,
                                         std::size_t e) {
    std::size_t* count = at.data() + k * buckets;
    for (std::size_t i = b; i < e; ++i) {
      emit(i, [count](std::size_t bucket, const Rec&) { ++count[bucket]; });
    }
  });
  Buckets<Rec> out;
  out.start.resize(buckets + 1);
  std::size_t total = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    out.start[b] = total;
    for (std::size_t k = 0; k < blocks; ++k) {
      const std::size_t c = at[k * buckets + b];
      at[k * buckets + b] = total;
      total += c;
    }
  }
  out.start[buckets] = total;
  out.items.resize(total);
  parallel_indexed_blocks(n, blocks, [&](std::size_t k, std::size_t b,
                                         std::size_t e) {
    std::size_t* next = at.data() + k * buckets;
    Rec* items = out.items.data();
    for (std::size_t i = b; i < e; ++i) {
      emit(i, [next, items](std::size_t bucket, const Rec& rec) {
        items[next[bucket]++] = rec;
      });
    }
  });
  return out;
}

/// Thread count for the post-mesh scans over `items` elements (quality
/// report, validation): one thread per 32k items, at least one, at most
/// the hardware concurrency. A 400k-tet mesh gets every core of a 4-core
/// host; a small serving job stays on its calling thread.
inline int post_threads(std::size_t items) {
  constexpr std::size_t kItemsPerThread = std::size_t{1} << 15;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(
      std::clamp<std::size_t>(items / kItemsPerThread, 1, hw));
}

}  // namespace pi2m
