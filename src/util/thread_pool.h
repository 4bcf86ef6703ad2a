// Fixed-size thread pool with a parallel_for helper.
//
// Used to parallelize the ANN trainer's sgemm row blocks and per-sample
// forward/backward work, and to fan inference samples out across an
// InferenceSession (snn/engine.h).
// The pool is created once per process via global_pool() (size = hardware
// concurrency, overridable by TTFS_THREADS) but can also be instantiated
// locally for tests.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace ttfs {

class ThreadPool {
 public:
  // Creates `threads` workers; threads == 0 means "run inline on the caller".
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Splits [begin, end) into roughly equal chunks and runs
  // fn(chunk_begin, chunk_end) across the pool, blocking until all complete.
  // Exceptions from fn propagate to the caller (first one wins).
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  // Like parallel_for but also passes the chunk index, 0 <= idx <
  // max_chunks(begin, end). Each index runs exactly once, so callers can keep
  // per-worker scratch (e.g. event-sim arenas) in an array indexed by it with
  // no contention and no per-task allocation.
  void parallel_for_indexed(
      std::int64_t begin, std::int64_t end,
      const std::function<void(std::size_t, std::int64_t, std::int64_t)>& fn);

  // Number of chunks parallel_for*(begin, end, ...) will create — the size a
  // per-chunk scratch array must have. At least 1 for a non-empty range.
  std::size_t max_chunks(std::int64_t begin, std::int64_t end) const;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  util::Mutex mu_;
  util::CondVar cv_;
  std::queue<std::function<void()>> tasks_ TTFS_GUARDED_BY(mu_);
  bool stop_ TTFS_GUARDED_BY(mu_) = false;
};

// Process-wide pool sized from std::thread::hardware_concurrency(), capped by
// the TTFS_THREADS environment variable when set.
ThreadPool& global_pool();

// Convenience wrapper over global_pool().parallel_for.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace ttfs
