// Fixed-size thread pool plus the one blocking fork-join built on it.
//
// run_tasks() is the only place a caller waits for pool work: the
// tensor/kernel parallel_for, the AttackEngine's shard fan-out and the
// attack-serve worker's job fan-out all go through it. It runs fn(i)
// for every index, rethrows the first exception, and returns only after
// every task has finished touching the join state (the count is
// decremented and the waiter notified under one mutex).
//
// Serial cases, all on the calling thread in index order: a null pool,
// a single task, and — for parallel_for — a call made from inside a
// pool worker (enqueueing there could deadlock with every worker
// blocked on queued chunks) or a range that fits in one chunk.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace diva {

/// Fixed-size pool of worker threads executing std::function jobs.
class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job for asynchronous execution.
  void submit(std::function<void()> job);

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool used by parallel_for. Lazily constructed.
ThreadPool& global_pool();

/// Runs fn(i) for every i in [0, count) on `pool` and blocks until all
/// have returned; rethrows the first exception any task threw. Runs
/// serially on the caller, in index order, when `pool` is null or
/// count <= 1; a serial run stops at the first exception. Must not be
/// called from a task running on `pool`.
void run_tasks(ThreadPool* pool, std::int64_t count,
               const std::function<void(std::int64_t)>& fn);

/// Runs fn(i) for i in [begin, end) across the global pool.
///
/// The range is split into contiguous chunks of at least `grain`
/// iterations, run through run_tasks(). Serial for small ranges and
/// when called from inside a pool worker.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  std::int64_t grain = 1);

/// Chunked variant: fn(chunk_begin, chunk_end) per chunk, fewer closures.
void parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t grain = 1);

}  // namespace diva
