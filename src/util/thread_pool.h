// A fixed-size worker pool with a blocking ParallelFor.
//
// The association scan parallelizes over the M columns of X; ParallelFor
// shards [begin, end) into contiguous chunks so each worker touches a
// contiguous column range (cache friendly, matches the paper's
// "columns of X distributed across machines with C total cores").
//
// Chunking is cost-based rather than one-chunk-per-thread: by default a
// range is split into ~4 chunks per worker (subject to a minimum grain),
// so uneven per-item cost — sparse columns with wildly different nnz,
// NUMA effects — load-balances across the pool instead of serializing on
// the slowest shard. Callers with a known natural grain (e.g. one cache
// block of columns) pass it via ParallelForOptions::min_chunk.
//
// A pool with num_threads == 1 spawns no workers and runs everything
// inline on the caller — including Schedule(), which would otherwise
// enqueue work nobody drains and deadlock the next Wait().
//
// Nesting rules (enforced, not just documented):
//  * ParallelFor called from inside one of the pool's own tasks runs the
//    whole range inline on that worker. Blocking in Wait() there would
//    deadlock: the worker's own task counts as in flight and can never
//    retire while the worker is parked inside it.
//  * Schedule from a worker is fine (it only enqueues).
//  * Wait from a worker of the same pool is a programmer error and
//    DASH_CHECK-fails with a diagnostic instead of hanging.

#ifndef DASH_UTIL_THREAD_POOL_H_
#define DASH_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace dash {

// Tuning for ParallelFor's shard computation.
struct ParallelForOptions {
  // Never split the range into chunks smaller than this many items
  // (except that the final chunk may be a remainder). Use the natural
  // unit of the workload, e.g. one cache block of columns.
  int64_t min_chunk = 1;

  // Target number of chunks per pool thread. The default of 1 keeps
  // the long-standing contract that a pool of T threads splits a range
  // into at most T contiguous shards (callers index per-shard scratch
  // by a running counter). Raise it to let the queue load-balance
  // uneven per-item cost at the price of more enqueue traffic.
  int64_t chunks_per_thread = 1;
};

class ThreadPool {
 public:
  // Spawns num_threads - 1 workers (the calling thread participates in
  // ParallelFor). Requires num_threads >= 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(range_begin, range_end) over a partition of [begin, end)
  // into contiguous chunks (see ParallelForOptions) and blocks until all
  // complete. fn must be safe to invoke concurrently on disjoint ranges.
  // An empty or inverted range is a no-op. Called from one of this
  // pool's workers, the whole range runs inline (see nesting rules).
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& fn);
  void ParallelFor(int64_t begin, int64_t end,
                   const ParallelForOptions& options,
                   const std::function<void(int64_t, int64_t)>& fn);

  // Schedules fn on a worker. With num_threads == 1 (no workers) fn
  // runs inline before Schedule returns. Wait() joins all outstanding scheduled work; it
  // must not be called from one of this pool's own workers.
  void Schedule(std::function<void()> fn);
  void Wait();

  // True when the calling thread is one of this pool's workers.
  bool InWorkerThread() const;

 private:
  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> workers_;
  Mutex mu_{LockRank::kThreadPool};
  CondVar work_cv_;
  CondVar done_cv_;
  std::queue<std::function<void()>> queue_ DASH_GUARDED_BY(mu_);
  int64_t in_flight_ DASH_GUARDED_BY(mu_) = 0;
  bool shutdown_ DASH_GUARDED_BY(mu_) = false;
};

}  // namespace dash

#endif  // DASH_UTIL_THREAD_POOL_H_
