#ifndef MQA_COMMON_THREAD_POOL_H_
#define MQA_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace mqa {

/// A fixed-size worker pool. Tasks are `std::function<void()>`; `Submit`
/// returns a future for completion/exception propagation. Used by the
/// sharded retrieval framework: one pool builds the shards concurrently,
/// another fans each query out to them.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains and joins. Pending tasks are still executed before shutdown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future resolved on completion. The future
  /// is the only completion/exception channel — discarding it loses
  /// errors, so it is [[nodiscard]]; use Post for fire-and-forget work.
  [[nodiscard]] std::future<void> Submit(std::function<void()> task);

  /// Fire-and-forget enqueue: no promise/future is allocated. The task
  /// must not throw (an escaping exception is logged and swallowed);
  /// completion must be tracked out of band (e.g. a counter + CondVar,
  /// as the shard fan-out does).
  void Post(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// iterations finish. Iterations are chunked to limit queue overhead.
  ///
  /// Exception contract: if fn throws in any chunk, ParallelFor waits for
  /// every remaining chunk to finish and then rethrows the first exception
  /// to the caller; workers never std::terminate and the pool stays usable.
  /// Must not be called from a task running on this same pool (the caller
  /// blocks on a worker slot it may itself occupy).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

 private:
  struct Task {
    std::function<void()> fn;
    std::promise<void> done;
    bool detached = false;  ///< Post()ed: nobody is waiting on `done`
  };

  void Enqueue(std::unique_ptr<Task> task) MQA_EXCLUDES(mu_);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::queue<std::unique_ptr<Task>> queue_ MQA_GUARDED_BY(mu_);
  bool shutdown_ MQA_GUARDED_BY(mu_) = false;
};

}  // namespace mqa

#endif  // MQA_COMMON_THREAD_POOL_H_
