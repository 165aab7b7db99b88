#ifndef MQA_SERVER_REQUEST_QUEUE_H_
#define MQA_SERVER_REQUEST_QUEUE_H_

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/sync.h"

namespace mqa {

/// Why TryPush did or did not enqueue.
enum class PushResult { kPushed, kFull, kClosed };

/// The server's admission-control primitive: a bounded MPMC queue that
/// *never blocks producers*. `TryPush` fails immediately when the queue is
/// at capacity (the caller surfaces kResourceExhausted — backpressure
/// instead of unbounded buffering) or closed (shut down — not overload),
/// while consumers block in `Pop` until an item or shutdown arrives.
///
/// `SetPaused(true)` parks consumers even when items are pending; the
/// overload tests use it to fill the queue deterministically without
/// racing the worker threads. `Close` overrides a pause so shutdown always
/// drains: pending items are still handed out, then every `Pop` returns
/// nullopt.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues unless closed or full, and says which. Never blocks.
  [[nodiscard]] PushResult TryPush(T item) {
    {
      MutexLock lock(&mu_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
    }
    cv_.NotifyOne();
    return PushResult::kPushed;
  }

  /// Blocks until an item is available (and the queue is not paused) or
  /// the queue is closed and drained; nullopt means "shut down, no more
  /// work ever".
  std::optional<T> Pop() {
    mu_.Lock();
    while (!closed_ && (items_.empty() || paused_)) cv_.Wait(&mu_);
    if (items_.empty()) {
      mu_.Unlock();
      return std::nullopt;
    }
    T out = std::move(items_.front());
    items_.pop_front();
    mu_.Unlock();
    return out;
  }

  /// Parks (or releases) consumers. Producers are unaffected.
  void SetPaused(bool paused) {
    {
      MutexLock lock(&mu_);
      paused_ = paused;
    }
    cv_.NotifyAll();
  }

  /// Rejects future pushes and wakes all consumers; already queued items
  /// are still drained by Pop.
  void Close() {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

  size_t size() const {
    MutexLock lock(&mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<T> items_ MQA_GUARDED_BY(mu_);
  bool paused_ MQA_GUARDED_BY(mu_) = false;
  bool closed_ MQA_GUARDED_BY(mu_) = false;
};

}  // namespace mqa

#endif  // MQA_SERVER_REQUEST_QUEUE_H_
