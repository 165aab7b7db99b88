#ifndef MQA_SERVER_BATCHER_H_
#define MQA_SERVER_BATCHER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/sync.h"

namespace mqa {

/// Why a batch was released.
enum class BatchTrigger {
  kSize,           ///< pending count reached max_batch
  kDeadlineSlack,  ///< a pending request's deadline slack ran out
  kAllWaiting,     ///< every registered worker is parked inside Submit
};

struct BatcherOptions {
  /// Largest batch handed to the batch function; 1 disables coalescing
  /// (every request runs alone — the single-item fallback).
  size_t max_batch = 8;
  /// Flush as soon as any pending request is within this much of its
  /// deadline, instead of waiting for more stragglers to coalesce.
  double flush_slack_ms = 1.0;
  /// Time source for deadlines and queue-wait metrics; null = SystemClock.
  Clock* clock = nullptr;
  /// Metrics prefix: histograms "server/<name>_batch_size" and
  /// "server/<name>_queue_wait_ms".
  std::string name = "batch";
};

/// Cumulative counters (read by the batcher unit tests).
struct BatcherStats {
  uint64_t batches = 0;
  uint64_t items = 0;
  uint64_t size_flushes = 0;
  uint64_t slack_flushes = 0;
  uint64_t drain_flushes = 0;
  size_t max_occupancy = 0;
};

/// Coalesces concurrent calls into batched invocations of one BatchFn —
/// the cross-query batching stage of the serving pipeline (the paper's
/// encoders and graph search amortize much better per batch than per
/// query).
///
/// Event-driven leader/follower combining, with no timer thread and no
/// timed waits (so MockClock tests stay fully deterministic): callers park
/// in Submit(); whenever an event arrives (a submission, a worker leaving
/// the stage, a finished batch) any parked caller re-evaluates the flush
/// triggers and, if one holds, becomes the leader that executes the batch.
/// Triggers:
///   * size      — max_batch requests are pending;
///   * slack     — a pending request's deadline is within flush_slack_ms,
///                 so waiting for more coalescing would risk missing it;
///   * drain     — every worker registered via Enter() is parked inside
///                 Submit(), so no further request can possibly join.
/// The drain trigger is what guarantees liveness: workers bracket the
/// phase in which they may call Submit with Enter()/Exit(), and a worker
/// that is *not* parked eventually produces an event (its own Submit or
/// its Exit). With no registered workers every submission flushes
/// immediately, so un-registered callers transparently get unbatched
/// semantics.
///
/// Batches from different leaders may run at once, so the batch function
/// must be thread-safe. Responses are matched to requests by position;
/// the batch function must return exactly one Result per request.
template <typename Request, typename Response>
class Batcher {
 public:
  using BatchFn = std::function<std::vector<Result<Response>>(
      const std::vector<Request>&)>;

  Batcher(BatcherOptions options, BatchFn fn)
      : options_(std::move(options)),
        clock_(options_.clock != nullptr ? options_.clock : SystemClock()),
        fn_(std::move(fn)),
        batch_size_hist_(MetricsRegistry::Global().GetHistogram(
            "server/" + options_.name + "_batch_size", OccupancyBounds())),
        queue_wait_hist_(MetricsRegistry::Global().GetHistogram(
            "server/" + options_.name + "_queue_wait_ms")) {
    if (options_.max_batch == 0) options_.max_batch = 1;
  }
  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Registers the calling worker as able to Submit (see drain trigger).
  void Enter() {
    MutexLock lock(&mu_);
    ++active_;
  }

  /// The worker left the stage; it will not Submit again until re-entry.
  void Exit() {
    mu_.Lock();
    --active_;
    mu_.Unlock();
    cv_.NotifyAll();  // the drain trigger may hold now
  }

  /// Blocks until the request has been executed as part of some batch and
  /// returns its response. `deadline_micros` (same epoch as the batcher's
  /// clock; 0 = none) only shapes the slack trigger — expired requests
  /// still execute, shedding is the caller's policy.
  Result<Response> Submit(Request request, int64_t deadline_micros = 0) {
    auto slot = std::make_shared<Slot>();
    slot->request = std::move(request);
    slot->deadline_micros = deadline_micros;
    slot->enqueue_micros = clock_->NowMicros();
    mu_.Lock();
    pending_.push_back(slot);
    ++waiting_;
    cv_.NotifyAll();
    while (!slot->done) {
      BatchTrigger trigger = BatchTrigger::kSize;
      if (!pending_.empty() && ShouldFlushLocked(&trigger)) {
        FlushLocked(trigger);  // drops mu_ around the batch function
        continue;              // our slot may have been in that batch
      }
      cv_.Wait(&mu_);
    }
    --waiting_;
    Result<Response> out = std::move(slot->result);
    mu_.Unlock();
    return out;
  }

  BatcherStats stats() const {
    MutexLock lock(&mu_);
    return stats_;
  }

  /// Callers currently inside Submit (their requests are pending or in a
  /// running batch). Tests poll this to know a request arrived.
  size_t waiting_callers() const {
    MutexLock lock(&mu_);
    return waiting_;
  }

  size_t max_batch() const { return options_.max_batch; }

 private:
  /// Protected by mu_ while in pending_; between removal from pending_
  /// and completion it is exclusively owned by the flushing thread (the
  /// submitter only re-reads it under mu_ after `done` flips).
  struct Slot {
    Request request;
    Result<Response> result = Status::Internal("batch never executed");
    bool done = false;
    int64_t enqueue_micros = 0;
    int64_t deadline_micros = 0;
  };

  static std::vector<double> OccupancyBounds() {
    return {1, 2, 4, 8, 16, 32, 64};
  }

  bool ShouldFlushLocked(BatchTrigger* trigger) MQA_REQUIRES(mu_) {
    if (pending_.size() >= options_.max_batch) {
      *trigger = BatchTrigger::kSize;
      return true;
    }
    // Slack before drain: a deadline-pressed flush is reported as such
    // even when it coincides with every worker being parked.
    const auto slack = static_cast<int64_t>(options_.flush_slack_ms * 1e3);
    const int64_t now = clock_->NowMicros();
    for (const std::shared_ptr<Slot>& slot : pending_) {
      if (slot->deadline_micros > 0 && slot->deadline_micros - now <= slack) {
        *trigger = BatchTrigger::kDeadlineSlack;
        return true;
      }
    }
    if (waiting_ >= active_) {
      *trigger = BatchTrigger::kAllWaiting;
      return true;
    }
    return false;
  }

  /// Takes up to max_batch pending slots and runs the batch function with
  /// mu_ released, so submissions — and other leaders' batches — keep
  /// flowing while this batch executes.
  void FlushLocked(BatchTrigger trigger) MQA_REQUIRES(mu_) {
    const size_t n = std::min(pending_.size(), options_.max_batch);
    std::vector<std::shared_ptr<Slot>> batch(pending_.begin(),
                                             pending_.begin() + n);
    pending_.erase(pending_.begin(), pending_.begin() + n);
    ++stats_.batches;
    stats_.items += n;
    stats_.max_occupancy = std::max(stats_.max_occupancy, n);
    switch (trigger) {
      case BatchTrigger::kSize:
        ++stats_.size_flushes;
        break;
      case BatchTrigger::kDeadlineSlack:
        ++stats_.slack_flushes;
        break;
      case BatchTrigger::kAllWaiting:
        ++stats_.drain_flushes;
        break;
    }
    const int64_t now = clock_->NowMicros();
    std::vector<Request> requests;
    requests.reserve(n);
    for (const std::shared_ptr<Slot>& slot : batch) {
      queue_wait_hist_->Record(
          static_cast<double>(now - slot->enqueue_micros) / 1e3);
      requests.push_back(std::move(slot->request));
    }
    batch_size_hist_->Record(static_cast<double>(n));
    mu_.Unlock();
    std::vector<Result<Response>> responses = fn_(requests);
    mu_.Lock();
    for (size_t i = 0; i < batch.size(); ++i) {
      if (i < responses.size()) {
        batch[i]->result = std::move(responses[i]);
      } else {
        batch[i]->result = Status::Internal(
            "batch function returned " + std::to_string(responses.size()) +
            " responses for " + std::to_string(batch.size()) + " requests");
      }
      batch[i]->done = true;
    }
    cv_.NotifyAll();
  }

  BatcherOptions options_;
  Clock* const clock_;
  const BatchFn fn_;
  Histogram* const batch_size_hist_;
  Histogram* const queue_wait_hist_;

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<Slot>> pending_ MQA_GUARDED_BY(mu_);
  size_t active_ MQA_GUARDED_BY(mu_) = 0;
  size_t waiting_ MQA_GUARDED_BY(mu_) = 0;
  BatcherStats stats_ MQA_GUARDED_BY(mu_);
};

}  // namespace mqa

#endif  // MQA_SERVER_BATCHER_H_
