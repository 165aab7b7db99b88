#ifndef MQA_CORE_STATUS_MONITOR_H_
#define MQA_CORE_STATUS_MONITOR_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/sync.h"

namespace mqa {

/// The five backend components of Figure 2 (plus the coordinator itself).
enum class ComponentStage {
  kDataPreprocessing,
  kVectorRepresentation,
  kIndexConstruction,
  kQueryExecution,
  kAnswerGeneration,
  kCoordinator,
};

const char* ComponentStageToString(ComponentStage stage);

/// One milestone line of the status-monitoring panel.
struct StatusEvent {
  ComponentStage stage = ComponentStage::kCoordinator;
  std::string message;
  double elapsed_ms = 0.0;
  bool completed = true;
  /// The stage finished, but in degraded mode (fallback answer, dropped
  /// modality, partial disk results, ...). Rendered as "[!]".
  bool degraded = false;
};

/// Collects milestone events ("data preprocessing done: 5000 objects, 2
/// modalities", ...) and forwards them to an optional subscriber — the
/// backend half of the paper's status monitoring panel. Only the newest
/// kMaxHistory events are kept: every served turn emits a few, so an
/// unbounded history would grow with uptime.
///
/// Thread-safe: concurrent turns (server workers, caller threads) Emit at
/// the same time, so the history is mutex-guarded and `history()` returns
/// a snapshot. The subscriber callback is invoked outside the lock (a
/// callback that re-enters the monitor must not assume ordering against
/// concurrent emitters).
class StatusMonitor {
 public:
  using Callback = std::function<void(const StatusEvent&)>;

  static constexpr size_t kMaxHistory = 1024;

  /// Registers a subscriber (replaces any previous one).
  void Subscribe(Callback callback) {
    MutexLock lock(&mu_);
    callback_ = std::move(callback);
  }

  /// Records an event and notifies the subscriber.
  void Emit(StatusEvent event);
  void Emit(ComponentStage stage, std::string message,
            double elapsed_ms = 0.0);

  /// Records a degraded-mode event (the stage delivered a reduced result).
  void EmitDegraded(ComponentStage stage, std::string message,
                    double elapsed_ms = 0.0);

  /// Snapshot of the retained events, oldest first.
  std::vector<StatusEvent> history() const {
    MutexLock lock(&mu_);
    return {history_.begin(), history_.end()};
  }

  void Clear() {
    MutexLock lock(&mu_);
    history_.clear();
  }

  /// Renders the history as the panel would show it (one line per event).
  std::string Render() const;

 private:
  mutable Mutex mu_;
  Callback callback_ MQA_GUARDED_BY(mu_);
  std::deque<StatusEvent> history_ MQA_GUARDED_BY(mu_);
};

}  // namespace mqa

#endif  // MQA_CORE_STATUS_MONITOR_H_
