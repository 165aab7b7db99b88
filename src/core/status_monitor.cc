#include "core/status_monitor.h"

#include "common/string_util.h"

namespace mqa {

const char* ComponentStageToString(ComponentStage stage) {
  switch (stage) {
    case ComponentStage::kDataPreprocessing:
      return "data-preprocessing";
    case ComponentStage::kVectorRepresentation:
      return "vector-representation";
    case ComponentStage::kIndexConstruction:
      return "index-construction";
    case ComponentStage::kQueryExecution:
      return "query-execution";
    case ComponentStage::kAnswerGeneration:
      return "answer-generation";
    case ComponentStage::kCoordinator:
      return "coordinator";
  }
  return "unknown";
}

void StatusMonitor::Emit(StatusEvent event) {
  Callback callback;
  {
    MutexLock lock(&mu_);
    history_.push_back(event);
    if (history_.size() > kMaxHistory) history_.pop_front();
    callback = callback_;
  }
  if (callback) callback(event);
}

void StatusMonitor::Emit(ComponentStage stage, std::string message,
                         double elapsed_ms) {
  Emit(StatusEvent{stage, std::move(message), elapsed_ms, true, false});
}

void StatusMonitor::EmitDegraded(ComponentStage stage, std::string message,
                                 double elapsed_ms) {
  Emit(StatusEvent{stage, std::move(message), elapsed_ms, true, true});
}

std::string StatusMonitor::Render() const {
  std::string out;
  for (const StatusEvent& e : history()) {
    out += e.degraded ? "[!] " : (e.completed ? "[x] " : "[ ] ");
    out += ComponentStageToString(e.stage);
    out += ": ";
    out += e.message;
    if (e.elapsed_ms > 0.0) {
      out += " (" + FormatDouble(e.elapsed_ms, 1) + " ms)";
    }
    out += "\n";
  }
  return out;
}

}  // namespace mqa
