#include "core/status_monitor.h"

#include <gtest/gtest.h>

namespace mqa {
namespace {

TEST(StatusMonitorTest, RecordsHistoryInOrder) {
  StatusMonitor monitor;
  monitor.Emit(ComponentStage::kDataPreprocessing, "loaded");
  monitor.Emit(ComponentStage::kIndexConstruction, "built", 12.5);
  ASSERT_EQ(monitor.history().size(), 2u);
  EXPECT_EQ(monitor.history()[0].message, "loaded");
  EXPECT_EQ(monitor.history()[1].stage, ComponentStage::kIndexConstruction);
  EXPECT_DOUBLE_EQ(monitor.history()[1].elapsed_ms, 12.5);
}

TEST(StatusMonitorTest, NotifiesSubscriber) {
  StatusMonitor monitor;
  std::vector<std::string> seen;
  monitor.Subscribe([&seen](const StatusEvent& e) {
    seen.push_back(e.message);
  });
  monitor.Emit(ComponentStage::kQueryExecution, "searching");
  monitor.Emit(ComponentStage::kAnswerGeneration, "answering");
  EXPECT_EQ(seen, (std::vector<std::string>{"searching", "answering"}));
}

TEST(StatusMonitorTest, RenderShowsTicksAndTimings) {
  StatusMonitor monitor;
  monitor.Emit(ComponentStage::kVectorRepresentation, "encoded", 3.0);
  StatusEvent pending;
  pending.stage = ComponentStage::kIndexConstruction;
  pending.message = "building";
  pending.completed = false;
  monitor.Emit(pending);
  const std::string panel = monitor.Render();
  EXPECT_NE(panel.find("[x] vector-representation: encoded (3.0 ms)"),
            std::string::npos);
  EXPECT_NE(panel.find("[ ] index-construction: building"),
            std::string::npos);
}

TEST(StatusMonitorTest, ClearEmptiesHistory) {
  StatusMonitor monitor;
  monitor.Emit(ComponentStage::kCoordinator, "x");
  monitor.Clear();
  EXPECT_TRUE(monitor.history().empty());
  EXPECT_EQ(monitor.Render(), "");
}

TEST(StatusMonitorTest, HistoryKeepsOnlyTheNewestEvents) {
  StatusMonitor monitor;
  std::vector<std::string> seen;
  monitor.Subscribe([&seen](const StatusEvent& e) {
    seen.push_back(e.message);
  });
  const size_t total = StatusMonitor::kMaxHistory + 10;
  for (size_t i = 0; i < total; ++i) {
    monitor.Emit(ComponentStage::kQueryExecution, std::to_string(i));
  }
  // The subscriber sees every event; the history drops the oldest.
  EXPECT_EQ(seen.size(), total);
  const std::vector<StatusEvent> history = monitor.history();
  ASSERT_EQ(history.size(), StatusMonitor::kMaxHistory);
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].message, std::to_string(i + 10));
  }
}

TEST(StatusMonitorTest, StageNamesAreDistinct) {
  std::set<std::string> names;
  for (ComponentStage stage :
       {ComponentStage::kDataPreprocessing,
        ComponentStage::kVectorRepresentation,
        ComponentStage::kIndexConstruction, ComponentStage::kQueryExecution,
        ComponentStage::kAnswerGeneration, ComponentStage::kCoordinator}) {
    names.insert(ComponentStageToString(stage));
  }
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace mqa
