#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/coordinator.h"
#include "core_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

/// End-to-end observability: a query turn produces a span tree whose
/// timestamps are exact under a MockClock (the only thing that advances
/// time here is an injected latency spike), and the offline build leaves
/// a trace covering the pipeline stages down to the DAG nodes.
class ObservabilityTest : public ::testing::Test {
 protected:
  static MqaConfig TracedConfig() {
    MqaConfig config = SmallConfig();
    config.resilience.enable = true;
    config.resilience.clock = &clock_;
    config.observability.clock = &clock_;
    config.observability.explain_turns = true;
    return config;
  }

  static void SetUpTestSuite() {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().SetClock(&clock_);
    auto c = Coordinator::Create(TracedConfig());
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    coordinator_ = c->release();
  }
  static void TearDownTestSuite() {
    delete coordinator_;
    coordinator_ = nullptr;
    FaultInjector::Global().SetClock(nullptr);
  }

  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    coordinator_->ResetDialogue();
  }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  static UserQuery ConceptQuery(uint32_t concept_id) {
    UserQuery q;
    q.text = "i would like some images of " +
             coordinator_->world().ConceptName(concept_id);
    return q;
  }

  static MockClock clock_;
  static Coordinator* coordinator_;
};

MockClock ObservabilityTest::clock_;
Coordinator* ObservabilityTest::coordinator_ = nullptr;

TEST_F(ObservabilityTest, TurnTraceTreeSumsConsistently) {
  // The only clock advancement in the turn is a 50 ms injected latency
  // spike inside the LLM hop, so every duration is exact.
  FaultSpec slow;
  slow.code = StatusCode::kOk;
  slow.latency_ms = 50.0;
  slow.max_fires = 1;
  FaultInjector::Global().Arm("llm/complete", slow);

  auto turn = coordinator_->Ask(ConceptQuery(0));
  ASSERT_TRUE(turn.ok()) << turn.status().ToString();
  ASSERT_NE(turn->trace, nullptr);
  const std::vector<SpanRecord> spans = turn->trace->spans();
  ASSERT_FALSE(spans.empty());

  // Exactly one root: coordinator/turn, closed, 50 ms long.
  std::map<std::string, const SpanRecord*> by_name;
  size_t roots = 0;
  for (const SpanRecord& s : spans) {
    by_name[s.name] = &s;
    if (s.parent < 0) {
      ++roots;
      EXPECT_EQ(s.name, "coordinator/turn");
    }
  }
  EXPECT_EQ(roots, 1u);
  ASSERT_TRUE(by_name.count("coordinator/turn"));
  EXPECT_EQ(by_name["coordinator/turn"]->DurationMicros(), 50'000);

  // The online path is covered end to end.
  for (const char* expected :
       {"coordinator/rewrite", "query/execute", "query/encode",
        "query/retrieve", "graph/search", "coordinator/answer",
        "llm/complete"}) {
    EXPECT_TRUE(by_name.count(expected)) << "missing span " << expected;
  }
  EXPECT_EQ(by_name["llm/complete"]->DurationMicros(), 50'000);

  // Structural consistency: every span is closed, nests inside its
  // parent's interval, and no span's children overrun it.
  std::vector<int64_t> child_sum(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.end_micros, s.start_micros) << s.name;
    if (s.parent >= 0) {
      const SpanRecord& p = spans[s.parent];
      EXPECT_GE(s.start_micros, p.start_micros) << s.name;
      EXPECT_LE(s.end_micros, p.end_micros) << s.name;
      child_sum[s.parent] += s.DurationMicros();
    }
  }
  for (const SpanRecord& s : spans) {
    EXPECT_LE(child_sum[s.id], s.DurationMicros()) << s.name;
  }
  // All 50 ms are accounted for along the llm/complete ancestry, so the
  // root's children sum to exactly the root's duration.
  EXPECT_EQ(child_sum[by_name["coordinator/turn"]->id], 50'000);

  // ToJson carries every span.
  const std::string json = turn->trace->ToJson();
  EXPECT_NE(json.find("\"trace\":\"turn\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"llm/complete\""), std::string::npos);
}

TEST_F(ObservabilityTest, ExplainTurnsEmitsBreakdownThroughMonitor) {
  coordinator_->monitor().Clear();
  auto turn = coordinator_->Ask(ConceptQuery(1));
  ASSERT_TRUE(turn.ok());
  bool saw_breakdown = false;
  for (const StatusEvent& event : coordinator_->monitor().history()) {
    if (event.stage == ComponentStage::kCoordinator &&
        event.message.find("per-turn breakdown") != std::string::npos) {
      saw_breakdown = true;
      EXPECT_NE(event.message.find("coordinator/turn"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_breakdown);
}

TEST_F(ObservabilityTest, BuildTraceCoversPipelineAndDagStages) {
  const Trace* build = coordinator_->build_trace();
  ASSERT_NE(build, nullptr);
  const std::vector<SpanRecord> spans = build->spans();
  std::map<std::string, const SpanRecord*> by_name;
  for (const SpanRecord& s : spans) by_name[s.name] = &s;
  for (const char* expected : {"coordinator/build", "build/preprocess",
                               "build/represent", "build/index"}) {
    ASSERT_TRUE(by_name.count(expected)) << "missing span " << expected;
    EXPECT_GE(by_name[expected]->end_micros, 0) << expected << " left open";
  }
  // The graph construction pipeline opens one span per stage under
  // build/index.
  bool saw_dag_stage = false;
  for (const SpanRecord& s : spans) {
    if (s.name.rfind("dag/", 0) == 0) {
      saw_dag_stage = true;
      EXPECT_GE(s.parent, 0) << s.name << " must nest inside the build";
    }
  }
  EXPECT_TRUE(saw_dag_stage);
  // The render names the pipeline stages for the status panel.
  EXPECT_NE(build->Render().find("build/index"), std::string::npos);
}

TEST_F(ObservabilityTest, TurnMetricsAreCounted) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t turns_before = metrics.CounterValue("coordinator/turns");
  const uint64_t execs_before = metrics.CounterValue("query/executions");
  const uint64_t llm_before = metrics.CounterValue("llm/requests");
  const uint64_t searches_before = metrics.CounterValue("graph/searches");
  auto turn = coordinator_->Ask(ConceptQuery(2));
  ASSERT_TRUE(turn.ok());
  EXPECT_EQ(metrics.CounterValue("coordinator/turns"), turns_before + 1);
  EXPECT_EQ(metrics.CounterValue("query/executions"), execs_before + 1);
  EXPECT_GE(metrics.CounterValue("llm/requests"), llm_before + 1);
  EXPECT_GT(metrics.CounterValue("graph/searches"), searches_before);
  // The process-wide export names them all.
  const std::string json = metrics.ToJson();
  for (const char* name : {"\"coordinator/turns\"", "\"query/executions\"",
                           "\"graph/searches\"", "\"graph/dist_comps\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST_F(ObservabilityTest, TracingDisabledYieldsNullTraceAndStillAnswers) {
  MqaConfig config = SmallConfig();
  config.observability.trace_turns = false;
  config.observability.trace_build = false;
  auto plain = Coordinator::Create(config);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ((*plain)->build_trace(), nullptr);
  UserQuery q;
  q.text = "i would like some images of " +
           (*plain)->world().ConceptName(0);
  auto turn = (*plain)->Ask(q);
  ASSERT_TRUE(turn.ok());
  EXPECT_EQ(turn->trace, nullptr);
  EXPECT_FALSE(turn->answer.empty());
}

TEST_F(ObservabilityTest, DegradedTurnCountsOnce) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t degraded_before =
      metrics.CounterValue("coordinator/degraded_turns");
  FaultSpec spec;
  spec.once = true;
  FaultInjector::Global().Arm("llm/rewrite", spec);
  auto turn = coordinator_->Ask(ConceptQuery(3));
  ASSERT_TRUE(turn.ok());
  EXPECT_TRUE(turn->degraded);
  EXPECT_EQ(metrics.CounterValue("coordinator/degraded_turns"),
            degraded_before + 1);
}

}  // namespace
}  // namespace mqa
