#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "server/server.h"
#include "../core/core_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

/// Overload chaos suite: request bursts and injected latency spikes drive
/// the queue past capacity, and the whole overload ladder — backpressure,
/// breaker trip, cool-down, half-open probing, recovery — plays out on a
/// MockClock with zero real sleeps. Each test builds its own small server
/// so breaker state never leaks between scenarios.
class ServerOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().SetClock(nullptr);
  }

  std::unique_ptr<Server> MakeServer(MockClock* clock, size_t queue_capacity,
                                     int breaker_threshold,
                                     double default_deadline_ms = 0.0) {
    MqaConfig config = SmallConfig();
    config.serving.num_workers = 1;  // deterministic drain order
    config.serving.queue_capacity = queue_capacity;
    config.serving.default_deadline_ms = default_deadline_ms;
    config.serving.breaker_failure_threshold = breaker_threshold;
    config.serving.breaker_open_ms = 500.0;
    config.serving.breaker_half_open_successes = 2;
    config.serving.clock = clock;
    auto server = Server::Create(config);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server.ok() ? std::move(server).Value() : nullptr;
  }

  UserQuery Query(Server* server, uint32_t concept_id = 1) {
    UserQuery query;
    query.text =
        "show me " + server->coordinator()->world().ConceptName(concept_id);
    return query;
  }
};

TEST_F(ServerOverloadTest, QueueFullShedsWithResourceExhausted) {
  MockClock clock;
  std::unique_ptr<Server> server =
      MakeServer(&clock, /*queue_capacity=*/2, /*breaker_threshold=*/100);
  ASSERT_NE(server, nullptr);
  const uint64_t session = server->OpenSession();

  server->Suspend();  // park the worker: the queue fills deterministically
  std::atomic<int> completed{0};
  AskCallback on_done = [&completed](Result<AnswerTurn> turn) {
    EXPECT_TRUE(turn.ok()) << turn.status().ToString();
    ++completed;
  };
  ASSERT_TRUE(server->Submit(session, Query(server.get()), on_done).ok());
  ASSERT_TRUE(server->Submit(session, Query(server.get()), on_done).ok());
  EXPECT_EQ(server->queue_depth(), server->queue_capacity());

  // The burst beyond capacity is shed with kResourceExhausted; the two
  // accepted turns are untouched.
  for (int i = 0; i < 3; ++i) {
    Status shed = server->Submit(session, Query(server.get()), on_done);
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(shed.message().find("queue is full"), std::string::npos);
  }
  EXPECT_EQ(server->stats().shed_queue_full, 3u);

  server->Resume();
  server->Shutdown();  // drains the two accepted turns
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(server->stats().completed, 2u);
  EXPECT_EQ(server->stats().failed, 0u);
}

TEST_F(ServerOverloadTest, SubmitAfterShutdownIsRejectedNotShed) {
  MockClock clock;
  std::unique_ptr<Server> server =
      MakeServer(&clock, /*queue_capacity=*/2, /*breaker_threshold=*/3);
  ASSERT_NE(server, nullptr);
  const uint64_t session = server->OpenSession();
  server->Shutdown();

  // A shut-down server is not overloaded: every turn is refused with a
  // non-retryable status, nothing counts as shed, and the breaker — which
  // would trip after three overload signals — stays closed.
  for (int i = 0; i < 6; ++i) {
    Result<AnswerTurn> turn = server->Ask(session, Query(server.get()));
    ASSERT_FALSE(turn.ok());
    EXPECT_EQ(turn.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(turn.status().IsRetryable());
    EXPECT_NE(turn.status().message().find("shut down"), std::string::npos);
  }
  EXPECT_EQ(server->stats().shed_queue_full, 0u);
  EXPECT_EQ(server->stats().accepted, 0u);
  EXPECT_EQ(server->breaker().state(), BreakerState::kClosed);
  EXPECT_EQ(server->queue_depth(), 0u);
}

TEST_F(ServerOverloadTest, BreakerTripsOpensAndRecoversOnSchedule) {
  MockClock clock;
  std::unique_ptr<Server> server =
      MakeServer(&clock, /*queue_capacity=*/2, /*breaker_threshold=*/3);
  ASSERT_NE(server, nullptr);
  const uint64_t session = server->OpenSession();

  std::atomic<int> completed{0};
  AskCallback on_done = [&completed](Result<AnswerTurn> turn) {
    EXPECT_TRUE(turn.ok()) << turn.status().ToString();
    ++completed;
  };

  // Fill the queue, then burst: three queue-full sheds reach the breaker
  // threshold and trip it open.
  server->Suspend();
  ASSERT_TRUE(server->Submit(session, Query(server.get()), on_done).ok());
  ASSERT_TRUE(server->Submit(session, Query(server.get()), on_done).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server->Submit(session, Query(server.get()), on_done).code(),
              StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(server->breaker().state(), BreakerState::kOpen);

  // While open, Submit sheds at the door — the queue is not even tried.
  Status at_door = server->Submit(session, Query(server.get()), on_done);
  ASSERT_FALSE(at_door.ok());
  EXPECT_EQ(at_door.code(), StatusCode::kUnavailable);
  EXPECT_NE(at_door.message().find("circuit breaker"), std::string::npos);
  EXPECT_EQ(server->stats().shed_breaker, 1u);
  EXPECT_EQ(server->queue_depth(), 2u);

  // Release the workers; the two accepted turns complete (their successes
  // do not close the breaker — it is open, not half-open).
  server->Resume();
  while (completed.load() < 2) std::this_thread::yield();
  EXPECT_EQ(server->breaker().state(), BreakerState::kOpen);

  // Cool-down elapses on the mock clock: the next submission is admitted
  // as a half-open probe. Two probe successes re-close the breaker.
  clock.AdvanceMillis(501.0);
  ASSERT_TRUE(server->Ask(session, Query(server.get())).ok());
  EXPECT_EQ(server->breaker().state(), BreakerState::kHalfOpen);
  ASSERT_TRUE(server->Ask(session, Query(server.get())).ok());
  EXPECT_EQ(server->breaker().state(), BreakerState::kClosed);

  const std::vector<BreakerState> expected = {
      BreakerState::kClosed, BreakerState::kOpen, BreakerState::kHalfOpen,
      BreakerState::kClosed};
  EXPECT_EQ(server->breaker().transitions(), expected);
}

TEST_F(ServerOverloadTest, LatencySpikeExpiresQueuedDeadlines) {
  // An injected LLM latency spike (through the shared MockClock) makes
  // the first turn eat the whole latency budget; the turns queued behind
  // it expire in the queue and are shed as kDeadlineExceeded, while the
  // slow turn itself still completes.
  MockClock clock;
  FaultInjector::Global().SetClock(&clock);
  std::unique_ptr<Server> server =
      MakeServer(&clock, /*queue_capacity=*/8, /*breaker_threshold=*/2,
                 /*default_deadline_ms=*/50.0);
  ASSERT_NE(server, nullptr);
  const uint64_t session = server->OpenSession();

  FaultSpec slow;
  slow.code = StatusCode::kOk;  // slow but successful
  slow.latency_ms = 100.0;
  slow.max_fires = 1;
  ScopedFault fault("llm/complete", slow);

  std::atomic<int> ok_turns{0};
  std::atomic<int> deadline_sheds{0};
  AskCallback on_done = [&ok_turns, &deadline_sheds](Result<AnswerTurn> turn) {
    if (turn.ok()) {
      EXPECT_FALSE(turn.Value().items.empty());
      ++ok_turns;
    } else {
      EXPECT_EQ(turn.status().code(), StatusCode::kDeadlineExceeded);
      ++deadline_sheds;
    }
  };

  server->Suspend();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server->Submit(session, Query(server.get()), on_done).ok());
  }
  server->Resume();
  server->Shutdown();  // drain all three deterministically

  // Turn 1 started before its deadline and completed despite the spike;
  // turns 2 and 3 found the clock already past their deadlines.
  EXPECT_EQ(ok_turns.load(), 1);
  EXPECT_EQ(deadline_sheds.load(), 2);
  const ServerStatsSnapshot stats = server->stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed_deadline, 2u);
  // Two deadline expiries == breaker threshold: the overload signal
  // tripped the breaker open.
  EXPECT_EQ(server->breaker().state(), BreakerState::kOpen);
}

TEST_F(ServerOverloadTest, ShedRequestsNeverCorruptAcceptedOnes) {
  // Interleave accepted turns with shed bursts and deadline expiries,
  // then verify the survivors' retrieval results against an untouched
  // reference system: shedding must never bleed into accepted turns.
  MockClock clock;
  std::unique_ptr<Server> server =
      MakeServer(&clock, /*queue_capacity=*/2, /*breaker_threshold=*/100);
  ASSERT_NE(server, nullptr);
  const uint64_t session = server->OpenSession();

  std::vector<std::vector<uint64_t>> accepted_results;
  Mutex results_mu;
  AskCallback keep = [&accepted_results,
                      &results_mu](Result<AnswerTurn> turn) {
    ASSERT_TRUE(turn.ok()) << turn.status().ToString();
    std::vector<uint64_t> ids;
    for (const RetrievedItem& item : turn.Value().items) {
      ids.push_back(item.id);
    }
    MutexLock lock(&results_mu);
    accepted_results.push_back(std::move(ids));
  };

  for (int round = 0; round < 3; ++round) {
    server->Suspend();
    ASSERT_TRUE(server->Submit(session, Query(server.get(), 4), keep).ok());
    ASSERT_TRUE(server->Submit(session, Query(server.get(), 4), keep).ok());
    // Burst: these are shed at the door and must leave no trace.
    for (int i = 0; i < 4; ++i) {
      EXPECT_FALSE(
          server->Submit(session, Query(server.get(), 4), keep).ok());
    }
    server->Resume();
    // Drain before the next round so the queue is empty again.
    while (server->stats().completed < static_cast<uint64_t>(2 * (round + 1))) {
      std::this_thread::yield();
    }
  }
  server->Shutdown();

  ASSERT_EQ(accepted_results.size(), 6u);
  // Every accepted turn of the same repeated query retrieved the same
  // result set — sheds in between never corrupted session state.
  for (size_t i = 1; i < accepted_results.size(); ++i) {
    EXPECT_EQ(accepted_results[i], accepted_results[0]) << "turn " << i;
  }
  // And the results match an untouched reference system's answer.
  auto reference = Coordinator::Create(SmallConfig());
  ASSERT_TRUE(reference.ok());
  Coordinator::DialogueState state;
  UserQuery query;
  query.text = "show me " + (*reference)->world().ConceptName(4);
  Result<AnswerTurn> ref_turn = (*reference)->AskWithState(query, &state);
  ASSERT_TRUE(ref_turn.ok());
  std::vector<uint64_t> ref_ids;
  for (const RetrievedItem& item : ref_turn.Value().items) {
    ref_ids.push_back(item.id);
  }
  EXPECT_EQ(accepted_results[0], ref_ids);
}

}  // namespace
}  // namespace mqa
