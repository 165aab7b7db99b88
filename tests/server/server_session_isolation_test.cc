#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "server/server.h"
#include "../core/core_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

std::vector<uint64_t> Ids(const std::vector<RetrievedItem>& items) {
  std::vector<uint64_t> ids;
  ids.reserve(items.size());
  for (const RetrievedItem& item : items) ids.push_back(item.id);
  return ids;
}

/// Regression suite for cross-session leakage: concurrent interleaved
/// sessions must keep their dialogue history, vague-query context and
/// comparative-round selections strictly private.
class SessionIsolationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    clock_ = new MockClock();
    MqaConfig config = SmallConfig();
    config.serving.num_workers = 3;
    config.serving.max_batch = 4;
    config.serving.clock = clock_;
    auto server = Server::Create(config);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server->release();
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete clock_;
    clock_ = nullptr;
  }

  static MockClock* clock_;
  static Server* server_;
};

MockClock* SessionIsolationTest::clock_ = nullptr;
Server* SessionIsolationTest::server_ = nullptr;

TEST_F(SessionIsolationTest, InterleavedSessionsKeepPrivateHistory) {
  const uint64_t a = server_->OpenSession();
  const uint64_t b = server_->OpenSession();
  const std::string concept_a = server_->coordinator()->world().ConceptName(0);
  const std::string concept_b = server_->coordinator()->world().ConceptName(3);

  UserQuery qa;
  qa.text = "show me " + concept_a;
  UserQuery qb;
  qb.text = "show me " + concept_b;

  // Interleave: A, B, A, B.
  ASSERT_TRUE(server_->Ask(a, qa).ok());
  ASSERT_TRUE(server_->Ask(b, qb).ok());
  Result<AnswerTurn> a2 = server_->Ask(a, qa);
  Result<AnswerTurn> b2 = server_->Ask(b, qb);
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(b2.ok());

  // Histories advanced independently: two turns each, not four.
  EXPECT_EQ(server_->DialogueHistorySize(a).Value(), 2u);
  EXPECT_EQ(server_->DialogueHistorySize(b).Value(), 2u);

  // A vague follow-up resolves against *this* session's history, even
  // though the other session asked about a different concept in between.
  UserQuery vague;
  vague.text = "show me more";
  Result<AnswerTurn> more_b = server_->Ask(b, vague);
  ASSERT_TRUE(more_b.ok());
  ASSERT_FALSE(more_b.Value().items.empty());
  size_t matching = 0;
  for (const RetrievedItem& item : more_b.Value().items) {
    if (server_->coordinator()->kb().at(item.id).concept_id == 3u) ++matching;
  }
  EXPECT_GE(matching, 3u) << "session B's follow-up drifted to another "
                             "session's topic";

  EXPECT_TRUE(server_->CloseSession(a).ok());
  EXPECT_TRUE(server_->CloseSession(b).ok());
}

TEST_F(SessionIsolationTest, SelectionsDoNotLeakBetweenSessions) {
  const uint64_t a = server_->OpenSession();
  const uint64_t b = server_->OpenSession();
  UserQuery qa;
  qa.text = "show me " + server_->coordinator()->world().ConceptName(1);
  UserQuery qb;
  qb.text = "show me " + server_->coordinator()->world().ConceptName(5);
  ASSERT_TRUE(server_->Ask(a, qa).ok());
  ASSERT_TRUE(server_->Ask(b, qb).ok());

  // A selects (comparative-round feedback); B's next turn must not become
  // image-assisted by A's click.
  ASSERT_TRUE(server_->Select(a, 0).ok());
  const std::vector<uint64_t> b_before = Ids(server_->LastResults(b).Value());
  Result<AnswerTurn> b2 = server_->Ask(b, qb);
  ASSERT_TRUE(b2.ok());
  // Same query, same session state => same results: A's selection did not
  // perturb B's retrieval.
  EXPECT_EQ(Ids(b2.Value().items), b_before);

  // A's selection applies to A's own next turn, and is then consumed.
  const uint64_t selected = server_->LastResults(a).Value()[0].id;
  UserQuery follow;
  follow.text = "more like this one";
  Result<AnswerTurn> a2 = server_->Ask(a, follow);
  ASSERT_TRUE(a2.ok());
  ASSERT_FALSE(a2.Value().items.empty());
  const uint32_t sel_concept =
      server_->coordinator()->kb().at(selected).concept_id;
  size_t matching = 0;
  for (const RetrievedItem& item : a2.Value().items) {
    if (server_->coordinator()->kb().at(item.id).concept_id == sel_concept) {
      ++matching;
    }
  }
  EXPECT_GE(matching, 3u);

  EXPECT_TRUE(server_->CloseSession(a).ok());
  EXPECT_TRUE(server_->CloseSession(b).ok());
}

TEST_F(SessionIsolationTest, ResetSessionClearsOnlyThatSession) {
  const uint64_t a = server_->OpenSession();
  const uint64_t b = server_->OpenSession();
  UserQuery query;
  query.text = "show me " + server_->coordinator()->world().ConceptName(2);
  ASSERT_TRUE(server_->Ask(a, query).ok());
  ASSERT_TRUE(server_->Ask(b, query).ok());
  ASSERT_TRUE(server_->ResetSession(a).ok());
  EXPECT_EQ(server_->DialogueHistorySize(a).Value(), 0u);
  EXPECT_EQ(server_->DialogueHistorySize(b).Value(), 1u);
  EXPECT_TRUE(server_->LastResults(a).Value().empty());
  EXPECT_FALSE(server_->LastResults(b).Value().empty());
  EXPECT_TRUE(server_->CloseSession(a).ok());
  EXPECT_TRUE(server_->CloseSession(b).ok());
}

TEST_F(SessionIsolationTest, ConcurrentSessionsMatchSequentialReference) {
  // Equivalence under concurrency *and* batching: the same per-session
  // query streams produce bit-identical retrieval results whether they
  // run interleaved through the batched server or sequentially against a
  // fresh identically-configured system. Each session but the first
  // re-weights the modalities its own way, so batches running in parallel
  // mix different weights.
  constexpr size_t kSessions = 4;
  constexpr size_t kTurns = 3;
  const size_t num_modalities =
      server_->coordinator()->framework()->weights().size();
  auto weights_for = [num_modalities](size_t s) {
    std::vector<float> w;
    if (s == 0) return w;  // the framework's own weights
    w.assign(num_modalities, 0.5f);
    w[s % num_modalities] = 1.0f + static_cast<float>(s);
    return w;
  };
  std::vector<uint64_t> sessions(kSessions);
  for (size_t s = 0; s < kSessions; ++s) sessions[s] = server_->OpenSession();

  std::vector<std::vector<std::vector<uint64_t>>> concurrent(
      kSessions, std::vector<std::vector<uint64_t>>(kTurns));
  std::vector<std::thread> clients;
  for (size_t s = 0; s < kSessions; ++s) {
    clients.emplace_back([&sessions, &concurrent, &weights_for, s] {
      for (size_t t = 0; t < kTurns; ++t) {
        UserQuery query;
        query.text = "show me " + server_->coordinator()->world().ConceptName(
                                      static_cast<uint32_t>(s + 2));
        query.weight_override = weights_for(s);
        Result<AnswerTurn> turn = server_->Ask(sessions[s], query);
        ASSERT_TRUE(turn.ok()) << turn.status().ToString();
        concurrent[s][t] = Ids(turn.Value().items);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_TRUE(server_->CloseSession(sessions[s]).ok());
  }

  // Sequential reference: a second system built from the same seeded
  // config, one DialogueState per simulated session, no server, no
  // batching, no concurrency.
  auto reference = Coordinator::Create(SmallConfig());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t s = 0; s < kSessions; ++s) {
    Coordinator::DialogueState state;
    for (size_t t = 0; t < kTurns; ++t) {
      UserQuery query;
      query.text = "show me " + (*reference)->world().ConceptName(
                                    static_cast<uint32_t>(s + 2));
      query.weight_override = weights_for(s);
      Result<AnswerTurn> turn = (*reference)->AskWithState(query, &state);
      ASSERT_TRUE(turn.ok()) << turn.status().ToString();
      EXPECT_EQ(Ids(turn.Value().items), concurrent[s][t])
          << "batched/concurrent retrieval diverged from the sequential "
             "reference at session "
          << s << " turn " << t;
    }
  }
}

}  // namespace
}  // namespace mqa
