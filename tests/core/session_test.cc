#include "core/session.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto c = Coordinator::Create(SmallConfig());
    ASSERT_TRUE(c.ok());
    coordinator_ = c->release();
  }
  static void TearDownTestSuite() {
    delete coordinator_;
    coordinator_ = nullptr;
  }

  static Coordinator* coordinator_;
};

Coordinator* SessionTest::coordinator_ = nullptr;

TEST_F(SessionTest, TwoRoundRefinementFlow) {
  Session session(coordinator_);
  const std::string concept_name = coordinator_->world().ConceptName(0);
  auto t1 = session.Ask("i would like some images of " + concept_name);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(session.rounds(), 1u);
  ASSERT_FALSE(session.last_results().empty());
  EXPECT_FALSE(session.selection().has_value());

  ASSERT_TRUE(session.Select(0).ok());
  EXPECT_EQ(session.selection(), session.last_results()[0].id);

  auto t2 = session.Ask("more like this one please");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(session.rounds(), 2u);
  EXPECT_FALSE(t2->items.empty());
  session.Reset();
}

TEST_F(SessionTest, SelectValidatesRank) {
  Session session(coordinator_);
  EXPECT_FALSE(session.Select(0).ok());  // nothing retrieved yet
  auto t1 = session.Ask("find " + coordinator_->world().ConceptName(1));
  ASSERT_TRUE(t1.ok());
  EXPECT_TRUE(session.Select(t1->items.size() - 1).ok());
  EXPECT_FALSE(session.Select(t1->items.size()).ok());
  session.Reset();
}

TEST_F(SessionTest, AskWithImageUsesUpload) {
  Session session(coordinator_);
  // "Upload" an image taken from a knowledge-base object of concept 2.
  uint64_t source = 0;
  for (const Object& obj : coordinator_->kb().objects()) {
    if (obj.concept_id == 2u) {
      source = obj.id;
      break;
    }
  }
  const Payload image = coordinator_->kb().at(source).modalities[0];
  auto turn = session.AskWithImage("find more items like this", image);
  ASSERT_TRUE(turn.ok());
  ASSERT_FALSE(turn->items.empty());
  size_t matching = 0;
  for (const RetrievedItem& item : turn->items) {
    if (coordinator_->kb().at(item.id).concept_id == 2u) ++matching;
  }
  EXPECT_GE(matching, 3u);
  session.Reset();
}

TEST_F(SessionTest, ResetClearsEverything) {
  Session session(coordinator_);
  ASSERT_TRUE(
      session.Ask("find " + coordinator_->world().ConceptName(3)).ok());
  ASSERT_TRUE(session.Select(0).ok());
  session.Reset();
  EXPECT_EQ(session.rounds(), 0u);
  EXPECT_TRUE(session.last_results().empty());
  EXPECT_FALSE(session.selection().has_value());
}

TEST_F(SessionTest, SelectionPersistsAcrossRounds) {
  Session session(coordinator_);
  ASSERT_TRUE(
      session.Ask("find " + coordinator_->world().ConceptName(4)).ok());
  ASSERT_TRUE(session.Select(0).ok());
  const uint64_t selected = *session.selection();
  ASSERT_TRUE(session.Ask("make it different").ok());
  EXPECT_EQ(session.selection(), selected);  // still active
  session.Reset();
}

TEST_F(SessionTest, SessionsOverOneCoordinatorKeepSeparateDialogues) {
  Session a(coordinator_);
  ASSERT_TRUE(a.Ask("find " + coordinator_->world().ConceptName(1)).ok());

  // B's vague opener has no topic of its own, and must not borrow A's.
  coordinator_->monitor().Clear();
  Session b(coordinator_);
  ASSERT_TRUE(b.Ask("show me more").ok());
  EXPECT_EQ(coordinator_->monitor().Render().find("rewrote vague query"),
            std::string::npos);
  EXPECT_EQ(a.dialogue().prompt.history_size(), 1u);
  EXPECT_EQ(b.dialogue().prompt.history_size(), 1u);

  // Resetting B leaves A's conversation intact: A's own vague follow-up is
  // still resolved from A's topic.
  b.Reset();
  EXPECT_EQ(b.dialogue().prompt.history_size(), 0u);
  EXPECT_EQ(a.dialogue().prompt.history_size(), 1u);
  coordinator_->monitor().Clear();
  ASSERT_TRUE(a.Ask("show me more").ok());
  EXPECT_NE(coordinator_->monitor().Render().find("rewrote vague query"),
            std::string::npos);
  EXPECT_EQ(a.dialogue().prompt.history_size(), 2u);
}

/// One Session's results per round: ids and distances.
using RoundResults = std::vector<std::vector<std::pair<uint64_t, float>>>;

/// A four-round dialogue on concept `concept_id`: ask, click the top
/// result, refine by it, then a vague follow-up.
RoundResults RunScript(Coordinator* coordinator, uint32_t concept_id) {
  Session session(coordinator);
  RoundResults rounds;
  auto record = [&rounds](const Result<AnswerTurn>& turn) {
    EXPECT_TRUE(turn.ok()) << turn.status().ToString();
    rounds.emplace_back();
    if (!turn.ok()) return;
    for (const RetrievedItem& item : turn->items) {
      rounds.back().emplace_back(item.id, item.distance);
    }
  };
  record(session.Ask("i would like some images of " +
                     coordinator->world().ConceptName(concept_id)));
  EXPECT_TRUE(session.Select(0).ok());
  record(session.Ask("more like this one please"));
  record(session.Ask("make it different"));
  record(session.Ask("show me more"));
  return rounds;
}

TEST_F(SessionTest, ConcurrentSessionsMatchSequentialReference) {
  constexpr uint32_t kThreads = 4;
  std::vector<RoundResults> reference;
  for (uint32_t t = 0; t < kThreads; ++t) {
    reference.push_back(RunScript(coordinator_, t));
  }

  std::vector<RoundResults> concurrent(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&concurrent, t] { concurrent[t] = RunScript(coordinator_, t); });
  }
  for (std::thread& thread : threads) thread.join();

  for (uint32_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(concurrent[t].size(), reference[t].size()) << "session " << t;
    for (size_t r = 0; r < reference[t].size(); ++r) {
      EXPECT_FALSE(reference[t][r].empty()) << "session " << t;
      EXPECT_EQ(concurrent[t][r], reference[t][r])
          << "session " << t << " round " << r;
    }
  }
}

}  // namespace
}  // namespace mqa
