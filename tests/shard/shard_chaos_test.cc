#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "core/coordinator.h"
#include "shard/sharded_retrieval.h"
#include "shard_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::BruteForceIndex;
using ::mqa::testing::MakeSharded;
using ::mqa::testing::PrepareShardCorpus;

/// Chaos suite of the sharded fan-out. Every test runs on a MockClock —
/// injected latency spikes and breaker cool-downs advance virtual time
/// only; the suite performs zero real sleeps.
///
/// The soak job (chaos-soak.yml) cranks the iteration count and rotates
/// the fault schedule through MQA_CHAOS_ITERS / MQA_CHAOS_SEED.
class ShardChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new ExperimentCorpus(PrepareShardCorpus());
    ASSERT_NE(corpus_->kb, nullptr);
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().Seed(ChaosSeed());
    FaultInjector::Global().SetClock(&clock_);
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().SetClock(nullptr);
  }

  static uint64_t ChaosSeed() {
    const char* s = std::getenv("MQA_CHAOS_SEED");
    return s != nullptr ? std::strtoull(s, nullptr, 10) : 42;
  }
  static int ChaosIters(int base) {
    const char* s = std::getenv("MQA_CHAOS_ITERS");
    const int mult = s != nullptr ? std::atoi(s) : 1;
    return base * std::max(1, mult);
  }

  /// Deterministic chaos baseline: sequential fan-out (one pool thread)
  /// driven by the suite's MockClock.
  ShardOptions ChaosOptions(size_t num_shards, size_t quorum) {
    ShardOptions options;
    options.num_shards = num_shards;
    options.quorum = quorum;
    options.fanout_threads = 1;
    options.clock = &clock_;
    return options;
  }

  RetrievalQuery Query(uint32_t concept_id, uint64_t seed = 1) {
    Rng rng(seed);
    const TextQuery q = corpus_->world->MakeTextQuery(concept_id, &rng);
    auto rq = EncodeTextQuery(*corpus_, q.text);
    EXPECT_TRUE(rq.ok());
    return std::move(rq).Value();
  }

  static SearchParams Params(uint32_t k = 10) {
    SearchParams params;
    params.k = k;
    params.beam_width = 64;
    return params;
  }

  MockClock clock_;
  static ExperimentCorpus* corpus_;
};

ExperimentCorpus* ShardChaosTest::corpus_ = nullptr;

TEST_F(ShardChaosTest, KillingKOfNShardsDegradesWithExactAccounting) {
  auto fw = MakeSharded(*corpus_, ChaosOptions(4, 2), BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  ScopedFault f0("shard/0/search");
  ScopedFault f1("shard/1/search");

  auto result = (*fw)->Retrieve(Query(0), Params());
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->stats.shards_total, 4u);
  EXPECT_EQ(result->stats.shards_ok, 2u);

  const FanoutReport& report = (*fw)->last_report();
  ASSERT_EQ(report.shards.size(), 4u);
  EXPECT_EQ(report.ok_count, 2u);
  EXPECT_EQ(report.shards[0].kind, ShardOutcomeKind::kError);
  EXPECT_EQ(report.shards[1].kind, ShardOutcomeKind::kError);
  EXPECT_EQ(report.shards[2].kind, ShardOutcomeKind::kOk);
  EXPECT_EQ(report.shards[3].kind, ShardOutcomeKind::kOk);
  EXPECT_EQ(FaultInjector::Global().stats("shard/0/search").fires, 1u);

  // Every merged id comes from a surviving shard.
  std::vector<uint32_t> survivors;
  for (size_t s : {size_t{2}, size_t{3}}) {
    const auto& gids = (*fw)->shard_global_ids(s);
    survivors.insert(survivors.end(), gids.begin(), gids.end());
  }
  for (const Neighbor& n : result->neighbors) {
    EXPECT_NE(std::find(survivors.begin(), survivors.end(), n.id),
              survivors.end())
        << "id " << n.id << " came from a killed shard";
  }
}

TEST_F(ShardChaosTest, MissedQuorumFailsWithUnavailable) {
  auto fw = MakeSharded(*corpus_, ChaosOptions(3, 2), BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  ScopedFault f0("shard/0/search");
  ScopedFault f1("shard/1/search");
  ScopedFault f2("shard/2/search");

  auto result = (*fw)->Retrieve(Query(1), Params());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("quorum"), std::string::npos);
  EXPECT_EQ((*fw)->last_report().ok_count, 0u);
}

TEST_F(ShardChaosTest, BreakerIsolatesFlappingShardAndRecovers) {
  ShardOptions options = ChaosOptions(3, 1);
  options.breaker_failure_threshold = 2;
  options.breaker_open_ms = 100.0;
  options.breaker_half_open_successes = 1;
  auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
  ASSERT_TRUE(fw.ok());

  {
    ScopedFault flap("shard/1/search");
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE((*fw)->Retrieve(Query(2), Params()).ok());
      EXPECT_EQ((*fw)->last_report().shards[1].kind,
                ShardOutcomeKind::kError);
    }
    EXPECT_EQ((*fw)->shard_breaker_state(1), BreakerState::kOpen);

    // While open the shard is skipped outright: the fault point is not
    // even consulted — no retry pressure on the known-bad domain.
    ASSERT_TRUE((*fw)->Retrieve(Query(2), Params()).ok());
    EXPECT_EQ((*fw)->last_report().shards[1].kind,
              ShardOutcomeKind::kBreakerOpen);
    EXPECT_EQ(FaultInjector::Global().stats("shard/1/search").fires, 2u);
  }

  // Shard healed + cool-down elapsed: the half-open probe succeeds and the
  // shard rejoins the merge.
  clock_.AdvanceMillis(150.0);
  auto result = (*fw)->Retrieve(Query(2), Params());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*fw)->last_report().shards[1].kind, ShardOutcomeKind::kOk);
  EXPECT_EQ((*fw)->shard_breaker_state(1), BreakerState::kClosed);
  EXPECT_EQ(result->stats.shards_ok, 3u);
}

TEST_F(ShardChaosTest, SlowShardIsSearchedOnceAndMerged) {
  auto fw = MakeSharded(*corpus_, ChaosOptions(4, 1), BruteForceIndex());
  ASSERT_TRUE(fw.ok());
  const RetrievalQuery rq = Query(3);
  auto clean = (*fw)->Retrieve(rq, Params());
  ASSERT_TRUE(clean.ok());

  // Warm-up fan-outs pass shard 0's fault point untouched; the one after
  // them stalls for 500 virtual ms and still answers.
  constexpr uint64_t kWarmup = 16;
  FaultSpec spike;
  spike.code = StatusCode::kOk;
  spike.latency_ms = 500.0;
  spike.skip_first = kWarmup;
  ScopedFault slow("shard/0/search", spike);
  for (uint64_t i = 0; i < kWarmup; ++i) {
    ASSERT_TRUE((*fw)->Retrieve(rq, Params()).ok());
  }
  auto result = (*fw)->Retrieve(rq, Params());
  ASSERT_TRUE(result.ok());

  // The slow shard was searched once per fan-out and merged like the
  // others: the result is the fault-free one.
  const FaultPointStats stats = FaultInjector::Global().stats("shard/0/search");
  EXPECT_EQ(stats.fires, 1u);
  EXPECT_EQ(stats.hits, kWarmup + 1);
  EXPECT_EQ(result->stats.shards_ok, result->stats.shards_total);
  EXPECT_EQ((*fw)->last_report().shards[0].kind, ShardOutcomeKind::kOk);
  ASSERT_EQ(result->neighbors.size(), clean->neighbors.size());
  for (size_t i = 0; i < clean->neighbors.size(); ++i) {
    EXPECT_EQ(result->neighbors[i].id, clean->neighbors[i].id) << i;
    EXPECT_EQ(result->neighbors[i].distance, clean->neighbors[i].distance)
        << i;
  }
}

TEST_F(ShardChaosTest, FaultScheduleIsDeterministicUnderSeed) {
  const int iters = ChaosIters(20);
  auto run_schedule = [&](std::vector<std::string>* kinds) {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().Seed(ChaosSeed());
    ShardOptions options = ChaosOptions(4, 1);
    options.breaker_failure_threshold = 3;
    options.breaker_open_ms = 5.0;
    auto fw = MakeSharded(*corpus_, options, BruteForceIndex());
    ASSERT_TRUE(fw.ok());
    FaultSpec flaky;
    flaky.probability = 0.4;
    std::vector<std::unique_ptr<ScopedFault>> faults;
    for (int s = 0; s < 4; ++s) {
      faults.push_back(std::make_unique<ScopedFault>(
          "shard/" + std::to_string(s) + "/search", flaky));
    }
    for (int i = 0; i < iters; ++i) {
      auto result = (*fw)->Retrieve(Query(i % 8, /*seed=*/i), Params());
      std::string row = result.ok() ? "ok" : "quorum-miss";
      for (const ShardOutcome& o : (*fw)->last_report().shards) {
        row += std::string(":") + ShardOutcomeKindToString(o.kind);
      }
      kinds->push_back(std::move(row));
      clock_.AdvanceMillis(1.0);
    }
  };
  std::vector<std::string> first, second;
  run_schedule(&first);
  run_schedule(&second);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second) << "same seed must give the same fault schedule";
}

/// End-to-end (satellite): every shard down -> the coordinator still
/// answers, degraded, with the retrieval outage and shard coverage on the
/// turn's degradation notes (the "[!]" status-event path).
class ShardCoordinatorChaosTest : public ShardChaosTest {
 protected:
  MqaConfig ShardedConfig() {
    MqaConfig config;
    config.world.num_concepts = 12;
    config.world.latent_dim = 16;
    config.world.raw_image_dim = 32;
    config.world.seed = 5;
    config.corpus_size = 400;
    config.embedding_dim = 16;
    config.num_training_triplets = 300;
    config.index.algorithm = "mqa-hybrid";
    config.index.graph.max_degree = 12;
    config.search.k = 5;
    config.search.beam_width = 48;
    config.shard.enable = true;
    config.shard.num_shards = 3;
    config.shard.quorum = 2;
    config.shard.fanout_threads = 1;
    config.resilience.enable = true;
    return config;
  }
};

TEST_F(ShardCoordinatorChaosTest, AllShardsDownStillAnswersDegraded) {
  auto coordinator = Coordinator::Create(ShardedConfig());
  ASSERT_TRUE(coordinator.ok());
  ScopedFault f0("shard/0/search");
  ScopedFault f1("shard/1/search");
  ScopedFault f2("shard/2/search");

  UserQuery query;
  query.text = "a red object";
  auto turn = (*coordinator)->Ask(query);
  ASSERT_TRUE(turn.ok()) << turn.status().message();
  EXPECT_TRUE(turn->degraded);
  EXPECT_TRUE(turn->items.empty());
  EXPECT_FALSE(turn->answer.empty());
  bool noted = false;
  for (const std::string& note : turn->degradation_notes) {
    if (note.find("retrieval unavailable") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << "missing retrieval-outage degradation note";
}

TEST_F(ShardCoordinatorChaosTest, PartialCoverageSurfacesOnTheTurn) {
  auto coordinator = Coordinator::Create(ShardedConfig());
  ASSERT_TRUE(coordinator.ok());
  ScopedFault f0("shard/0/search");

  UserQuery query;
  query.text = "a red object";
  auto turn = (*coordinator)->Ask(query);
  ASSERT_TRUE(turn.ok()) << turn.status().message();
  EXPECT_TRUE(turn->degraded);
  EXPECT_FALSE(turn->items.empty());
  bool noted = false;
  for (const std::string& note : turn->degradation_notes) {
    if (note.find("shard coverage 2/3") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << "missing shard-coverage degradation note";
}

TEST_F(ShardCoordinatorChaosTest, TurnWithDeadlineMergesSlowShard) {
  MqaConfig config = ShardedConfig();
  config.resilience.clock = &clock_;
  auto coordinator = Coordinator::Create(config);
  ASSERT_TRUE(coordinator.ok());
  UserQuery query;
  query.text = "a red object";
  Coordinator::DialogueState clean_state;
  auto clean = (*coordinator)->AskWithState(query, &clean_state);
  ASSERT_TRUE(clean.ok()) << clean.status().message();

  // Shard 0 answers 500 virtual ms into a turn with a 100 ms budget. The
  // deadline is checked once, before execution; the fan-out still waits
  // for and merges every shard it searched.
  FaultSpec slow;
  slow.code = StatusCode::kOk;
  slow.latency_ms = 500.0;
  ScopedFault fault("shard/0/search", slow);
  query.deadline_micros = clock_.NowMicros() + 100'000;
  Coordinator::DialogueState state;
  auto turn = (*coordinator)->AskWithState(query, &state);
  ASSERT_TRUE(turn.ok()) << turn.status().message();
  EXPECT_EQ(FaultInjector::Global().stats("shard/0/search").hits, 1u);
  EXPECT_EQ(turn->retrieval.stats.shards_ok, 3u);
  EXPECT_EQ(turn->retrieval.stats.shards_total, 3u);
  EXPECT_FALSE(turn->degraded);
  ASSERT_EQ(turn->items.size(), clean->items.size());
  for (size_t i = 0; i < clean->items.size(); ++i) {
    EXPECT_EQ(turn->items[i].id, clean->items[i].id) << i;
  }
}

}  // namespace
}  // namespace mqa
