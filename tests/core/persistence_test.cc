// Full-system persistence: save a built system, reopen it without
// re-encoding or rebuilding, and keep answering identically.

#include "core/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <unistd.h>
#include <utility>

#include "common/string_util.h"
#include "core/config_parser.h"
#include "core_test_util.h"
#include "vector/simd/simd.h"

namespace mqa {
namespace {

using ::mqa::testing::SmallConfig;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mqa_persist_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PersistenceTest, SaveLoadRoundTripsAnswers) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 400;
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());
  for (const char* file : {"config.txt", "kb.bin", "store.bin",
                           "weights.txt", "index.bin"}) {
    EXPECT_TRUE(std::filesystem::exists(dir_ / file)) << file;
  }

  auto restored = LoadSystemState(dir_.string());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->kb().size(), 400u);
  EXPECT_EQ((*restored)->weights(), (*original)->weights());
  // The index was restored, not rebuilt.
  EXPECT_NE((*restored)->monitor().Render().find("restored index from disk"),
            std::string::npos);

  // Identical queries produce identical retrievals.
  UserQuery query;
  query.text = "find " + (*original)->world().ConceptName(2);
  auto a = (*original)->Ask(query);
  auto b = (*restored)->Ask(query);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->items.size(), b->items.size());
  for (size_t i = 0; i < a->items.size(); ++i) {
    EXPECT_EQ(a->items[i].id, b->items[i].id);
  }
}

TEST_F(PersistenceTest, RestoredSystemSupportsLiveIngestion) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 300;
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());
  auto restored = LoadSystemState(dir_.string());
  ASSERT_TRUE(restored.ok());
  Rng rng(1);
  auto id =
      (*restored)->IngestObject((*restored)->world().MakeObject(0, &rng));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ((*restored)->kb().size(), 301u);
}

TEST_F(PersistenceTest, HnswSystemsRebuildOnLoad) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 300;
  config.index.algorithm = "hnsw";
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());
  EXPECT_FALSE(std::filesystem::exists(dir_ / "index.bin"));
  auto restored = LoadSystemState(dir_.string());
  ASSERT_TRUE(restored.ok());
  EXPECT_NE((*restored)->monitor().Render().find("rebuilt index hnsw"),
            std::string::npos);
  UserQuery query;
  query.text = "find " + (*restored)->world().ConceptName(1);
  EXPECT_TRUE((*restored)->Ask(query).ok());
}

TEST_F(PersistenceTest, LoadRejectsMissingOrCorruptedFiles) {
  EXPECT_FALSE(LoadSystemState((dir_ / "nonexistent").string()).ok());

  MqaConfig config = SmallConfig();
  config.corpus_size = 200;
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());
  // Corrupt the store.
  {
    std::ofstream out(dir_ / "store.bin", std::ios::binary);
    out << "corrupted";
  }
  EXPECT_FALSE(LoadSystemState(dir_.string()).ok());
}

TEST_F(PersistenceTest, SavedConfigWithRetiredShardKeysLoads) {
  MqaConfig config = SmallConfig();
  config.corpus_size = 200;
  auto original = Coordinator::Create(config);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());
  // The keys a config.txt written before shard hedging and deadline slices
  // were removed still holds.
  {
    std::ofstream out(dir_ / "config.txt", std::ios::app);
    out << "shard.hedge_percentile = 95\n"
        << "shard.hedge_min_samples = 16\n"
        << "shard.deadline_fraction = 0.5\n";
  }
  auto restored = LoadSystemState(dir_.string());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->kb().size(), 200u);
  UserQuery query;
  query.text = "find " + (*restored)->world().ConceptName(1);
  EXPECT_TRUE((*restored)->Ask(query).ok());

  // Saving the restored system writes a config.txt without them.
  const std::filesystem::path resaved = dir_ / "resaved";
  ASSERT_TRUE(SaveSystemState(**restored, resaved.string()).ok());
  std::ifstream in(resaved / "config.txt");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("corpus_size = 200"), std::string::npos);
  EXPECT_EQ(text.find("hedge"), std::string::npos);
  EXPECT_EQ(text.find("deadline_fraction"), std::string::npos);
}

TEST_F(PersistenceTest, ConfigTextRoundTrips) {
  MqaConfig config = SmallConfig();
  config.framework = "je";
  config.temperature = 0.75f;
  config.rewrite_vague_queries = false;
  auto parsed = ParseMqaConfigText(MqaConfigToText(config));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->framework, "je");
  EXPECT_NEAR(parsed->temperature, 0.75f, 1e-3);
  EXPECT_FALSE(parsed->rewrite_vague_queries);
  EXPECT_EQ(parsed->corpus_size, config.corpus_size);
  EXPECT_EQ(parsed->world.num_concepts, config.world.num_concepts);
}

std::set<std::string> ConfigLines(const std::string& text) {
  std::set<std::string> lines;
  for (const std::string& line : Split(text, '\n')) {
    if (!line.empty()) lines.insert(line);
  }
  return lines;
}

TEST(ConfigTextTest, EveryKeyRoundTripsExactly) {
  // Every key the parser accepts, each set to a non-default value written
  // the way MqaConfigToText prints it.
  const std::vector<std::pair<std::string, std::string>> keys = {
      {"enable_knowledge_base", "false"},
      {"corpus_size", "1234"},
      {"kb_name", "my-kb"},
      {"encoder", "sim-resnet-lstm"},
      {"embedding_dim", "24"},
      {"learn_weights", "false"},
      {"training_triplets", "321"},
      {"index.algorithm", "hnsw"},
      {"index.max_degree", "20"},
      {"index.build_beam", "80"},
      {"index.alpha", "1.3"},
      {"index.sketch_prefilter", "true"},
      {"index.sketch_scale", "1.5"},
      {"simd.level", "scalar"},
      {"framework", "je"},
      {"search.k", "7"},
      {"search.beam_width", "96"},
      {"rewrite_vague_queries", "false"},
      {"llm", "none"},
      {"temperature", "0.123456"},
      {"resilience.enable", "true"},
      {"resilience.llm_max_attempts", "5"},
      {"resilience.llm_backoff_ms", "12.3456789"},
      {"resilience.llm_deadline_ms", "250.5"},
      {"resilience.breaker_threshold", "7"},
      {"resilience.breaker_open_ms", "1500.25"},
      {"resilience.encoder_max_attempts", "4"},
      {"resilience.io_error_budget", "3"},
      {"serving.num_workers", "8"},
      {"serving.queue_capacity", "128"},
      {"serving.default_deadline_ms", "250"},
      {"serving.enable_batching", "false"},
      {"serving.max_batch", "16"},
      {"serving.batch_flush_slack_ms", "2.5"},
      {"serving.breaker_threshold", "4"},
      {"serving.breaker_open_ms", "750"},
      {"shard.enable", "true"},
      {"shard.num_shards", "8"},
      {"shard.quorum", "5"},
      {"shard.partition", "hash"},
      {"shard.fanout_threads", "2"},
      {"shard.breaker_threshold", "3"},
      {"shard.breaker_open_ms", "250"},
      {"observability.trace_turns", "false"},
      {"observability.explain_turns", "true"},
      {"observability.trace_build", "false"},
      {"seed", "777"},
      {"world.num_concepts", "9"},
      {"world.latent_dim", "48"},
      {"world.seed", "5"},
      {"world.raw_image_dim", "100"},
      {"world.words_per_concept", "6"},
      {"world.adjectives_per_noun", "3"},
      {"world.extra_modalities", "1"},
      {"world.object_noise", "0.2"},
      {"world.adjective_dropout", "0.05"},
      {"world.image_noise", "0.07"},
      {"world.text_noise", "0.3"},
  };
  std::string text;
  std::set<std::string> expected;
  const std::set<std::string> defaults =
      ConfigLines(MqaConfigToText(MqaConfig{}));
  for (const auto& [key, value] : keys) {
    const std::string line = key + " = " + value;
    text += line + "\n";
    expected.insert(line);
    EXPECT_EQ(defaults.count(line), 0u) << "default value: " << line;
  }
  auto config = ParseMqaConfigText(text);
  ASSERT_TRUE(config.ok()) << config.status().ToString();

  // The printer writes every key, with exactly the value that was set.
  const std::string printed = MqaConfigToText(*config);
  EXPECT_EQ(ConfigLines(printed), expected);

  auto again = ParseMqaConfigText(printed);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(MqaConfigToText(*again), printed);
  // Floats come back bit for bit, and coupled fields as the keys set them.
  EXPECT_EQ(again->temperature, 0.123456f);
  EXPECT_EQ(again->index.graph.alpha, 1.3f);
  EXPECT_EQ(again->resilience.llm_initial_backoff_ms, 12.3456789);
  EXPECT_EQ(again->world.modality_noise, (std::vector<float>{0.07f, 0.3f}));
  EXPECT_EQ(again->seed, 777u);
  EXPECT_EQ(again->world.seed, 5u);
  EXPECT_EQ(again->index.hnsw.m, 10u);
  EXPECT_EQ(again->index.hnsw.ef_construction, 80u);
}

struct RestoreCase {
  const char* name;
  const char* algorithm;
  bool sketch_prefilter;
  bool sharded;
};

void PrintTo(const RestoreCase& rc, std::ostream* os) { *os << rc.name; }

class RestoreEquivalenceTest
    : public ::testing::TestWithParam<RestoreCase> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mqa_restore_" + std::to_string(::getpid()) + "_" +
            GetParam().name);
    std::filesystem::create_directories(dir_);
    simd_before_ = ActiveSimdLevel();
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(SetSimdLevel(simd_before_).ok());
  }

  std::filesystem::path dir_;
  SimdLevel simd_before_ = SimdLevel::kScalar;
};

TEST_P(RestoreEquivalenceTest, LoadedSystemMatchesTheSavedOne) {
  const RestoreCase& rc = GetParam();
  MqaConfig config = SmallConfig();
  config.corpus_size = 400;
  config.index.algorithm = rc.algorithm;
  config.index.sketch_prefilter = rc.sketch_prefilter;
  config.shard.enable = rc.sharded;
  config.shard.num_shards = 2;
  config.simd_level = "scalar";
  // The saved system starts from the config text, as the configuration
  // panel's does: the text form derives hnsw.m and hnsw.ef_construction
  // from index.max_degree and index.build_beam.
  auto text_config = ParseMqaConfigText(MqaConfigToText(config));
  ASSERT_TRUE(text_config.ok()) << text_config.status().ToString();
  auto original = Coordinator::Create(*text_config);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  ASSERT_TRUE(SaveSystemState(**original, dir_.string()).ok());

  // Loading must pin the kernels again, whatever is active meanwhile.
  ASSERT_TRUE(SetSimdLevel(DetectedSimdLevel()).ok());
  auto restored = LoadSystemState(dir_.string());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_EQ((*restored)->framework()->name(),
            (*original)->framework()->name());

  // Text, click-feedback and weight-override turns, in the same order on
  // both systems (the dialogue state evolves identically).
  std::vector<UserQuery> queries;
  for (uint32_t c = 0; c < 3; ++c) {
    UserQuery text;
    text.text = "find " + (*original)->world().ConceptName(c);
    queries.push_back(text);
    UserQuery feedback;
    feedback.text = "more like this one";
    feedback.selected_object = 7 * c + 1;
    queries.push_back(feedback);
    UserQuery weighted = text;
    weighted.weight_override = {1.8f, 0.2f};
    queries.push_back(weighted);
  }
  for (const UserQuery& q : queries) {
    auto a = (*original)->Ask(q);
    auto b = (*restored)->Ask(q);
    ASSERT_TRUE(a.ok() && b.ok()) << q.text;
    const std::vector<Neighbor>& want = a->retrieval.neighbors;
    const std::vector<Neighbor>& got = b->retrieval.neighbors;
    ASSERT_EQ(want.size(), got.size()) << q.text;
    EXPECT_FALSE(want.empty()) << q.text;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].id, got[i].id) << q.text << " rank " << i;
      EXPECT_EQ(want[i].distance, got[i].distance) << q.text << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, RestoreEquivalenceTest,
    ::testing::Values(RestoreCase{"mqa_hybrid_prefilter_on", "mqa-hybrid",
                                  true, false},
                      RestoreCase{"mqa_hybrid_prefilter_off", "mqa-hybrid",
                                  false, false},
                      RestoreCase{"hnsw", "hnsw", false, false},
                      RestoreCase{"sharded_must", "mqa-hybrid", false, true}),
    [](const ::testing::TestParamInfo<RestoreCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mqa
