#include <gtest/gtest.h>

#include <limits>

#include "retrieval/factory.h"
#include "retrieval/je.h"
#include "retrieval/mr.h"
#include "retrieval/must.h"
#include "retrieval_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::HitRate;
using ::mqa::testing::PrepareCorpus;
using ::mqa::testing::PreparedCorpus;

class FrameworksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new PreparedCorpus(PrepareCorpus());
    ASSERT_NE(corpus_->kb, nullptr);
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static IndexConfig SmallIndex() {
    IndexConfig config;
    config.algorithm = "mqa-hybrid";
    config.graph.max_degree = 16;
    return config;
  }

  /// Encodes a text query into a RetrievalQuery (cross-modal filled, as
  /// the query executor does).
  static RetrievalQuery TextQueryFor(uint32_t concept_id, Rng* rng) {
    const TextQuery q = corpus_->world->MakeTextQuery(concept_id, rng);
    auto rq = EncodeTextQuery(*corpus_, q.text);
    EXPECT_TRUE(rq.ok());
    return std::move(rq).Value();
  }

  static PreparedCorpus* corpus_;
};

PreparedCorpus* FrameworksTest::corpus_ = nullptr;

TEST_F(FrameworksTest, FactoryCreatesAllAndRejectsUnknown) {
  for (const std::string& name : RetrievalFrameworkNames()) {
    auto fw = CreateRetrievalFramework(name, corpus_->represented.store,
                                       corpus_->represented.weights,
                                       SmallIndex());
    ASSERT_TRUE(fw.ok()) << name;
    EXPECT_EQ((*fw)->name(), name);
  }
  EXPECT_FALSE(CreateRetrievalFramework("colbert",
                                        corpus_->represented.store,
                                        corpus_->represented.weights,
                                        SmallIndex())
                   .ok());
}

TEST_F(FrameworksTest, MustRetrievesQueryConcept) {
  auto fw = MustFramework::Create(corpus_->represented.store,
                                  corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  Rng rng(1);
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  double precision_sum = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    const RetrievalQuery rq = TextQueryFor(c, &rng);
    auto result = (*fw)->Retrieve(rq, params);
    ASSERT_TRUE(result.ok());
    precision_sum += ConceptPrecision(result->neighbors, *corpus_->kb, c);
  }
  EXPECT_GT(precision_sum / 8, 0.8);
}

TEST_F(FrameworksTest, MustRejectsMalformedQueries) {
  auto fw = MustFramework::Create(corpus_->represented.store,
                                  corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  SearchParams params;
  RetrievalQuery empty;
  empty.modalities.parts.resize(2);  // both absent
  EXPECT_FALSE((*fw)->Retrieve(empty, params).ok());
  RetrievalQuery wrong_count;
  wrong_count.modalities.parts.resize(3);
  EXPECT_FALSE((*fw)->Retrieve(wrong_count, params).ok());
  RetrievalQuery wrong_dim;
  wrong_dim.modalities.parts.resize(2);
  wrong_dim.modalities.parts[1] = Vector(5, 0.1f);
  EXPECT_FALSE((*fw)->Retrieve(wrong_dim, params).ok());
}

TEST_F(FrameworksTest, MustQueryWeightOverrideChangesResults) {
  auto fw = MustFramework::Create(corpus_->represented.store,
                                  corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  Rng rng(2);
  RetrievalQuery rq = TextQueryFor(0, &rng);
  // Add an image part from an object of a DIFFERENT concept.
  const Object& other = corpus_->kb->at(1);  // concept 1
  auto img = corpus_->encoders->EncodeModality(0, other.modalities[0]);
  ASSERT_TRUE(img.ok());
  rq.modalities.parts[0] = std::move(img).Value();

  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  // Weight fully on text -> results match concept 0; fully on image ->
  // results match the other object's concept.
  rq.weights = {0.0f, 2.0f};
  auto text_only = (*fw)->Retrieve(rq, params);
  rq.weights = {2.0f, 0.0f};
  auto image_only = (*fw)->Retrieve(rq, params);
  ASSERT_TRUE(text_only.ok() && image_only.ok());
  size_t text_c0 = 0, image_other = 0;
  for (const Neighbor& n : text_only->neighbors) {
    if (corpus_->kb->at(n.id).concept_id == 0u) ++text_c0;
  }
  for (const Neighbor& n : image_only->neighbors) {
    if (corpus_->kb->at(n.id).concept_id == other.concept_id) ++image_other;
  }
  EXPECT_GT(text_c0, 5u);
  EXPECT_GT(image_other, 5u);
  // After the overrides, the framework's default weights are restored.
  EXPECT_EQ((*fw)->weights().size(), 2u);
}

TEST_F(FrameworksTest, MustFailedOverrideQueryDoesNotLeakIntoIngestion) {
  // Twin frameworks over one mutable store. One of them serves a
  // weight-override query that fails (k = 0); live ingestion must then
  // link the new node exactly as in the twin that never saw that query.
  const VectorStore& full = *corpus_->represented.store;
  auto store = std::make_shared<VectorStore>(full.schema());
  const uint32_t new_id = full.size() - 1;
  for (uint32_t id = 0; id < new_id; ++id) {
    ASSERT_TRUE(store->Add(full.Row(id)).ok());
  }
  const IndexConfig config = SmallIndex();
  auto queried = MustFramework::Create(store, corpus_->represented.weights,
                                       config);
  auto twin = MustFramework::Create(store, corpus_->represented.weights,
                                    config);
  ASSERT_TRUE(queried.ok() && twin.ok());

  Rng rng(3);
  RetrievalQuery rq = TextQueryFor(0, &rng);
  rq.weights = {2.0f, 0.05f};
  SearchParams params;
  params.k = 0;
  ASSERT_FALSE((*queried)->Retrieve(rq, params).ok());

  ASSERT_TRUE(store->Add(full.Row(new_id)).ok());
  ASSERT_TRUE((*queried)->IngestAppended(config.graph).ok());
  ASSERT_TRUE((*twin)->IngestAppended(config.graph).ok());
  ASSERT_NE((*queried)->flat_graph_index(), nullptr);
  EXPECT_EQ((*queried)->flat_graph_index()->graph().neighbors(new_id),
            (*twin)->flat_graph_index()->graph().neighbors(new_id));
}

TEST_F(FrameworksTest, MustRejectsNonFiniteWeightOverrides) {
  // NaN and +inf overrides are the query's error on every index kind, and
  // leave nothing behind: the next queries match a twin framework that
  // never saw them, bit for bit. (Negative entries are clamped to 0.)
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const char* algorithm : {"mqa-hybrid", "hnsw", "bruteforce",
                                "starling"}) {
    IndexConfig config = SmallIndex();
    config.algorithm = algorithm;
    auto queried = MustFramework::Create(corpus_->represented.store,
                                         corpus_->represented.weights, config);
    auto twin = MustFramework::Create(corpus_->represented.store,
                                      corpus_->represented.weights, config);
    ASSERT_TRUE(queried.ok() && twin.ok()) << algorithm;
    Rng rng(8);
    RetrievalQuery rq = TextQueryFor(2, &rng);
    SearchParams params;
    params.k = 10;
    for (const std::vector<float>& bad : {std::vector<float>{nan, 1.0f},
                                          std::vector<float>{1.0f, inf}}) {
      rq.weights = bad;
      EXPECT_EQ((*queried)->Retrieve(rq, params).status().code(),
                StatusCode::kInvalidArgument)
          << algorithm;
    }
    for (const std::vector<float>& good :
         {std::vector<float>{}, std::vector<float>{2.0f, 0.05f},
          std::vector<float>{-1.0f, 1.0f}}) {
      rq.weights = good;
      auto got = (*queried)->Retrieve(rq, params);
      auto want = (*twin)->Retrieve(rq, params);
      ASSERT_TRUE(got.ok() && want.ok()) << algorithm;
      EXPECT_EQ(got->neighbors, want->neighbors) << algorithm;
    }
  }
}

TEST_F(FrameworksTest, MustDistanceStatsAccumulateWithPruning) {
  auto fw = MustFramework::Create(corpus_->represented.store,
                                  corpus_->represented.weights, SmallIndex(),
                                  /*enable_pruning=*/true);
  ASSERT_TRUE(fw.ok());
  (*fw)->ResetDistanceStats();
  Rng rng(3);
  SearchParams params;
  params.k = 10;
  ASSERT_TRUE((*fw)->Retrieve(TextQueryFor(0, &rng), params).ok());
  const DistanceStats& stats = (*fw)->distance_stats();
  EXPECT_GT(stats.TotalComputations(), 0u);
  EXPECT_GT(stats.pruned_computations, 0u);  // pruning actually fired
}

TEST_F(FrameworksTest, MrRetrievesAndMerges) {
  auto fw = MrFramework::Create(corpus_->represented.store,
                                corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  Rng rng(4);
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  double precision_sum = 0;
  for (uint32_t c = 0; c < 6; ++c) {
    auto result = (*fw)->Retrieve(TextQueryFor(c, &rng), params);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->neighbors.size(), 10u);
    // Results sorted by fused distance.
    for (size_t i = 1; i < result->neighbors.size(); ++i) {
      EXPECT_LE(result->neighbors[i - 1].distance,
                result->neighbors[i].distance);
    }
    precision_sum += ConceptPrecision(result->neighbors, *corpus_->kb, c);
  }
  EXPECT_GT(precision_sum / 6, 0.7);
}

TEST_F(FrameworksTest, MrSetWeightsValidates) {
  auto fw = MrFramework::Create(corpus_->represented.store,
                                corpus_->represented.weights, SmallIndex());
  ASSERT_TRUE(fw.ok());
  EXPECT_FALSE((*fw)->SetWeights({1.0f}).ok());
  EXPECT_TRUE((*fw)->SetWeights({1.0f, 1.0f}).ok());
}

TEST_F(FrameworksTest, JeRetrievesAndHasNoWeights) {
  auto fw = JeFramework::Create(corpus_->represented.store, SmallIndex());
  ASSERT_TRUE(fw.ok());
  Rng rng(5);
  SearchParams params;
  params.k = 10;
  params.beam_width = 64;
  auto result = (*fw)->Retrieve(TextQueryFor(3, &rng), params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors.size(), 10u);
  EXPECT_EQ((*fw)->SetWeights({1.0f, 1.0f}).code(),
            StatusCode::kUnimplemented);
}

TEST_F(FrameworksTest, CreateRejectsEmptyCorpus) {
  auto empty = std::make_shared<VectorStore>(
      corpus_->represented.store->schema());
  EXPECT_FALSE(
      MustFramework::Create(empty, {1.0f, 1.0f}, SmallIndex()).ok());
  EXPECT_FALSE(MrFramework::Create(empty, {1.0f, 1.0f}, SmallIndex()).ok());
  EXPECT_FALSE(JeFramework::Create(empty, SmallIndex()).ok());
}

}  // namespace
}  // namespace mqa
