#include "core/query_executor.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/fault.h"
#include "core/experiment.h"
#include "retrieval/factory.h"
#include "shard/sharded_retrieval.h"
#include "vector/distance.h"

namespace mqa {
namespace {

class QueryExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig wc;
    wc.num_concepts = 10;
    wc.latent_dim = 16;
    wc.raw_image_dim = 32;
    wc.seed = 3;
    auto corpus = MakeExperimentCorpus(wc, 500, "sim-clip", 16, true, 400);
    ASSERT_TRUE(corpus.ok());
    corpus_ = new ExperimentCorpus(std::move(corpus).Value());
    IndexConfig index;
    index.algorithm = "mqa-hybrid";
    index.graph.max_degree = 12;
    auto fw = CreateRetrievalFramework("must", corpus_->represented.store,
                                       corpus_->represented.weights, index);
    ASSERT_TRUE(fw.ok());
    framework_ = fw->release();
    executor_ = new QueryExecutor(corpus_->kb.get(), corpus_->encoders.get(),
                                  framework_);
  }
  static void TearDownTestSuite() {
    delete executor_;
    delete framework_;
    delete corpus_;
  }

  static ExperimentCorpus* corpus_;
  static RetrievalFramework* framework_;
  static QueryExecutor* executor_;
};

ExperimentCorpus* QueryExecutorTest::corpus_ = nullptr;
RetrievalFramework* QueryExecutorTest::framework_ = nullptr;
QueryExecutor* QueryExecutorTest::executor_ = nullptr;

TEST_F(QueryExecutorTest, TextOnlyQueryIsCrossModalFilled) {
  UserQuery query;
  query.text = "show me things";
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  ASSERT_EQ(rq->modalities.parts.size(), 2u);
  EXPECT_FALSE(rq->modalities.parts[0].empty());  // filled from text
  EXPECT_FALSE(rq->modalities.parts[1].empty());
  EXPECT_LT(L2Sq(rq->modalities.parts[0].data(),
                 rq->modalities.parts[1].data(), 16),
            1e-8f);
}

TEST_F(QueryExecutorTest, SelectedObjectContributesItsImage) {
  UserQuery query;
  query.text = "more " + corpus_->world->ConceptName(7 % 10) + " like this";
  query.selected_object = 7;
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  // Image part differs from text part: it came from the object.
  EXPECT_NE(rq->modalities.parts[0], rq->modalities.parts[1]);
  auto direct = corpus_->encoders->EncodeModality(
      0, corpus_->kb->at(7).modalities[0]);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(rq->modalities.parts[0], *direct);
}

TEST_F(QueryExecutorTest, UploadWinsOverSelection) {
  UserQuery query;
  query.text = "x";
  query.selected_object = 7;
  query.uploaded_image = corpus_->kb->at(9).modalities[0];
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  auto direct = corpus_->encoders->EncodeModality(
      0, corpus_->kb->at(9).modalities[0]);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(rq->modalities.parts[0], *direct);
}

TEST_F(QueryExecutorTest, ImageOnlyQueryWorks) {
  UserQuery query;
  query.selected_object = 11;
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  EXPECT_FALSE(rq->modalities.parts[0].empty());
  // Cross-modal fill propagates the image into the text slot.
  EXPECT_LT(L2Sq(rq->modalities.parts[0].data(),
                 rq->modalities.parts[1].data(), 16),
            1e-8f);
}

TEST_F(QueryExecutorTest, EmptyQueryFails) {
  UserQuery query;
  EXPECT_FALSE(executor_->EncodeUserQuery(query).ok());
}

TEST_F(QueryExecutorTest, UnknownSelectionFails) {
  UserQuery query;
  query.text = "x";
  query.selected_object = 123456;
  EXPECT_FALSE(executor_->EncodeUserQuery(query).ok());
}

TEST_F(QueryExecutorTest, ExecuteReturnsAlignedItems) {
  UserQuery query;
  query.text = "find " + corpus_->world->ConceptName(1);
  SearchParams params;
  params.k = 5;
  params.beam_width = 48;
  auto outcome = executor_->Execute(query, params);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->items.size(), outcome->retrieval.neighbors.size());
  for (size_t i = 0; i < outcome->items.size(); ++i) {
    EXPECT_EQ(outcome->items[i].id, outcome->retrieval.neighbors[i].id);
    EXPECT_FLOAT_EQ(outcome->items[i].distance,
                    outcome->retrieval.neighbors[i].distance);
    EXPECT_FALSE(outcome->items[i].description.empty());
  }
}

TEST_F(QueryExecutorTest, WeightOverridePassesThrough) {
  UserQuery query;
  query.text = "find " + corpus_->world->ConceptName(2);
  query.weight_override = {0.2f, 1.8f};
  auto rq = executor_->EncodeUserQuery(query);
  ASSERT_TRUE(rq.ok());
  EXPECT_EQ(rq->weights, (std::vector<float>{0.2f, 1.8f}));
}

TEST_F(QueryExecutorTest, ExpiredDeadlineFailsBeforeEncoding) {
  // The turn deadline is checked once, in Execute, before any work: the
  // same for one index as for a sharded fan-out.
  IndexConfig index;
  index.algorithm = "bruteforce";
  ShardOptions shard_options;
  shard_options.num_shards = 2;
  auto sharded = ShardedRetrieval::Create(
      "must", corpus_->represented.store, corpus_->represented.weights,
      index, shard_options);
  ASSERT_TRUE(sharded.ok());
  struct Case {
    const char* name;
    RetrievalFramework* framework;
  };
  for (const Case& c : {Case{"unsharded", framework_},
                        Case{"sharded", sharded->get()}}) {
    SCOPED_TRACE(c.name);
    MockClock clock(1'000'000);
    QueryExecutor executor(corpus_->kb.get(), corpus_->encoders.get(),
                           c.framework);
    executor.SetClock(&clock);
    ScopedFault encoder_fault("encoder/sim-text");
    UserQuery query;
    query.text = "find " + corpus_->world->ConceptName(3);
    query.deadline_micros = 500'000;  // already in the past
    SearchParams params;
    params.k = 5;
    params.beam_width = 32;
    auto outcome = executor.Execute(query, params);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(FaultInjector::Global().stats("encoder/sim-text").hits, 0u);
  }
}

TEST(DescribeObjectTest, IncludesIdAndTexts) {
  Object obj;
  obj.id = 42;
  Payload img;
  img.type = ModalityType::kImage;
  img.text = "an image of x";
  Payload txt;
  txt.type = ModalityType::kText;
  txt.text = "caption y";
  obj.modalities = {img, txt};
  const std::string desc = DescribeObject(obj);
  EXPECT_NE(desc.find("object #42"), std::string::npos);
  EXPECT_NE(desc.find("an image of x"), std::string::npos);
  EXPECT_NE(desc.find("caption y"), std::string::npos);
}

}  // namespace
}  // namespace mqa
