// Concurrent readers over one shared framework. Several threads run the
// same mixed query stream — no override, skewed weight overrides, an
// attribute filter — through one RetrievalFramework at once; every result
// must be bit-identical (ids and distances) to a single-threaded reference,
// and the in-memory MUST indexes' pruning counters must add up to exactly
// the sequential totals. Run under TSan in CI.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "retrieval/factory.h"
#include "retrieval/must.h"
#include "retrieval_test_util.h"
#include "shard/sharded_retrieval.h"

namespace mqa {
namespace {

using ::mqa::testing::PrepareCorpus;
using ::mqa::testing::PreparedCorpus;

constexpr size_t kThreads = 4;

struct Case {
  std::string name;
  std::string framework;  ///< "must", "mr" or "sharded-must"
  std::string algorithm;
  bool sketch_prefilter = false;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

struct Call {
  RetrievalQuery query;
  SearchParams params;
};

struct Totals {
  uint64_t full = 0;
  uint64_t pruned = 0;
  uint64_t dims = 0;
  uint64_t sketch_rejects = 0;
};

Totals Read(const DistanceStats& s) {
  return {s.full_computations.load(), s.pruned_computations.load(),
          s.dims_scanned.load(), s.sketch_rejects.load()};
}

class ConcurrentRetrievalTest : public ::testing::TestWithParam<Case> {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new PreparedCorpus(PrepareCorpus(600, 12, 21));
    ASSERT_NE(corpus_->kb, nullptr);
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static Result<std::unique_ptr<RetrievalFramework>> Build(const Case& c) {
    IndexConfig config;
    config.algorithm = c.algorithm;
    config.graph.max_degree = 16;
    config.sketch_prefilter = c.sketch_prefilter;
    if (c.framework == "sharded-must") {
      ShardOptions options;
      options.num_shards = 4;
      MQA_ASSIGN_OR_RETURN(
          std::unique_ptr<ShardedRetrieval> sharded,
          ShardedRetrieval::Create("must", corpus_->represented.store,
                                   corpus_->represented.weights, config,
                                   options));
      return std::unique_ptr<RetrievalFramework>(std::move(sharded));
    }
    return CreateRetrievalFramework(c.framework, corpus_->represented.store,
                                    corpus_->represented.weights, config);
  }

  /// Text queries over every concept, each in three flavours: the
  /// framework's weights, a skewed per-query override (a different
  /// modality dominates each time), and an attribute filter.
  static std::vector<Call> MixedCalls() {
    const size_t num_m = corpus_->represented.weights.size();
    Rng rng(77);
    std::vector<Call> calls;
    for (uint32_t c = 0; c < corpus_->world->num_concepts(); ++c) {
      const TextQuery text = corpus_->world->MakeTextQuery(c, &rng);
      auto encoded = EncodeTextQuery(*corpus_, text.text);
      EXPECT_TRUE(encoded.ok());
      Call plain;
      plain.query = *encoded;
      plain.params.k = 10;
      plain.params.beam_width = 48;
      calls.push_back(plain);

      Call skewed = plain;
      skewed.query.weights.assign(num_m, 0.25f);
      skewed.query.weights[c % num_m] = 4.0f;
      calls.push_back(skewed);

      Call filtered = plain;
      filtered.params.filter = [](uint32_t id) { return id % 3 != 0; };
      calls.push_back(filtered);
    }
    return calls;
  }

  static PreparedCorpus* corpus_;
};

PreparedCorpus* ConcurrentRetrievalTest::corpus_ = nullptr;

TEST_P(ConcurrentRetrievalTest, ConcurrentReadersMatchSequentialReference) {
  auto built = Build(GetParam());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  RetrievalFramework* fw = built->get();
  auto* must = dynamic_cast<MustFramework*>(fw);
  const std::vector<Call> calls = MixedCalls();

  // Sequential reference: one pass over the stream on this thread.
  if (must != nullptr) must->ResetDistanceStats();
  std::vector<std::vector<Neighbor>> reference(calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    auto r = fw->Retrieve(calls[i].query, calls[i].params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r->neighbors.empty());
    reference[i] = r->neighbors;
  }
  const Totals sequential =
      must != nullptr ? Read(must->distance_stats()) : Totals{};

  // Concurrent pass: every thread runs the whole stream once, each from a
  // different starting offset, so overrides and filters interleave.
  if (must != nullptr) must->ResetDistanceStats();
  std::vector<std::vector<std::vector<Neighbor>>> got(
      kThreads, std::vector<std::vector<Neighbor>>(calls.size()));
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t step = 0; step < calls.size(); ++step) {
        const size_t i = (step + t * calls.size() / kThreads) % calls.size();
        auto r = fw->Retrieve(calls[i].query, calls[i].params);
        if (!r.ok()) {
          errors[t] = r.status().ToString();
          return;
        }
        got[t][i] = std::move(r->neighbors);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
    for (size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(got[t][i], reference[i])
          << "thread " << t << " call " << i << " diverged";
    }
  }
  if (must != nullptr && must->SupportsLiveIngestion()) {  // in memory
    const Totals concurrent = Read(must->distance_stats());
    EXPECT_EQ(concurrent.full, kThreads * sequential.full);
    EXPECT_EQ(concurrent.pruned, kThreads * sequential.pruned);
    EXPECT_EQ(concurrent.dims, kThreads * sequential.dims);
    EXPECT_EQ(concurrent.sketch_rejects, kThreads * sequential.sketch_rejects);
    EXPECT_GT(sequential.full + sequential.pruned, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Frameworks, ConcurrentRetrievalTest,
    ::testing::Values(Case{"must_mqa_hybrid", "must", "mqa-hybrid", true},
                      Case{"must_hnsw", "must", "hnsw"},
                      Case{"must_bruteforce", "must", "bruteforce"},
                      Case{"must_starling", "must", "starling"},
                      Case{"mr", "mr", "mqa-hybrid"},
                      Case{"sharded_must", "sharded-must", "mqa-hybrid"}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mqa
