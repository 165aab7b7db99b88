#include "graph/search.h"

#include <gtest/gtest.h>

#include "graph_test_util.h"

namespace mqa {
namespace {

using ::mqa::testing::ExactKnn;
using ::mqa::testing::MakeClusteredStore;
using ::mqa::testing::Recall;

/// BeamSearch for query `q` under the computer's build weights.
std::vector<Neighbor> Beam(const AdjacencyGraph& g,
                           const DistanceComputer& dist, const Vector& q,
                           const std::vector<uint32_t>& entries, size_t k,
                           size_t beam_width, SearchStats* stats,
                           std::vector<Neighbor>* evaluated = nullptr) {
  QueryContext ctx = dist.StartQuery(q.data(), {}).Value();
  return BeamSearch(g, &dist, &ctx, entries, k, beam_width, stats, evaluated);
}

TEST(BeamSearchTest, FindsExactNeighborsOnCompleteGraph) {
  std::vector<Vector> queries;
  VectorStore store = MakeClusteredStore(200, 8, 4, 1, &queries, 5);
  // Complete graph: beam search must find the exact answer.
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u < store.size(); ++u) {
    for (uint32_t v = 0; v < store.size(); ++v) {
      if (u != v) g.AddEdge(u, v);
    }
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  for (const Vector& q : queries) {
    const auto got = Beam(g, dist, q, {0}, 10, 32, nullptr);
    const auto expected = ExactKnn(store, q, 10);
    EXPECT_DOUBLE_EQ(Recall(got, expected), 1.0);
  }
}

TEST(BeamSearchTest, EmptyEntriesOrGraphGivesEmpty) {
  VectorStore store = MakeClusteredStore(10, 4, 2, 2);
  AdjacencyGraph g(store.size());
  FlatDistanceComputer dist(&store, Metric::kL2);
  const Vector q(4, 0.0f);
  EXPECT_TRUE(Beam(g, dist, q, {}, 5, 16, nullptr).empty());
  AdjacencyGraph empty;
  EXPECT_TRUE(
      Beam(empty, dist, q, {0}, 5, 16, nullptr).empty());
}

TEST(BeamSearchTest, IsolatedEntryReturnsJustEntry) {
  VectorStore store = MakeClusteredStore(10, 4, 2, 3);
  AdjacencyGraph g(store.size());  // no edges at all
  FlatDistanceComputer dist(&store, Metric::kL2);
  const Vector q(4, 0.0f);
  const auto got = Beam(g, dist, q, {3}, 5, 16, nullptr);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 3u);
}

TEST(BeamSearchTest, StatsCountHopsAndDistances) {
  VectorStore store = MakeClusteredStore(50, 4, 2, 4);
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u < store.size(); ++u) {
    g.AddEdge(u, (u + 1) % store.size());  // ring
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  SearchStats stats;
  const Vector q(4, 0.0f);
  Beam(g, dist, q, {0}, 5, 8, &stats);
  EXPECT_GT(stats.hops, 0u);
  EXPECT_GT(stats.dist_comps, 0u);
}

TEST(SearchStatsTest, MergeAddsCountersAndOrsFlags) {
  SearchStats a;
  a.hops = 3;
  a.dist_comps = 10;
  a.io_errors = 1;
  a.partial = false;
  a.shards_total = 2;
  a.shards_ok = 2;
  SearchStats b;
  b.hops = 4;
  b.dist_comps = 5;
  b.io_errors = 2;
  b.partial = true;
  b.shards_total = 1;
  b.shards_ok = 0;
  a.Merge(b);
  EXPECT_EQ(a.hops, 7u);
  EXPECT_EQ(a.dist_comps, 15u);
  EXPECT_EQ(a.io_errors, 3u);
  EXPECT_TRUE(a.partial);
  EXPECT_EQ(a.shards_total, 3u);
  EXPECT_EQ(a.shards_ok, 2u);
  // Merging the empty stats is the identity.
  SearchStats before = a;
  a.Merge(SearchStats{});
  EXPECT_EQ(a.hops, before.hops);
  EXPECT_EQ(a.dist_comps, before.dist_comps);
  EXPECT_TRUE(a.partial);
  a.Reset();
  EXPECT_EQ(a.hops, 0u);
  EXPECT_EQ(a.shards_total, 0u);
  EXPECT_FALSE(a.partial);
}

TEST(BeamSearchTest, EvaluatedCollectsScoredNodes) {
  VectorStore store = MakeClusteredStore(30, 4, 2, 5);
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u + 1 < store.size(); ++u) g.AddEdge(u, u + 1);
  FlatDistanceComputer dist(&store, Metric::kL2);
  std::vector<Neighbor> evaluated;
  const Vector q(4, 0.0f);
  Beam(g, dist, q, {0}, 3, 8, nullptr, &evaluated);
  EXPECT_GE(evaluated.size(), 3u);
  // No duplicates.
  std::set<uint32_t> ids;
  for (const auto& n : evaluated) ids.insert(n.id);
  EXPECT_EQ(ids.size(), evaluated.size());
}

TEST(BeamSearchTest, WiderBeamNeverHurtsRecall) {
  std::vector<Vector> queries;
  VectorStore store = MakeClusteredStore(500, 8, 8, 6, &queries, 10);
  // A modest random graph.
  Rng rng(7);
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u < store.size(); ++u) {
    for (int e = 0; e < 8; ++e) {
      g.AddEdge(u, static_cast<uint32_t>(rng.NextUint64(store.size())));
    }
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  double narrow_total = 0, wide_total = 0;
  for (const Vector& q : queries) {
    const auto expected = ExactKnn(store, q, 10);
    narrow_total += Recall(
        Beam(g, dist, q, {0}, 10, 10, nullptr), expected);
    wide_total += Recall(
        Beam(g, dist, q, {0}, 10, 200, nullptr), expected);
  }
  EXPECT_GE(wide_total, narrow_total);
}

TEST(ApproximateMedoidTest, PicksCentralPoint) {
  // 1D store: values 0..99; medoid should be near 50.
  VectorSchema schema;
  schema.dims = {1};
  VectorStore store(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Add({static_cast<float>(i)}).ok());
  }
  FlatDistanceComputer dist(&store, Metric::kL2);
  Rng rng(8);
  const uint32_t medoid = ApproximateMedoid(&dist, &rng, 100);
  EXPECT_GE(medoid, 30u);
  EXPECT_LE(medoid, 70u);
}

TEST(GraphIndexTest, SearchValidatesParams) {
  VectorStore store = MakeClusteredStore(20, 4, 2, 9);
  AdjacencyGraph g(store.size());
  for (uint32_t u = 0; u + 1 < store.size(); ++u) g.AddEdge(u, u + 1);
  auto dist = std::make_unique<FlatDistanceComputer>(&store, Metric::kL2);
  GraphIndex index("test", std::move(g), std::move(dist), {0});
  const Vector q(4, 0.0f);
  SearchParams params;
  params.k = 0;
  EXPECT_FALSE(index.Search(q.data(), params, nullptr).ok());
  params.k = 5;
  auto results = index.Search(q.data(), params, nullptr);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 5u);
  EXPECT_EQ(index.name(), "test");
  EXPECT_EQ(index.size(), 20u);
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(BruteForceIndexTest, ExactAndSorted) {
  std::vector<Vector> queries;
  VectorStore store = MakeClusteredStore(300, 8, 4, 10, &queries, 5);
  BruteForceIndex index(
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  SearchParams params;
  params.k = 10;
  for (const Vector& q : queries) {
    SearchStats stats;
    auto got = index.Search(q.data(), params, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Recall(*got, ExactKnn(store, q, 10)), 1.0);
    EXPECT_EQ(stats.dist_comps, 300u);
    for (size_t i = 1; i < got->size(); ++i) {
      EXPECT_LE((*got)[i - 1].distance, (*got)[i].distance);
    }
  }
}

TEST(BruteForceIndexTest, RejectsZeroK) {
  VectorStore store = MakeClusteredStore(10, 4, 2, 11);
  BruteForceIndex index(
      std::make_unique<FlatDistanceComputer>(&store, Metric::kL2));
  const Vector q(4, 0.0f);
  SearchParams params;
  params.k = 0;
  EXPECT_FALSE(index.Search(q.data(), params, nullptr).ok());
}

}  // namespace
}  // namespace mqa
