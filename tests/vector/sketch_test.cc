#include "vector/sketch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "vector/multi_distance.h"
#include "vector/vector_store.h"

namespace mqa {
namespace {

VectorSchema TwoModality() {
  VectorSchema schema;
  schema.dims = {4, 6};
  return schema;
}

Vector RandomRow(size_t dim, Rng* rng) {
  Vector v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

TEST(BitSketchTest, SampledIndexCoversSmallAndLargeDims) {
  // dim <= 64: identity — every component gets its own bit.
  EXPECT_EQ(BitSketchIndex::SampledIndex(0, 10), 0u);
  EXPECT_EQ(BitSketchIndex::SampledIndex(9, 10), 9u);
  EXPECT_EQ(BitSketchIndex::BitsFor(10), 10u);
  // dim > 64: strided sampling, strictly increasing, in range.
  size_t prev = 0;
  for (size_t j = 0; j < 64; ++j) {
    const size_t idx = BitSketchIndex::SampledIndex(j, 130);
    EXPECT_LT(idx, 130u);
    if (j > 0) {
      EXPECT_GT(idx, prev);
    }
    prev = idx;
  }
  EXPECT_EQ(BitSketchIndex::BitsFor(130), 64u);
}

TEST(BitSketchTest, SketchModalitySetsSignBits) {
  const float x[] = {1.0f, -2.0f, 0.0f, 3.0f};
  const uint64_t w = BitSketchIndex::SketchModality(x, 4);
  EXPECT_EQ(w & 1u, 1u);         // positive
  EXPECT_EQ((w >> 1) & 1u, 0u);  // negative
  EXPECT_EQ((w >> 2) & 1u, 0u);  // zero is not > 0
  EXPECT_EQ((w >> 3) & 1u, 1u);
}

TEST(BitSketchTest, AppendAndRebuildAgree) {
  const VectorSchema schema = TwoModality();
  VectorStore store(schema);
  Rng rng(21);
  BitSketchIndex appended(schema);
  for (int i = 0; i < 17; ++i) {
    const Vector v = RandomRow(schema.TotalDim(), &rng);
    ASSERT_TRUE(store.Add(v).ok());
    appended.Append(store.data(static_cast<uint32_t>(i)));
  }
  ASSERT_EQ(appended.size(), 17u);
  EXPECT_EQ(appended.words_per_object(), 2u);

  BitSketchIndex rebuilt(schema);
  rebuilt.Rebuild(store);
  ASSERT_EQ(rebuilt.size(), 17u);
  for (uint32_t id = 0; id < 17; ++id) {
    for (size_t m = 0; m < 2; ++m) {
      EXPECT_EQ(appended.words(id)[m], rebuilt.words(id)[m])
          << "id=" << id << " modality=" << m;
    }
  }
}

TEST(QuerySketchTest, LowerBoundNeverExceedsExactDistance) {
  const VectorSchema schema = TwoModality();
  const std::vector<float> weights = {1.5f, 0.5f};
  auto wd = WeightedMultiDistance::Create(schema, weights);
  VectorStore store(schema);
  Rng rng(22);
  const uint32_t n = 200;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add(RandomRow(schema.TotalDim(), &rng)).ok());
  }
  BitSketchIndex sketches(schema);
  sketches.Rebuild(store);

  for (int trial = 0; trial < 10; ++trial) {
    const Vector q = RandomRow(schema.TotalDim(), &rng);
    QuerySketch qs;
    qs.Prepare(sketches, q.data(), weights);
    for (uint32_t i = 0; i < n; ++i) {
      const float lb = qs.LowerBound(sketches.words(i));
      const float exact = wd->Exact(q.data(), store.data(i));
      EXPECT_LE(lb, exact * (1.0f + 1e-5f) + 1e-6f) << "id=" << i;
    }
  }
}

TEST(QuerySketchTest, IdenticalVectorsHaveZeroLowerBound) {
  const VectorSchema schema = TwoModality();
  VectorStore store(schema);
  Rng rng(23);
  const Vector v = RandomRow(schema.TotalDim(), &rng);
  ASSERT_TRUE(store.Add(v).ok());
  BitSketchIndex sketches(schema);
  sketches.Rebuild(store);
  QuerySketch qs;
  qs.Prepare(sketches, v.data(), {1.0f, 1.0f});
  EXPECT_EQ(qs.LowerBound(sketches.words(0)), 0.0f);
}

TEST(MultiVectorComputerSketchTest, PrefilterInactiveWithoutBeginQuery) {
  const VectorSchema schema = TwoModality();
  const std::vector<float> weights = {1.0f, 1.0f};
  auto wd = WeightedMultiDistance::Create(schema, weights);
  VectorStore store(schema);
  Rng rng(24);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(store.Add(RandomRow(schema.TotalDim(), &rng)).ok());
  }
  BitSketchIndex sketches(schema);
  sketches.Rebuild(store);
  MultiVectorDistanceComputer dist(&store, *wd, /*enable_pruning=*/true);
  const Vector q = RandomRow(schema.TotalDim(), &rng);
  // The query started before the sketches were attached, so it carries no
  // query sketch and every distance is computed for real.
  QueryContext ctx = dist.StartQuery(q.data(), {}).Value();
  dist.SetSketches(&sketches);
  for (uint32_t i = 0; i < 32; ++i) {
    (void)dist.DistanceWithBound(&ctx, i, 0.0f);
  }
  EXPECT_EQ(ctx.counts.sketch_rejects, 0u);
  EXPECT_EQ(ctx.counts.full_computations + ctx.counts.pruned_computations,
            32u);
}

TEST(MultiVectorComputerSketchTest, TightBoundProducesSketchRejects) {
  const VectorSchema schema = TwoModality();
  const std::vector<float> weights = {1.0f, 1.0f};
  auto wd = WeightedMultiDistance::Create(schema, weights);
  VectorStore store(schema);
  Rng rng(25);
  const uint32_t n = 512;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add(RandomRow(schema.TotalDim(), &rng)).ok());
  }
  BitSketchIndex sketches(schema);
  sketches.Rebuild(store);
  MultiVectorDistanceComputer dist(&store, *wd, /*enable_pruning=*/true);
  dist.SetSketches(&sketches);

  const Vector q = RandomRow(schema.TotalDim(), &rng);
  {
    QueryContext ctx = dist.StartQuery(q.data(), {}).Value();
    // A bound of zero is below every lower bound with at least one sign
    // mismatch, so the sketch should reject a healthy fraction outright.
    for (uint32_t i = 0; i < n; ++i) {
      const float d = dist.DistanceWithBound(&ctx, i, 0.0f);
      EXPECT_GT(d, 0.0f);
    }
  }
  EXPECT_GT(dist.stats().sketch_rejects.load(), 0u);
  EXPECT_LE(dist.stats().sketch_rejects.load(), n);
}

TEST(MultiVectorComputerSketchTest, ScaleOneIsDecisionIdentical) {
  const VectorSchema schema = TwoModality();
  const std::vector<float> weights = {2.0f, 1.0f};
  auto wd = WeightedMultiDistance::Create(schema, weights);
  VectorStore store(schema);
  Rng rng(26);
  const uint32_t n = 300;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Add(RandomRow(schema.TotalDim(), &rng)).ok());
  }
  BitSketchIndex sketches(schema);
  sketches.Rebuild(store);

  MultiVectorDistanceComputer plain(&store, *wd, /*enable_pruning=*/true);
  MultiVectorDistanceComputer filtered(&store, *wd, /*enable_pruning=*/true);
  filtered.SetSketches(&sketches, /*scale=*/1.0f);

  const Vector q = RandomRow(schema.TotalDim(), &rng);
  QueryContext plain_ctx = plain.StartQuery(q.data(), {}).Value();
  QueryContext filtered_ctx = filtered.StartQuery(q.data(), {}).Value();
  float best_p = std::numeric_limits<float>::max();
  float best_f = std::numeric_limits<float>::max();
  for (uint32_t i = 0; i < n; ++i) {
    const float dp = plain.DistanceWithBound(&plain_ctx, i, best_p);
    const float df = filtered.DistanceWithBound(&filtered_ctx, i, best_f);
    if (dp < best_p) best_p = dp;
    if (df < best_f) best_f = df;
    // Accepted candidates (distance within bound) must agree bitwise; a
    // sketch reject only happens when both paths would reject.
    EXPECT_EQ(dp <= best_p, df <= best_f) << "id=" << i;
  }
  EXPECT_EQ(best_p, best_f);
}

TEST(MultiVectorComputerSketchTest, ObjectsPastSketchEndAreNotFiltered) {
  const VectorSchema schema = TwoModality();
  const std::vector<float> weights = {1.0f, 1.0f};
  auto wd = WeightedMultiDistance::Create(schema, weights);
  VectorStore store(schema);
  Rng rng(27);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.Add(RandomRow(schema.TotalDim(), &rng)).ok());
  }
  BitSketchIndex sketches(schema);
  sketches.Rebuild(store);
  // Two more rows appended after the sketch build (e.g. live ingest
  // before the catch-up loop runs).
  ASSERT_TRUE(store.Add(RandomRow(schema.TotalDim(), &rng)).ok());
  ASSERT_TRUE(store.Add(RandomRow(schema.TotalDim(), &rng)).ok());

  MultiVectorDistanceComputer dist(&store, *wd, /*enable_pruning=*/true);
  dist.SetSketches(&sketches);
  const Vector q = RandomRow(schema.TotalDim(), &rng);
  QueryContext ctx = dist.StartQuery(q.data(), {}).Value();
  // ids 8 and 9 are beyond the sketch index: must compute, never reject.
  // An infinite bound keeps the incremental scan from abandoning, so the
  // returned distances are exact.
  const float inf = std::numeric_limits<float>::max();
  const float d8 = dist.DistanceWithBound(&ctx, 8, inf);
  const float d9 = dist.DistanceWithBound(&ctx, 9, inf);
  EXPECT_EQ(ctx.counts.sketch_rejects, 0u);
  EXPECT_FLOAT_EQ(d8, wd->Exact(q.data(), store.data(8)));
  EXPECT_FLOAT_EQ(d9, wd->Exact(q.data(), store.data(9)));
}

}  // namespace
}  // namespace mqa
