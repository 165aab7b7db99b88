#ifndef MQA_VECTOR_MULTI_DISTANCE_H_
#define MQA_VECTOR_MULTI_DISTANCE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "vector/distance.h"
#include "vector/vector_types.h"

namespace mqa {

/// Counters for the computational-pruning ablation (MUST-E4). A search
/// counts into its own plain DistanceCounts on every evaluation and adds
/// them, once, to its distance computer's shared atomic DistanceStats when
/// it ends (see QueryContext in vector/vector_store.h), so concurrent
/// searches never contend per distance. Shared totals are exact once
/// searches quiesce.
template <typename Counter>
struct PruningCounters {
  Counter full_computations{0};    ///< computed to completion
  Counter pruned_computations{0};  ///< abandoned early
  Counter dims_scanned{0};         ///< float components visited
  /// Subset of pruned_computations rejected by the bit-sketch prefilter
  /// before any float was touched (see vector/sketch.h).
  Counter sketch_rejects{0};

  void Add(const PruningCounters<uint64_t>& other) {
    full_computations += other.full_computations;
    pruned_computations += other.pruned_computations;
    dims_scanned += other.dims_scanned;
    sketch_rejects += other.sketch_rejects;
  }

  void Reset() {
    full_computations = 0;
    pruned_computations = 0;
    dims_scanned = 0;
    sketch_rejects = 0;
  }

  uint64_t TotalComputations() const {
    return full_computations + pruned_computations;
  }
};

using DistanceCounts = PruningCounters<uint64_t>;
using DistanceStats = PruningCounters<std::atomic<uint64_t>>;

/// Modality weights with their heaviest-first scan order: the part of the
/// weighted distance a query may override.
struct ModalityWeights {
  std::vector<float> values;
  std::vector<size_t> scan_order;  ///< modality indices, heaviest first
};

/// Weighted multi-vector distance (the MUST similarity):
///
///   D(q, o) = sum_m w_m * d(q_m, o_m)
///
/// with d = squared L2 per modality. Because every term is nonnegative, the
/// running prefix sum is a lower bound on the final value, which enables
/// *incremental scanning*: modality blocks are accumulated in order and the
/// computation is abandoned as soon as the prefix exceeds a caller-supplied
/// bound (the current top-k worst distance during search).
class WeightedMultiDistance {
 public:
  /// `weights` must have one nonnegative entry per modality in `schema`.
  static Result<WeightedMultiDistance> Create(VectorSchema schema,
                                              std::vector<float> weights);

  /// Exact distance between two flattened multi-vectors (length
  /// schema.TotalDim() each), under the build weights or under `w`. The
  /// query-side methods below take the query's weights explicitly.
  float Exact(const float* q, const float* o) const {
    return Exact(q, o, weights_);
  }
  float Exact(const float* q, const float* o,
              const ModalityWeights& w) const;

  /// Exact distances from `q` to `n` candidate rows laid out at `base`,
  /// `base + stride`, ... (a contiguous VectorStore/pivot-table scan).
  /// Row i's result lands in out[i]. Each row goes through the same Exact
  /// kernel — results are bitwise identical to n individual calls — while
  /// the next row is prefetched, so linear rerank scans hide memory
  /// latency behind the arithmetic.
  void ExactBatch(const float* q, const float* base, size_t stride, size_t n,
                  float* out, const ModalityWeights& w) const;

  /// Distance under `w` with early abandonment at `bound`. Returns a value
  /// > bound (not necessarily exact) when abandoned. `stats` may be null.
  float Pruned(const float* q, const float* o, float bound,
               const ModalityWeights& w, DistanceCounts* stats) const;

  /// The effective weights of one search: a copy of the build weights when
  /// `weights` is empty, else `weights` with its scan order. InvalidArgument
  /// unless there is one finite, nonnegative entry per modality.
  Result<ModalityWeights> QueryWeights(const std::vector<float>& weights) const;

  const VectorSchema& schema() const { return schema_; }
  /// The build weights: used when a search passes none, and for every
  /// distance between two stored rows.
  const std::vector<float>& weights() const { return weights_.values; }

  /// Replaces the build weights (after weight learning or a framework-wide
  /// SetWeights — a write, never done per query). Size must match; values
  /// must be finite and >= 0.
  Status SetWeights(std::vector<float> weights);

 private:
  WeightedMultiDistance(VectorSchema schema, ModalityWeights weights);

  VectorSchema schema_;
  ModalityWeights weights_;
  std::vector<size_t> offsets_;  // modality start offsets in the flat layout
};

/// OK when `weights` holds one finite, nonnegative entry per modality of
/// `schema`; InvalidArgument otherwise.
Status ValidateWeights(const VectorSchema& schema,
                       const std::vector<float>& weights);

/// Flattens a MultiVector into one contiguous buffer in schema order.
/// Returns InvalidArgument if dimensions do not match the schema.
Result<Vector> FlattenMultiVector(const VectorSchema& schema,
                                  const MultiVector& mv);

/// Scales each modality block of a flattened vector by sqrt(w_m), in place.
/// After this transform, *plain* L2 on the concatenated vectors equals the
/// weighted multi-vector distance — the trick that lets MUST reuse a
/// single-vector navigation graph for multi-modal search.
Status ApplyWeightScaling(const VectorSchema& schema,
                          const std::vector<float>& weights, float* flat);

}  // namespace mqa

#endif  // MQA_VECTOR_MULTI_DISTANCE_H_
