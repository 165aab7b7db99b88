#ifndef MQA_VECTOR_VECTOR_STORE_H_
#define MQA_VECTOR_VECTOR_STORE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/result.h"
#include "vector/multi_distance.h"
#include "vector/simd/simd.h"
#include "vector/sketch.h"
#include "vector/vector_types.h"

namespace mqa {

/// Row-major flat storage for N fixed-schema (multi-)vectors. Ids are dense
/// [0, size).
///
/// Layout: each object's per-modality segments are contiguous (one linear
/// stream per weighted multi-distance call), rows start 64-byte aligned, and
/// the in-memory stride is the logical row dimension rounded up to 16 floats
/// (one cache line) so SIMD kernels and prefetches never straddle rows. The
/// pad floats are zero and never enter any distance. The *serialized* format
/// is unchanged — Save/Load write and read logical rows — so snapshots from
/// the pre-padding layout load bit-identically (guarded by the layout
/// migration test).
class VectorStore {
 public:
  /// In-memory row stride granularity, in floats (64 bytes).
  static constexpr size_t kRowAlignFloats =
      kSimdAlignment / sizeof(float);

  explicit VectorStore(VectorSchema schema)
      : schema_(std::move(schema)), stride_(PaddedDim(schema_.TotalDim())) {}

  /// Appends a flattened vector; returns its id. The vector length must be
  /// schema().TotalDim().
  Result<uint32_t> Add(const Vector& flat);

  /// Appends a structured multi-vector (flattened internally).
  Result<uint32_t> AddMultiVector(const MultiVector& mv);

  /// Pointer to row `id` (64-byte aligned). Precondition: id < size().
  const float* data(uint32_t id) const {
    return flat_.data() + static_cast<size_t>(id) * stride_;
  }

  /// Copies row `id` out as a Vector (logical dims only, no padding).
  Vector Row(uint32_t id) const {
    const float* p = data(id);
    return Vector(p, p + row_dim());
  }

  /// Hints that row `id` will be read soon (one hint per cache line).
  void Prefetch(uint32_t id) const {
    const char* row = reinterpret_cast<const char*>(data(id));
    const size_t bytes = row_dim() * sizeof(float);
    for (size_t b = 0; b < bytes; b += kSimdAlignment) PrefetchRead(row + b);
  }

  uint32_t size() const { return static_cast<uint32_t>(count_); }
  size_t row_dim() const { return schema_.TotalDim(); }
  /// Floats between consecutive rows in memory (>= row_dim()).
  size_t row_stride() const { return stride_; }
  const VectorSchema& schema() const { return schema_; }

  void Reserve(size_t n) { flat_.reserve(n * stride_); }

  /// Binary serialization (schema + logical rows; padding is not written).
  Status Save(std::ostream& out) const;
  static Result<VectorStore> Load(std::istream& in);

 private:
  static size_t PaddedDim(size_t dim) {
    return (dim + kRowAlignFloats - 1) / kRowAlignFloats * kRowAlignFloats;
  }

  VectorSchema schema_;
  size_t stride_;
  AlignedFloatVector flat_;
  size_t count_ = 0;
};

/// One search's distance state, from DistanceComputer::StartQuery: the
/// query, its effective weights, its prefilter sketch and its counters.
/// The search owns it, so concurrent searches over one computer share no
/// mutable state; on destruction the counters are added to the computer's
/// DistanceStats, once per search.
class QueryContext {
 public:
  QueryContext(const float* q, DistanceStats* sink) : query(q), sink_(sink) {}
  QueryContext(QueryContext&& other) noexcept
      : query(other.query), weights(std::move(other.weights)),
        sketch(std::move(other.sketch)), counts(other.counts),
        sink_(std::exchange(other.sink_, nullptr)) {}
  QueryContext& operator=(QueryContext&&) = delete;
  ~QueryContext() { if (sink_ != nullptr) sink_->Add(counts); }

  const float* query;       ///< flattened, row_dim floats
  ModalityWeights weights;  ///< multi-vector computers only
  QuerySketch sketch;       ///< empty unless the computer has sketches
  DistanceCounts counts;

 private:
  DistanceStats* sink_;  ///< null: the computer keeps no statistics
};

/// Query-to-stored-vector distance abstraction used by all graph searches.
/// Read-only while searches run: per-query state lives in the QueryContext
/// each search passes in.
class DistanceComputer {
 public:
  virtual ~DistanceComputer() = default;

  /// Starts one search for flattened query `q` under `weights` (empty =
  /// the build weights; never fails). InvalidArgument when `weights` does
  /// not fit (single-vector computers take none).
  virtual Result<QueryContext> StartQuery(
      const float* q, const std::vector<float>& weights) const {
    if (!weights.empty()) {
      return Status::InvalidArgument("single-vector distance takes no weights");
    }
    return QueryContext(q, nullptr);
  }

  /// Exact distance from the context's query to row `id`.
  virtual float Distance(QueryContext* ctx, uint32_t id) const = 0;

  /// Distance with an early-abandon bound. May return any value > bound
  /// when the true distance exceeds `bound`.
  virtual float DistanceWithBound(QueryContext* ctx, uint32_t id,
                                  float bound) const {
    (void)bound;
    return Distance(ctx, id);
  }

  /// Exact distances from the query to ids[0..n). out[i] corresponds to
  /// ids[i]. Bitwise identical to n Distance() calls — the batch exists to
  /// overlap each row's memory fetch with the previous row's arithmetic.
  virtual void DistanceBatch(QueryContext* ctx, const uint32_t* ids, size_t n,
                             float* out) const {
    for (size_t i = 0; i < n; ++i) {
      if (i + 1 < n) Prefetch(ids[i + 1]);
      out[i] = Distance(ctx, ids[i]);
    }
  }

  /// Hints that row `id` will be scored soon.
  virtual void Prefetch(uint32_t id) const { (void)id; }

  /// True when DistanceWithBound can actually return early (pruning or
  /// prefiltering); callers may pick exact batch paths when false.
  virtual bool PrunesWithBound() const { return false; }

  /// Exact distance between two stored rows under the build weights (used
  /// at build time).
  virtual float DistanceBetween(uint32_t a, uint32_t b) const = 0;

  virtual uint32_t size() const = 0;
};

/// Single-vector distance over a store with a standard metric — the path
/// used by JE and by per-modality MR indexes.
class FlatDistanceComputer : public DistanceComputer {
 public:
  FlatDistanceComputer(const VectorStore* store, Metric metric)
      : store_(store), metric_(metric) {}

  float Distance(QueryContext* ctx, uint32_t id) const override {
    return ComputeDistance(metric_, ctx->query, store_->data(id),
                           store_->row_dim());
  }
  float DistanceBetween(uint32_t a, uint32_t b) const override {
    return ComputeDistance(metric_, store_->data(a), store_->data(b),
                           store_->row_dim());
  }
  void Prefetch(uint32_t id) const override { store_->Prefetch(id); }
  uint32_t size() const override { return store_->size(); }

 private:
  const VectorStore* store_;
  Metric metric_;
};

/// Weighted multi-vector distance with incremental-scanning pruning — the
/// MUST path. Accumulates DistanceStats for the pruning ablation.
///
/// When a BitSketchIndex is attached (SetSketches), StartQuery sketches the
/// query and DistanceWithBound first compares popcount sketches: an object
/// whose proven lower bound already exceeds the bound is rejected without
/// touching a single float. At the default sketch_scale of 1 this rejects
/// only objects the pruning bound would reject anyway, so recall is
/// provably unchanged (see vector/sketch.h).
class MultiVectorDistanceComputer : public DistanceComputer {
 public:
  MultiVectorDistanceComputer(const VectorStore* store,
                              WeightedMultiDistance dist, bool enable_pruning)
      : store_(store), dist_(std::move(dist)), pruning_(enable_pruning) {}

  Result<QueryContext> StartQuery(
      const float* q, const std::vector<float>& weights) const override;

  float Distance(QueryContext* ctx, uint32_t id) const override {
    ++ctx->counts.full_computations;
    ctx->counts.dims_scanned += store_->row_dim();
    return dist_.Exact(ctx->query, store_->data(id), ctx->weights);
  }

  float DistanceWithBound(QueryContext* ctx, uint32_t id,
                          float bound) const override;

  float DistanceBetween(uint32_t a, uint32_t b) const override {
    return dist_.Exact(store_->data(a), store_->data(b));
  }

  void Prefetch(uint32_t id) const override { store_->Prefetch(id); }

  bool PrunesWithBound() const override {
    return pruning_ || sketches_ != nullptr;
  }

  uint32_t size() const override { return store_->size(); }

  /// Attaches (or detaches, with nullptr) the prefilter sketches for
  /// searches started afterwards. Not owned; must outlive this computer or
  /// be detached first. `scale` multiplies the proven lower bound before
  /// the reject comparison: 1 is provably recall-neutral, > 1 trades
  /// recall for more rejects.
  void SetSketches(const BitSketchIndex* sketches, float scale = 1.0f) {
    sketches_ = sketches;
    sketch_scale_ = scale > 0.0f ? scale : 1.0f;
  }

  const DistanceStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }
  const WeightedMultiDistance& weighted_distance() const { return dist_; }
  /// Replaces the build weights (see WeightedMultiDistance::SetWeights).
  Status SetWeights(std::vector<float> w) {
    return dist_.SetWeights(std::move(w));
  }

 private:
  const VectorStore* store_;
  WeightedMultiDistance dist_;
  bool pruning_;
  const BitSketchIndex* sketches_ = nullptr;
  float sketch_scale_ = 1.0f;
  /// Written only by QueryContext folds (atomic adds), hence mutable.
  mutable DistanceStats stats_;
};

}  // namespace mqa

#endif  // MQA_VECTOR_VECTOR_STORE_H_
