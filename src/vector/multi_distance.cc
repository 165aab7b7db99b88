#include "vector/multi_distance.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "vector/simd/simd.h"

namespace mqa {

namespace {

/// Validates the weights and sorts the scan order heaviest first: the
/// largest contributions accumulate earliest, so a pruned scan's running
/// prefix crosses its bound as soon as possible.
Result<ModalityWeights> MakeWeights(const VectorSchema& schema,
                                    std::vector<float> weights) {
  MQA_RETURN_NOT_OK(ValidateWeights(schema, weights));
  ModalityWeights out;
  out.values = std::move(weights);
  out.scan_order.resize(out.values.size());
  for (size_t m = 0; m < out.scan_order.size(); ++m) out.scan_order[m] = m;
  std::stable_sort(out.scan_order.begin(), out.scan_order.end(),
                   [&out](size_t a, size_t b) {
                     return out.values[a] > out.values[b];
                   });
  return out;
}

}  // namespace

Result<WeightedMultiDistance> WeightedMultiDistance::Create(
    VectorSchema schema, std::vector<float> weights) {
  if (schema.num_modalities() == 0) {
    return Status::InvalidArgument("schema has no modalities");
  }
  MQA_ASSIGN_OR_RETURN(ModalityWeights w,
                       MakeWeights(schema, std::move(weights)));
  return WeightedMultiDistance(std::move(schema), std::move(w));
}

WeightedMultiDistance::WeightedMultiDistance(VectorSchema schema,
                                             ModalityWeights weights)
    : schema_(std::move(schema)), weights_(std::move(weights)) {
  offsets_.resize(schema_.num_modalities());
  size_t off = 0;
  for (size_t m = 0; m < schema_.num_modalities(); ++m) {
    offsets_[m] = off;
    off += schema_.dims[m];
  }
}

float WeightedMultiDistance::Exact(const float* q, const float* o,
                                   const ModalityWeights& w) const {
  // One fused dispatch call: the SIMD tiers carry the weighted accumulator
  // across modality segments in vector registers, with a single horizontal
  // reduction; the scalar tier reproduces the historical per-modality loop
  // bit for bit.
  return ActiveKernels().wl2sq(q, o, offsets_.data(), schema_.dims.data(),
                               w.values.data(), schema_.num_modalities());
}

void WeightedMultiDistance::ExactBatch(const float* q, const float* base,
                                       size_t stride, size_t n, float* out,
                                       const ModalityWeights& w) const {
  for (size_t i = 0; i < n; ++i) {
    const float* row = base + i * stride;
    if (i + 1 < n) {
      // Pull the next row toward L1 while this one is being reduced. One
      // hint per cache line; rows are stride floats apart.
      const float* next = row + stride;
      for (size_t b = 0; b < stride * sizeof(float); b += 64) {
        PrefetchRead(reinterpret_cast<const char*>(next) + b);
      }
    }
    out[i] = Exact(q, row, w);
  }
}

float WeightedMultiDistance::Pruned(const float* q, const float* o,
                                    float bound, const ModalityWeights& w,
                                    DistanceCounts* stats) const {
  // Modalities are scanned heaviest-weight first (see MakeWeights).
  float sum = 0.0f;
  for (size_t i = 0; i < w.scan_order.size(); ++i) {
    const size_t m = w.scan_order[i];
    const float wm = w.values[m];
    if (wm == 0.0f) continue;
    const size_t dim = schema_.dims[m];
    sum += wm * L2Sq(q + offsets_[m], o + offsets_[m], dim);
    if (stats != nullptr) stats->dims_scanned += dim;
    if (sum > bound) {
      if (stats != nullptr) {
        // Only count a prune when work was actually skipped.
        if (i + 1 < w.scan_order.size()) {
          ++stats->pruned_computations;
        } else {
          ++stats->full_computations;
        }
      }
      return sum;
    }
  }
  if (stats != nullptr) ++stats->full_computations;
  return sum;
}

Result<ModalityWeights> WeightedMultiDistance::QueryWeights(
    const std::vector<float>& weights) const {
  if (weights.empty()) return weights_;
  return MakeWeights(schema_, weights);
}

Status WeightedMultiDistance::SetWeights(std::vector<float> weights) {
  MQA_ASSIGN_OR_RETURN(weights_, MakeWeights(schema_, std::move(weights)));
  return Status::OK();
}

Status ValidateWeights(const VectorSchema& schema,
                       const std::vector<float>& weights) {
  if (weights.size() != schema.num_modalities()) {
    return Status::InvalidArgument("weights size does not match schema");
  }
  for (float w : weights) {
    if (w < 0.0f || !std::isfinite(w)) {
      return Status::InvalidArgument("modality weights must be finite and >= 0");
    }
  }
  return Status::OK();
}

Result<Vector> FlattenMultiVector(const VectorSchema& schema,
                                  const MultiVector& mv) {
  if (mv.num_modalities() != schema.num_modalities()) {
    return Status::InvalidArgument("multi-vector modality count mismatch");
  }
  Vector flat(schema.TotalDim());
  size_t off = 0;
  for (size_t m = 0; m < schema.num_modalities(); ++m) {
    if (mv.parts[m].size() != schema.dims[m]) {
      return Status::InvalidArgument("modality dimension mismatch");
    }
    std::memcpy(flat.data() + off, mv.parts[m].data(),
                schema.dims[m] * sizeof(float));
    off += schema.dims[m];
  }
  return flat;
}

Status ApplyWeightScaling(const VectorSchema& schema,
                          const std::vector<float>& weights, float* flat) {
  if (weights.size() != schema.num_modalities()) {
    return Status::InvalidArgument("weights size does not match schema");
  }
  size_t off = 0;
  for (size_t m = 0; m < schema.num_modalities(); ++m) {
    if (weights[m] < 0.0f) {
      return Status::InvalidArgument("modality weights must be >= 0");
    }
    const float s = std::sqrt(weights[m]);
    for (size_t i = 0; i < schema.dims[m]; ++i) flat[off + i] *= s;
    off += schema.dims[m];
  }
  return Status::OK();
}

}  // namespace mqa
