#include "retrieval/mr.h"

#include <unordered_set>

#include "vector/distance.h"

namespace mqa {

Result<std::unique_ptr<MrFramework>> MrFramework::Create(
    std::shared_ptr<const VectorStore> corpus, std::vector<float> weights,
    const IndexConfig& index_config, size_t candidate_factor) {
  if (corpus == nullptr || corpus->size() == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  if (candidate_factor == 0) {
    return Status::InvalidArgument("candidate_factor must be > 0");
  }
  weights = NormalizeWeights(std::move(weights));
  if (weights.size() != corpus->schema().num_modalities()) {
    return Status::InvalidArgument("weights do not match corpus schema");
  }

  std::unique_ptr<MrFramework> fw(new MrFramework());
  fw->corpus_ = std::move(corpus);
  fw->weights_ = std::move(weights);
  fw->candidate_factor_ = candidate_factor;

  const size_t num_m = fw->corpus_->schema().num_modalities();
  for (size_t m = 0; m < num_m; ++m) {
    MQA_ASSIGN_OR_RETURN(VectorStore sliced,
                         SlicePerModality(*fw->corpus_, m));
    auto store = std::make_unique<VectorStore>(std::move(sliced));
    auto dist =
        std::make_unique<FlatDistanceComputer>(store.get(), Metric::kL2);
    MQA_ASSIGN_OR_RETURN(
        std::unique_ptr<VectorIndex> index,
        CreateIndex(index_config, store.get(), std::move(dist)));
    fw->stores_.push_back(std::move(store));
    fw->indexes_.push_back(std::move(index));
  }
  return fw;
}

Result<RetrievalResult> MrFramework::Retrieve(
    const RetrievalQuery& query, const SearchParams& params) const {
  const VectorSchema& s = schema();
  if (query.modalities.parts.size() != s.num_modalities()) {
    return Status::InvalidArgument("query modality count mismatch");
  }
  const std::vector<float>& w =
      query.weights.empty() ? weights_ : query.weights;
  if (w.size() != s.num_modalities()) {
    return Status::InvalidArgument("query weights size mismatch");
  }

  RetrievalResult result;
  // Clock-based timing: see MustFramework::Retrieve.
  const int64_t start_micros = clock()->NowMicros();

  // Stage 1: independent per-modality searches. The tombstone filter is
  // applied here (per stream) so a deleted object never even reaches the
  // merge stage.
  std::unordered_set<uint32_t> candidates;
  SearchParams per_modality = WithoutTombstones(params);
  per_modality.k = params.k * candidate_factor_;
  per_modality.beam_width =
      std::max(params.beam_width, per_modality.k);
  std::vector<size_t> present;
  for (size_t m = 0; m < s.num_modalities(); ++m) {
    const Vector& part = query.modalities.parts[m];
    if (part.empty()) continue;
    if (part.size() != s.dims[m]) {
      return Status::InvalidArgument("query modality dimension mismatch");
    }
    present.push_back(m);
    MQA_ASSIGN_OR_RETURN(
        std::vector<Neighbor> hits,
        indexes_[m]->Search(part.data(), per_modality, &result.stats));
    for (const Neighbor& n : hits) candidates.insert(n.id);
  }
  if (present.empty()) {
    return Status::InvalidArgument("query has no present modality");
  }

  // Stage 2: merge — re-score the union with the weighted sum of
  // per-modality distances over the *present* modalities. The candidate
  // set is materialized so the next candidate's per-modality rows can be
  // prefetched while the current one is being reduced.
  TopK topk(params.k);
  std::vector<uint32_t> cand_list(candidates.begin(), candidates.end());
  for (size_t c = 0; c < cand_list.size(); ++c) {
    if (c + 1 < cand_list.size()) {
      for (size_t m : present) {
        PrefetchRead(stores_[m]->data(cand_list[c + 1]));
      }
    }
    const uint32_t id = cand_list[c];
    float fused = 0.0f;
    for (size_t m : present) {
      const Vector& part = query.modalities.parts[m];
      fused += w[m] * L2Sq(part.data(), stores_[m]->data(id),
                           s.dims[m]);
      ++result.stats.dist_comps;
    }
    topk.Push(fused, id);
  }
  result.neighbors = topk.TakeSorted();
  result.latency_ms =
      static_cast<double>(clock()->NowMicros() - start_micros) / 1e3;
  return result;
}

Status MrFramework::SetWeights(std::vector<float> weights) {
  if (weights.size() != schema().num_modalities()) {
    return Status::InvalidArgument("weights do not match corpus schema");
  }
  weights_ = NormalizeWeights(std::move(weights));
  return Status::OK();
}

Status MrFramework::Remove(uint32_t id) {
  return MarkRemoved(id, corpus_->size());
}

}  // namespace mqa
