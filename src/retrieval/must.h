#ifndef MQA_RETRIEVAL_MUST_H_
#define MQA_RETRIEVAL_MUST_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "diskindex/disk_index.h"
#include "retrieval/framework.h"

namespace mqa {

/// The MUST framework (the paper's contribution): multi-vector object
/// representation with learned modality weights, one unified navigation
/// graph over all modalities, and *merging-free* search — a single graph
/// traversal computes the weighted multi-vector distance with incremental
/// scanning, instead of merging per-modality result lists.
class MustFramework : public RetrievalFramework {
 public:
  /// Builds the unified index over the encoded corpus with the given
  /// modality weights (typically from the weight learner). `enable_pruning`
  /// toggles the incremental-scanning distance (ablation knob). With a
  /// non-null `saved_graph` (a GraphIndex blob written by GraphIndex::Save,
  /// see core/persistence.h) the flat graph is loaded instead of built;
  /// everything else — sketches, pruning, weights — follows `index_config`
  /// exactly as for a fresh build.
  static Result<std::unique_ptr<MustFramework>> Create(
      std::shared_ptr<const VectorStore> corpus, std::vector<float> weights,
      const IndexConfig& index_config, bool enable_pruning = true,
      BuildReport* report = nullptr, std::istream* saved_graph = nullptr);

  Result<RetrievalResult> Retrieve(const RetrievalQuery& query,
                                   const SearchParams& params) const override;

  std::string name() const override { return "must"; }
  const VectorSchema& schema() const override { return corpus_->schema(); }
  const std::vector<float>& weights() const override { return weights_; }
  Status SetWeights(std::vector<float> weights) override;

  /// Tombstones `id`: excluded from every subsequent Retrieve, physically
  /// evicted by CompactTombstones. Works for all index kinds (the filter
  /// is applied inside the search).
  Status Remove(uint32_t id) override;

  /// Rebuilds the flat navigation graph without the tombstoned nodes,
  /// after the caller has already compacted the shared corpus store in
  /// place per `remap` (old id -> new dense id / kTombstonedId; see
  /// TombstoneSet::BuildRemap). Adjacency is spliced, not re-derived, so
  /// this is much cheaper than a fresh build. Unimplemented for non-flat
  /// index kinds — callers fall back to a full rebuild.
  Status CompactTombstones(const std::vector<uint32_t>& remap,
                           uint32_t live_count,
                           const GraphBuildConfig& config);

  /// Whether IngestAppended can succeed for the underlying index type.
  bool SupportsLiveIngestion() const;

  /// The underlying flat graph index, or nullptr for other index kinds
  /// (used by system persistence).
  const GraphIndex* flat_graph_index() const {
    return dynamic_cast<const GraphIndex*>(index_.get());
  }

  /// Incremental ingestion: after the caller appended one encoded
  /// multi-vector row to the shared corpus store, links it into the
  /// underlying index. Supported for flat graph indexes, HNSW and
  /// bruteforce; the disk-resident index is immutable (rebuild instead).
  Status IngestAppended(const GraphBuildConfig& config);

  /// Pruning counters accumulated by the incremental scan (MUST-E4).
  /// Empty when the index manages distances itself (starling).
  const DistanceStats& distance_stats() const;
  void ResetDistanceStats() {
    if (dist_ != nullptr) dist_->ResetStats();
  }

 private:
  MustFramework() = default;

  std::shared_ptr<const VectorStore> corpus_;
  std::vector<float> weights_;
  bool pruning_ = true;
  std::unique_ptr<VectorIndex> index_;
  // The in-memory index's distance computer (owned by index_); nullptr
  // for the disk-resident index, which owns its own distance.
  MultiVectorDistanceComputer* dist_ = nullptr;
  // Popcount prefilter sketches over the corpus rows (in-memory indexes
  // only; nullptr when disabled or disk-resident). Appended on ingestion,
  // rebuilt on compaction; attached to dist_ via SetSketches.
  std::unique_ptr<BitSketchIndex> sketches_;
  float sketch_scale_ = 1.0f;
};

}  // namespace mqa

#endif  // MQA_RETRIEVAL_MUST_H_
