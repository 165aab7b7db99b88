#ifndef MQA_GRAPH_INDEX_H_
#define MQA_GRAPH_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/topk.h"

namespace mqa {

/// Predicate deciding whether a stored id may appear in the results.
/// Filtered-out vertices are still traversed (they keep the graph
/// navigable); they just cannot be returned.
using SearchFilter = std::function<bool(uint32_t)>;

/// Per-query search knobs. `beam_width` (a.k.a. ef / L) trades accuracy for
/// speed; searches return min(k, beam_width) results. `filter` (optional)
/// restricts which ids are eligible as results — attribute-constrained
/// search.
struct SearchParams {
  size_t k = 10;
  size_t beam_width = 64;
  SearchFilter filter;
  std::vector<float> weights;  ///< per-query modality weights; empty = build
};

/// Per-query search counters (accumulated when a pointer is supplied).
struct SearchStats {
  uint64_t hops = 0;        ///< vertices expanded
  uint64_t dist_comps = 0;  ///< distance evaluations issued
  uint64_t io_errors = 0;   ///< failed page reads (disk-resident indexes)
  /// True when I/O failures degraded the query to partial (cache-only)
  /// results; the neighbors returned are still sorted and valid, but the
  /// traversal could not expand everything it wanted to.
  bool partial = false;
  /// Shard coverage of a fanned-out query (sharded retrieval only; both
  /// stay 0 on single-index searches). shards_ok < shards_total means some
  /// shards' corpora are missing from the results — a coverage gap, which
  /// is distinct from `partial` (an individual index truncating its own
  /// traversal).
  uint32_t shards_total = 0;
  uint32_t shards_ok = 0;

  /// Folds another stats block into this one: counters add, `partial`
  /// ORs, shard coverage adds per side. The one merge rule shared by the
  /// in-memory graph, the disk index and the sharded fan-out.
  void Merge(const SearchStats& other) {
    hops += other.hops;
    dist_comps += other.dist_comps;
    io_errors += other.io_errors;
    partial = partial || other.partial;
    shards_total += other.shards_total;
    shards_ok += other.shards_ok;
  }

  void Reset() { *this = SearchStats{}; }
};

/// The common query interface over every index in MQA (graphs, brute force,
/// disk-resident). Queries are flattened vectors in the index's space.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// k-nearest-neighbor search. Results are sorted ascending by distance.
  /// Thread-safe: concurrent searches may share one index, as long as no
  /// write (ingestion, compaction, weight change) runs at the same time.
  virtual Result<std::vector<Neighbor>> Search(const float* query,
                                               const SearchParams& params,
                                               SearchStats* stats) const = 0;

  virtual std::string name() const = 0;
  virtual uint32_t size() const = 0;

  /// Approximate index memory footprint in bytes (structure only, not the
  /// vectors).
  virtual uint64_t MemoryBytes() const = 0;
};

}  // namespace mqa

#endif  // MQA_GRAPH_INDEX_H_
