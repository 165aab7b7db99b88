#ifndef MQA_GRAPH_SEARCH_H_
#define MQA_GRAPH_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "common/random.h"
#include "common/topk.h"
#include "graph/graph.h"
#include "graph/index.h"
#include "vector/vector_store.h"

namespace mqa {

/// The best-first traversal behind BeamSearch and HNSW's per-layer search:
/// starts from `seeds` (already scored, distinct), repeatedly expands the
/// closest unexpanded vertex over `neighbors_of(id)` (a range of ids in
/// [0, num_nodes)), and stops when the beam can no longer improve. The
/// other parameters and the result are as for BeamSearch.
template <typename NeighborsOf>
std::vector<Neighbor> BestFirstSearch(const DistanceComputer* dist,
                                      QueryContext* query, uint32_t num_nodes,
                                      const std::vector<Neighbor>& seeds,
                                      const NeighborsOf& neighbors_of,
                                      size_t k, size_t beam_width,
                                      SearchStats* stats,
                                      std::vector<Neighbor>* evaluated,
                                      const SearchFilter& filter) {
  std::vector<bool> visited(num_nodes, false);
  // Candidate frontier: min-heap by distance.
  auto cand_greater = [](const Neighbor& a, const Neighbor& b) {
    return NeighborLess(b, a);
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(cand_greater)>
      frontier(cand_greater);
  // The beam steers navigation over every vertex; with a filter active,
  // admissible results are collected separately.
  TopK beam(std::max(beam_width, k));
  TopK admitted(k);
  auto offer = [&](float d, uint32_t id) {
    frontier.push({d, id});
    beam.Push(d, id);
    if (filter && filter(id)) admitted.Push(d, id);
  };
  for (const Neighbor& seed : seeds) {
    visited[seed.id] = true;
    offer(seed.distance, seed.id);
  }

  // Adjacency-scan scratch, reused across hops. Unvisited neighbors are
  // collected first and their rows prefetched together, so by the time each
  // one is scored its vector is already on the way to L1; scoring order and
  // bound updates are exactly those of the one-pass loop.
  std::vector<uint32_t> to_score;
  while (!frontier.empty()) {
    const Neighbor current = frontier.top();
    frontier.pop();
    // Termination: the closest unexpanded candidate cannot improve the beam.
    if (beam.Full() && current.distance > beam.WorstDistance()) break;
    if (stats != nullptr) ++stats->hops;
    to_score.clear();
    for (uint32_t nbr : neighbors_of(current.id)) {
      if (visited[nbr]) continue;
      visited[nbr] = true;
      to_score.push_back(nbr);
    }
    for (uint32_t nbr : to_score) dist->Prefetch(nbr);
    for (uint32_t nbr : to_score) {
      const float bound = beam.Full() ? beam.WorstDistance()
                                      : std::numeric_limits<float>::max();
      const float d = dist->DistanceWithBound(query, nbr, bound);
      if (stats != nullptr) ++stats->dist_comps;
      if (d > bound) continue;  // pruned: cannot enter the beam
      if (evaluated != nullptr) evaluated->push_back({d, nbr});
      offer(d, nbr);
    }
  }
  std::vector<Neighbor> results =
      filter ? admitted.TakeSorted() : beam.TakeSorted();
  if (results.size() > k) results.resize(k);
  return results;
}

/// Best-first beam search over a navigation graph — the paper's "Query
/// Execution" traversal: start at the entry vertices, repeatedly expand the
/// closest unexpanded vertex, stop when the beam can no longer improve.
/// Distances from `query` (a context started on `dist`) go through
/// `dist->DistanceWithBound`, so the incremental multi-vector scan prunes
/// against the current beam frontier.
///
/// Returns the k best results sorted ascending. When `evaluated` is given,
/// every (distance, id) actually scored is appended (build-time candidate
/// pools). `stats` may be null. When `filter` is set, filtered-out
/// vertices are still traversed (they keep the graph navigable) but only
/// admitted ids are returned.
std::vector<Neighbor> BeamSearch(const AdjacencyGraph& graph,
                                 const DistanceComputer* dist,
                                 QueryContext* query,
                                 const std::vector<uint32_t>& entries,
                                 size_t k, size_t beam_width,
                                 SearchStats* stats,
                                 std::vector<Neighbor>* evaluated = nullptr,
                                 const SearchFilter& filter = nullptr);

/// Approximate medoid: the sampled node minimizing total distance to a
/// random sample. Deterministic given the rng seed.
uint32_t ApproximateMedoid(DistanceComputer* dist, Rng* rng,
                           uint32_t sample_size = 128);

/// A flat navigation-graph index (NSG / Vamana / KGraph / MQA-hybrid
/// results all live here): graph + distance computer + entry points.
class GraphIndex : public VectorIndex {
 public:
  GraphIndex(std::string name, AdjacencyGraph graph,
             std::unique_ptr<DistanceComputer> dist,
             std::vector<uint32_t> entry_points)
      : name_(std::move(name)),
        graph_(std::move(graph)),
        dist_(std::move(dist)),
        entry_points_(std::move(entry_points)) {}

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params,
                                       SearchStats* stats) const override;

  std::string name() const override { return name_; }
  uint32_t size() const override { return graph_.num_nodes(); }
  uint64_t MemoryBytes() const override { return graph_.MemoryBytes(); }

  const AdjacencyGraph& graph() const { return graph_; }
  AdjacencyGraph* mutable_graph() { return &graph_; }
  DistanceComputer* distance() { return dist_.get(); }
  const std::vector<uint32_t>& entry_points() const { return entry_points_; }

  /// Persists name + graph + entry points (vectors are stored separately
  /// in the VectorStore).
  Status Save(std::ostream& out) const;

  /// Restores an index saved with Save(). The caller supplies a distance
  /// computer over the matching vector store.
  static Result<std::unique_ptr<GraphIndex>> Load(
      std::istream& in, std::unique_ptr<DistanceComputer> dist);

 private:
  std::string name_;
  AdjacencyGraph graph_;
  std::unique_ptr<DistanceComputer> dist_;
  std::vector<uint32_t> entry_points_;
};

/// Exhaustive scan baseline. Exact, O(N) per query; also benefits from
/// bound-pruned distances once the top-k fills up.
class BruteForceIndex : public VectorIndex {
 public:
  explicit BruteForceIndex(std::unique_ptr<DistanceComputer> dist)
      : dist_(std::move(dist)) {}

  Result<std::vector<Neighbor>> Search(const float* query,
                                       const SearchParams& params,
                                       SearchStats* stats) const override;

  std::string name() const override { return "bruteforce"; }
  uint32_t size() const override { return dist_->size(); }
  uint64_t MemoryBytes() const override { return 0; }


 private:
  std::unique_ptr<DistanceComputer> dist_;
};

}  // namespace mqa

#endif  // MQA_GRAPH_SEARCH_H_
