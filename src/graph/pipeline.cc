#include "graph/pipeline.h"

#include <algorithm>
#include <unordered_set>

#include "common/metrics.h"
#include "common/timer.h"
#include "common/tombstones.h"
#include "common/trace.h"
#include "graph/nn_descent.h"

namespace mqa {

namespace {

/// Mutable state threaded through the pipeline stages.
struct BuildState {
  GraphBuildConfig config;
  const VectorStore* store = nullptr;
  DistanceComputer* dist = nullptr;
  AdjacencyGraph graph;
  uint32_t medoid = 0;
  Rng rng{42};
};

/// One named stage of the construction pipeline.
struct Stage {
  const char* name;
  Status (*run)(BuildState*);
};

/// Links vertex `u` (whose vector is `vec`) into `graph`, DiskANN style:
/// beam-search for `vec` from `entries`, pool the evaluated vertices with
/// u's current neighbors, RobustPrune the pool into u's list, then insert
/// reverse edges, pruning a neighbor's list on overflow. Returns u's new
/// neighbor list.
std::vector<uint32_t> LinkVertex(AdjacencyGraph* graph, DistanceComputer* dist,
                                 const float* vec, uint32_t u,
                                 const std::vector<uint32_t>& entries,
                                 float alpha, uint32_t max_degree,
                                 uint32_t beam) {
  std::vector<Neighbor> evaluated;
  QueryContext q = dist->StartQuery(vec, {}).Value();
  BeamSearch(*graph, dist, &q, entries, /*k=*/1, beam, nullptr, &evaluated);
  for (uint32_t v : graph->neighbors(u)) {
    evaluated.push_back({dist->DistanceBetween(u, v), v});
  }
  std::vector<uint32_t> selected =
      RobustPrune(u, std::move(evaluated), alpha, max_degree, dist);
  graph->SetNeighbors(u, selected);
  for (uint32_t v : selected) {
    auto* vn = graph->mutable_neighbors(v);
    if (std::find(vn->begin(), vn->end(), u) != vn->end()) continue;
    vn->push_back(u);
    if (vn->size() > max_degree) {
      std::vector<Neighbor> pool;
      pool.reserve(vn->size());
      for (uint32_t w : *vn) pool.push_back({dist->DistanceBetween(v, w), w});
      graph->SetNeighbors(
          v, RobustPrune(v, std::move(pool), alpha, max_degree, dist));
    }
  }
  return selected;
}

// --- Stage bodies -----------------------------------------------------

/// Initialization: approximate kNN lists via NN-Descent.
Status StageInitNNDescent(BuildState* s) {
  MQA_ASSIGN_OR_RETURN(
      s->graph, BuildNNDescentGraph(s->dist, s->config.nn_descent_k,
                                    s->config.nn_descent_iters, &s->rng));
  return Status::OK();
}

/// Initialization: random regular graph (Vamana style).
Status StageInitRandom(BuildState* s) {
  const uint32_t n = s->dist->size();
  const uint32_t r = std::min(s->config.max_degree, n > 1 ? n - 1 : 0);
  AdjacencyGraph graph(n);
  for (uint32_t u = 0; u < n && r > 0; ++u) {
    std::unordered_set<uint32_t> chosen;
    std::vector<uint32_t> nbrs;
    nbrs.reserve(r);
    while (nbrs.size() < r) {
      uint32_t v = static_cast<uint32_t>(s->rng.NextUint64(n - 1));
      if (v >= u) ++v;
      if (chosen.insert(v).second) nbrs.push_back(v);
    }
    graph.SetNeighbors(u, std::move(nbrs));
  }
  s->graph = std::move(graph);
  return Status::OK();
}

/// Seed acquisition: the medoid is the fixed entry point of build-time and
/// query-time searches.
Status StageSeed(BuildState* s) {
  s->medoid = ApproximateMedoid(s->dist, &s->rng);
  return Status::OK();
}

/// Neighbor selection only (KGraph): truncate kNN lists to max_degree.
Status StageTruncate(BuildState* s) {
  const uint32_t r = s->config.max_degree;
  for (uint32_t u = 0; u < s->graph.num_nodes(); ++u) {
    auto* nbrs = s->graph.mutable_neighbors(u);
    if (nbrs->size() > r) nbrs->resize(r);
  }
  return Status::OK();
}

/// Candidate acquisition + neighbor selection, fused per vertex as in the
/// reference implementations: every vertex, in a random order, is re-linked
/// from the medoid with diversification factor `alpha`.
Status Refine(BuildState* s, float alpha) {
  const std::vector<uint32_t> entries{s->medoid};
  for (uint32_t u : s->rng.Permutation(s->graph.num_nodes())) {
    LinkVertex(&s->graph, s->dist, s->store->data(u), u, entries, alpha,
               s->config.max_degree, s->config.build_beam);
  }
  return Status::OK();
}

/// Refinement with the MRNG rule (alpha = 1), as NSG and Vamana's first
/// pass use it.
Status StageRefineMrng(BuildState* s) { return Refine(s, 1.0f); }

/// Refinement with the configured alpha.
Status StageRefineAlpha(BuildState* s) { return Refine(s, s->config.alpha); }

/// Connectivity assurance: repeatedly attach components unreachable from
/// the medoid, NSG-style (link the nearest reachable vertex to one
/// unreachable vertex per round, falling back to a direct medoid edge).
Status StageConnect(BuildState* s) {
  for (int round = 0; round < 64; ++round) {
    const std::vector<bool> reachable = s->graph.ReachableSet(s->medoid);
    const auto it = std::find(reachable.begin(), reachable.end(), false);
    if (it == reachable.end()) return Status::OK();
    const auto unreachable = static_cast<uint32_t>(it - reachable.begin());

    // Find the reachable vertex nearest to it and link from there.
    QueryContext q =
        s->dist->StartQuery(s->store->data(unreachable), {}).Value();
    std::vector<Neighbor> near = BeamSearch(
        s->graph, s->dist, &q, {s->medoid}, 1, s->config.build_beam, nullptr);
    uint32_t attach = near.empty() ? s->medoid : near[0].id;
    if (attach == unreachable) attach = s->medoid;
    s->graph.AddEdge(attach, unreachable);
  }
  // Give up gracefully: link any remaining stragglers straight to the
  // medoid so search never dead-ends.
  const std::vector<bool> reachable = s->graph.ReachableSet(s->medoid);
  for (uint32_t u = 0; u < s->graph.num_nodes(); ++u) {
    if (!reachable[u]) s->graph.AddEdge(s->medoid, u);
  }
  return Status::OK();
}

/// The stages of `algorithm`, in run order; empty for an unknown name.
std::vector<Stage> StagesFor(const std::string& algorithm) {
  if (algorithm == "kgraph") {
    return {{"initialization", StageInitNNDescent},
            {"seed_acquisition", StageSeed},
            {"neighbor_selection", StageTruncate}};
  }
  if (algorithm == "nsg") {
    return {{"initialization", StageInitNNDescent},
            {"seed_acquisition", StageSeed},
            {"refinement", StageRefineMrng},
            {"connectivity", StageConnect}};
  }
  if (algorithm == "vamana") {
    return {{"initialization", StageInitRandom},
            {"seed_acquisition", StageSeed},
            {"refinement_pass1", StageRefineMrng},
            {"refinement_pass2", StageRefineAlpha},
            {"connectivity", StageConnect}};
  }
  if (algorithm == "mqa-hybrid") {
    return {{"initialization", StageInitNNDescent},
            {"seed_acquisition", StageSeed},
            {"refinement", StageRefineAlpha},
            {"connectivity", StageConnect}};
  }
  return {};
}

}  // namespace

std::vector<uint32_t> RobustPrune(uint32_t node,
                                  std::vector<Neighbor> candidates,
                                  float alpha, uint32_t max_degree,
                                  DistanceComputer* dist) {
  std::sort(candidates.begin(), candidates.end(), NeighborLess);
  // Dedupe (sorted by distance; equal ids may appear at different ranks,
  // so dedupe by id with a set).
  std::unordered_set<uint32_t> seen;
  std::vector<Neighbor> pool;
  pool.reserve(candidates.size());
  for (const Neighbor& c : candidates) {
    if (c.id == node) continue;
    if (seen.insert(c.id).second) pool.push_back(c);
  }

  std::vector<uint32_t> selected;
  std::vector<bool> occluded(pool.size(), false);
  for (size_t i = 0; i < pool.size() && selected.size() < max_degree; ++i) {
    if (occluded[i]) continue;
    const Neighbor& p = pool[i];
    selected.push_back(p.id);
    for (size_t j = i + 1; j < pool.size(); ++j) {
      if (occluded[j]) continue;
      const float d_pc = dist->DistanceBetween(p.id, pool[j].id);
      if (alpha * d_pc <= pool[j].distance) occluded[j] = true;
    }
  }
  return selected;
}

Result<std::unique_ptr<GraphIndex>> BuildGraphIndex(
    const GraphBuildConfig& config, const VectorStore* store,
    std::unique_ptr<DistanceComputer> dist, BuildReport* report) {
  if (store == nullptr || dist == nullptr) {
    return Status::InvalidArgument("store and distance computer are required");
  }
  if (store->size() == 0) {
    return Status::FailedPrecondition("cannot build an index over 0 vectors");
  }
  if (config.max_degree == 0) {
    return Status::InvalidArgument("max_degree must be > 0");
  }
  const std::string& algo = config.algorithm;
  const std::vector<Stage> stages = StagesFor(algo);
  if (stages.empty()) {
    return Status::InvalidArgument("unknown graph algorithm: " + algo);
  }

  BuildState state;
  state.config = config;
  state.store = store;
  state.dist = dist.get();
  state.rng = Rng(config.seed);

  // Run the stages in order, one span and one timing each; the first
  // failing stage ends the build with its status.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  std::vector<StageReport> stage_reports;
  Timer timer;
  for (const Stage& stage : stages) {
    Span span(std::string("dag/") + stage.name);
    Timer stage_timer;
    const Status st = stage.run(&state);
    const double ms = stage_timer.ElapsedMillis();
    metrics.GetHistogram("dag/stage_ms")->Record(ms);
    if (!st.ok()) {
      metrics.GetCounter("dag/stage_failures")->Increment();
      return st;
    }
    stage_reports.push_back(StageReport{stage.name, ms});
  }
  const double total = timer.ElapsedSeconds();

  if (report != nullptr) {
    report->algorithm = algo;
    report->total_seconds = total;
    report->stages = std::move(stage_reports);
    report->avg_degree = state.graph.AverageDegree();
    report->max_degree = state.graph.MaxDegree();
    report->medoid = state.medoid;
    report->connected = state.graph.IsConnectedFrom(state.medoid);
  }

  // Entry points: the medoid. A raw kNN graph (kgraph) has no long-range
  // links, so searches also start from random restarts to reach every
  // cluster — the standard KGraph search recipe.
  std::vector<uint32_t> entries{state.medoid};
  if (algo == "kgraph") {
    Rng entry_rng(config.seed ^ 0xe27);
    const uint32_t n = state.graph.num_nodes();
    for (uint32_t e : entry_rng.SampleWithoutReplacement(
             n, std::min<uint32_t>(n, 16))) {
      entries.push_back(e);
    }
  }
  return std::make_unique<GraphIndex>(algo, std::move(state.graph),
                                      std::move(dist), std::move(entries));
}

std::vector<std::string> GraphAlgorithms() {
  return {"kgraph", "nsg", "vamana", "mqa-hybrid"};
}

Status InsertIntoGraphIndex(GraphIndex* index, const VectorStore* store,
                            uint32_t new_id, const GraphBuildConfig& config) {
  if (index == nullptr || store == nullptr) {
    return Status::InvalidArgument("index and store are required");
  }
  AdjacencyGraph* graph = index->mutable_graph();
  if (new_id != graph->num_nodes()) {
    return Status::InvalidArgument("ids must stay dense: expected id " +
                                   std::to_string(graph->num_nodes()));
  }
  if (new_id >= store->size()) {
    return Status::FailedPrecondition(
        "the new vector must be in the store before insertion");
  }
  graph->AddNode();
  const std::vector<uint32_t> selected = LinkVertex(
      graph, index->distance(), store->data(new_id), new_id,
      index->entry_points(), config.alpha, config.max_degree,
      config.build_beam);
  // Degenerate safety: an empty selection (e.g. first insert into a
  // 1-node graph) still needs reachability.
  if (selected.empty() && new_id > 0) {
    graph->AddEdge(index->entry_points().empty()
                       ? 0
                       : index->entry_points()[0],
                   new_id);
  }
  return Status::OK();
}

Result<AdjacencyGraph> CompactAdjacency(const AdjacencyGraph& graph,
                                        const std::vector<uint32_t>& remap,
                                        uint32_t live_count,
                                        uint32_t max_degree) {
  if (remap.size() != graph.num_nodes()) {
    return Status::InvalidArgument("remap size does not match graph");
  }
  if (live_count == 0) {
    return Status::FailedPrecondition("cannot compact to an empty graph");
  }
  AdjacencyGraph compacted(live_count);
  std::vector<bool> visited(graph.num_nodes(), false);
  std::vector<uint32_t> queue;
  for (uint32_t node = 0; node < graph.num_nodes(); ++node) {
    const uint32_t new_id = remap[node];
    if (new_id == kTombstonedId) continue;
    // Splice: BFS through chains of dead neighbors; the first live node
    // on every such path becomes a direct edge.
    std::vector<uint32_t> selected;
    queue.clear();
    visited[node] = true;
    for (uint32_t n : graph.neighbors(node)) queue.push_back(n);
    for (size_t head = 0; head < queue.size(); ++head) {
      const uint32_t n = queue[head];
      if (visited[n]) continue;
      visited[n] = true;
      if (remap[n] != kTombstonedId) {
        selected.push_back(remap[n]);
        if (selected.size() >= max_degree) break;
      } else {
        for (uint32_t next : graph.neighbors(n)) queue.push_back(next);
      }
    }
    // Reset only the nodes this BFS touched (cheaper than a full clear).
    visited[node] = false;
    for (uint32_t n : queue) visited[n] = false;
    compacted.SetNeighbors(new_id, std::move(selected));
  }
  return compacted;
}

}  // namespace mqa
