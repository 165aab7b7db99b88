// Workload inputs: Zipf-skewed concept popularity, fixed-length dialogue
// sessions (an opening text query, then click-feedback or vague
// follow-ups), object fingerprints for the durability oracle, and the
// exact weighted brute-force top-k that defines recall (MUST's
// definition: weighted sum of per-modality squared L2 over live objects).
#ifndef PERFBENCH_DIALOGUE_H_
#define PERFBENCH_DIALOGUE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "retrieval/framework.h"
#include "storage/knowledge_base.h"
#include "storage/world.h"
#include "vector/vector_store.h"

namespace perfbench {

/// Rounds per dialogue session. Fixed so that prompt history (which the
/// program does not bound) stays the same size on every run.
constexpr size_t kRoundsPerSession = 4;

inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

/// Concept popularity: rank r is drawn with weight 1 / (r + 1); which
/// concept holds which rank is a seeded permutation (part of the dataset,
/// so fixed; the workload seed drives only the draws).
class Zipf {
 public:
  Zipf(uint32_t n, uint64_t seed) {
    mqa::Rng rng(seed);
    order_ = rng.Permutation(n);
    double sum = 0.0;
    for (uint32_t r = 0; r < n; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t Sample(mqa::Rng* rng) const {
    const double u = rng->UniformDouble();
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(r, order_.size() - 1)];
  }

 private:
  std::vector<uint32_t> order_;
  std::vector<double> cdf_;
};

enum class TurnKind : uint8_t { kText, kFeedback, kVague };

inline const char* TurnKindName(TurnKind kind) {
  switch (kind) {
    case TurnKind::kText:
      return "text";
    case TurnKind::kFeedback:
      return "feedback";
    case TurnKind::kVague:
      return "vague";
  }
  return "?";
}

struct PlannedTurn {
  TurnKind kind = TurnKind::kText;
  std::string text;
  size_t rank = 0;  ///< clicked result rank (feedback turns)
};

/// One user's dialogue. Round 0 is a text query about a Zipf-drawn
/// concept; later rounds click one of the top results and ask for a
/// refinement (an image+text feedback turn), or send a vague follow-up
/// that the query rewriter must resolve from history. Every round draws
/// the same random numbers whatever it turns into, so a session's
/// utterances depend only on its seed.
class SessionScript {
 public:
  SessionScript(const mqa::World* world, const Zipf* zipf, uint64_t seed)
      : world_(world), rng_(seed), concept_(zipf->Sample(&rng_)) {}

  bool done() const { return round_ >= kRoundsPerSession; }

  /// The next utterance; `results` is how many results the previous turn
  /// returned (a click needs one).
  PlannedTurn Next(size_t results) {
    static const char* const kVague[] = {"show me more", "any more of those",
                                         "what else do you have",
                                         "more like that please"};
    PlannedTurn t;
    if (round_ == 0) {
      t.text = world_->MakeTextQuery(concept_, &rng_).text;
    } else {
      const bool click = rng_.Bernoulli(0.5);
      const size_t rank = rng_.NextUint64(3);
      std::string refine = world_->MakeModification(concept_, &rng_).text;
      const char* vague = kVague[rng_.NextUint64(4)];
      if (click && results > 0) {
        t.kind = TurnKind::kFeedback;
        t.text = std::move(refine);
        t.rank = std::min(rank, results - 1);
      } else {
        t.kind = TurnKind::kVague;
        t.text = vague;
      }
    }
    ++round_;
    return t;
  }

 private:
  const mqa::World* world_;
  mqa::Rng rng_;
  uint32_t concept_;
  size_t round_ = 0;
};

/// FNV-1a over every payload of an object: identifies an object's content
/// across id re-densification (compaction) and across crash recovery.
inline uint64_t Fingerprint(const mqa::Object& object) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const mqa::Payload& p : object.modalities) {
    const uint32_t type = static_cast<uint32_t>(p.type);
    mix(&type, sizeof(type));
    mix(p.text.data(), p.text.size());
    mix(p.features.data(), p.features.size() * sizeof(float));
  }
  return h;
}

/// Exact top-k ids of `query` over the live rows of `store`, with the
/// framework's modality weights (or the query's override); absent
/// modalities weigh 0. Weight normalization scales every distance by the
/// same factor, so it cannot change the ranking and is not applied.
inline std::vector<uint32_t> ExactTopK(const mqa::VectorStore& store,
                                       const mqa::KnowledgeBase& kb,
                                       const mqa::RetrievalQuery& query,
                                       const std::vector<float>& weights,
                                       size_t k) {
  const mqa::VectorSchema& schema = store.schema();
  const size_t m = schema.num_modalities();
  std::vector<double> w(m, 0.0);
  std::vector<double> q(schema.TotalDim(), 0.0);
  size_t off = 0;
  for (size_t s = 0; s < m; ++s) {
    const mqa::Vector& part = query.modalities.parts[s];
    if (!part.empty() && part.size() == schema.dims[s]) {
      w[s] = query.weights.empty() ? weights[s] : query.weights[s];
      for (size_t d = 0; d < part.size(); ++d) q[off + d] = part[d];
    }
    off += schema.dims[s];
  }
  // Max-heap of the k best (distance, id) pairs seen so far.
  std::priority_queue<std::pair<double, uint32_t>> best;
  for (uint32_t id = 0; id < store.size(); ++id) {
    if (id < kb.size() && kb.IsDeleted(id)) continue;
    const float* row = store.data(id);
    double dist = 0.0;
    size_t o = 0;
    for (size_t s = 0; s < m; ++s) {
      double part = 0.0;
      for (size_t d = 0; d < schema.dims[s]; ++d) {
        const double diff = q[o + d] - static_cast<double>(row[o + d]);
        part += diff * diff;
      }
      dist += w[s] * part;
      o += schema.dims[s];
    }
    if (best.size() < k) {
      best.emplace(dist, id);
    } else if (dist < best.top().first) {
      best.pop();
      best.emplace(dist, id);
    }
  }
  std::vector<uint32_t> ids;
  while (!best.empty()) {
    ids.push_back(best.top().second);
    best.pop();
  }
  std::reverse(ids.begin(), ids.end());
  return ids;
}

/// |returned ∩ exact| / |exact|.
inline double RecallOf(const std::vector<uint32_t>& returned,
                       const std::vector<uint32_t>& exact) {
  if (exact.empty()) return 1.0;
  size_t hit = 0;
  for (uint32_t id : exact) {
    hit += std::find(returned.begin(), returned.end(), id) != returned.end();
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_DIALOGUE_H_
