// Turns run straight on a Coordinator: timed AskWithState calls, and the
// layer probe that replays a turn as the public calls AskWithState makes,
// each in a benchmark-owned span.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "dialogue.h"
#include "harness.h"
#include "report.h"
#include "retrieval/must.h"

namespace perfbench {

using mqa::AnswerTurn;
using mqa::Coordinator;
using mqa::Result;
using mqa::Status;
using mqa::UserQuery;

/// What a turn returned, kept for the gates and the recall oracle.
struct TurnResult {
  bool ok = false;
  bool answered = false;
  std::vector<uint32_t> ids;
};

inline TurnResult Summarize(const Result<AnswerTurn>& turn) {
  TurnResult out;
  out.ok = turn.ok();
  if (!turn.ok()) return out;
  out.answered = !turn.Value().answer.empty();
  for (const mqa::Neighbor& n : turn.Value().retrieval.neighbors) {
    out.ids.push_back(n.id);
  }
  return out;
}

/// Snapshot of MustFramework::distance_stats() (all zero for indexes that
/// compute distances themselves, such as Starling). Read around single
/// Retrieve calls only: compaction replaces the counters' owner.
struct DistanceCounts {
  uint64_t full = 0, pruned = 0, dims = 0, sketch = 0;
  static DistanceCounts Of(Coordinator* coordinator) {
    DistanceCounts c;
    auto* must = dynamic_cast<mqa::MustFramework*>(coordinator->framework());
    if (must == nullptr) return c;
    const mqa::DistanceStats& s = must->distance_stats();
    c.full = s.full_computations.load();
    c.pruned = s.pruned_computations.load();
    c.dims = s.dims_scanned.load();
    c.sketch = s.sketch_rejects.load();
    return c;
  }
  /// Adds `after - before` (one call's worth) to this total.
  void AddDelta(const DistanceCounts& after, const DistanceCounts& before) {
    full += after.full - before.full;
    pruned += after.pruned - before.pruned;
    dims += after.dims - before.dims;
    sketch += after.sketch - before.sketch;
  }
};

/// Layer timings of probed turns, in microseconds, plus per-turn counts.
struct ProbeSamples {
  Samples turn, rewrite, encode_text, encode_feedback, retrieve, answer;
  Samples hops, dist_comps, prompt_chars;
  uint64_t rewritten = 0;
  DistanceCounts distance;  ///< summed over the probed Retrieve calls
};

/// Runs one turn as the sequence of public calls Coordinator::AskWithState
/// makes — rewrite, encode, retrieve, answer — each in a benchmark-owned
/// span under a "core.turn" span. `state` is a twin of the real session's
/// dialogue state and is advanced exactly as the real turn advances it.
/// The returned ids let the next feedback turn click a result.
inline Result<TurnResult> ProbeTurn(Coordinator* coordinator,
                                    Coordinator::DialogueState* state,
                                    const UserQuery& query, TurnKind kind,
                                    mqa::Trace* trace, ProbeSamples* out) {
  mqa::QueryExecutor executor(&coordinator->kb(), &coordinator->encoders(),
                              coordinator->framework());
  const int64_t t0 = NowNs();
  SpanScope root(trace, "core.turn");
  UserQuery effective = query;
  {
    SpanScope span(trace, "llm.rewrite", root.id());
    const int64_t s = NowNs();
    Result<std::string> rewritten = state->rewriter.RewriteChecked(query.text);
    out->rewrite.Add(static_cast<double>(NowNs() - s) / 1e3);
    if (!rewritten.ok()) return rewritten.status();
    out->rewritten += rewritten.Value() != query.text;
    effective.text = rewritten.Value();
  }
  state->rewriter.ObserveTurn(query.text);
  mqa::RetrievalQuery rq;
  {
    SpanScope span(trace, "encoder.encode", root.id());
    const int64_t s = NowNs();
    Result<mqa::RetrievalQuery> encoded = executor.EncodeUserQuery(effective);
    const double us = static_cast<double>(NowNs() - s) / 1e3;
    (kind == TurnKind::kFeedback ? out->encode_feedback : out->encode_text)
        .Add(us);
    if (!encoded.ok()) return encoded.status();
    rq = std::move(encoded).Value();
  }
  mqa::RetrievalResult retrieved;
  {
    SpanScope span(trace, "retrieval.retrieve", root.id());
    const DistanceCounts before = DistanceCounts::Of(coordinator);
    const int64_t s = NowNs();
    Result<mqa::RetrievalResult> r =
        coordinator->framework()->Retrieve(rq, coordinator->config().search);
    out->retrieve.Add(static_cast<double>(NowNs() - s) / 1e3);
    out->distance.AddDelta(DistanceCounts::Of(coordinator), before);
    if (!r.ok()) return r.status();
    retrieved = std::move(r).Value();
  }
  out->hops.Add(static_cast<double>(retrieved.stats.hops));
  out->dist_comps.Add(static_cast<double>(retrieved.stats.dist_comps));
  std::optional<uint32_t> preferred;
  if (query.selected_object.has_value()) {
    Result<const mqa::Object*> sel =
        coordinator->kb().Get(*query.selected_object);
    if (!sel.ok()) return sel.status();
    preferred = sel.Value()->concept_id;
  }
  TurnResult result;
  std::vector<mqa::RetrievedItem> items;
  for (const mqa::Neighbor& n : retrieved.neighbors) {
    Result<const mqa::Object*> obj = coordinator->kb().Get(n.id);
    if (!obj.ok()) return obj.status();
    mqa::RetrievedItem item{n.id, mqa::DescribeObject(*obj.Value()),
                            n.distance};
    item.preferred = preferred == obj.Value()->concept_id;
    items.push_back(std::move(item));
    result.ids.push_back(n.id);
  }
  {
    SpanScope span(trace, "llm.answer", root.id());
    mqa::GenerationOutcome generation;
    const int64_t s = NowNs();
    Result<std::string> answer = coordinator->answer_generator()->GenerateTurn(
        query.text, items, &state->prompt, &generation);
    out->answer.Add(static_cast<double>(NowNs() - s) / 1e3);
    if (!answer.ok()) return answer.status();
    out->prompt_chars.Add(static_cast<double>(generation.prompt.size()));
    result.answered = !answer.Value().empty();
  }
  out->turn.Add(static_cast<double>(NowNs() - t0) / 1e3);
  result.ok = true;
  return result;
}

/// Runs the "direct" stream — sessions one after another, one turn in
/// flight — straight on the coordinator. Without `probe` it times each
/// AskWithState; with it, each turn runs as ProbeTurn in its own trace.
/// The stream depends only on `stream_seed`, so both passes and the
/// one-session served phase see the same utterances.
inline void RunDirectStream(Coordinator* coordinator, const Zipf& zipf,
                            uint64_t stream_seed, size_t turns,
                            SpanSink* sink, Samples* ask_us,
                            ProbeSamples* probe, Report* report) {
  const char* phase = probe != nullptr ? "probe" : "direct";
  size_t done = 0;
  for (uint64_t s = 0; done < turns; ++s) {
    SessionScript script(&coordinator->world(), &zipf, Mix(stream_seed, s));
    Coordinator::DialogueState state;
    std::vector<uint32_t> last;
    while (!script.done() && done < turns) {
      const PlannedTurn plan = script.Next(last.size());
      UserQuery query;
      query.text = plan.text;
      if (plan.kind == TurnKind::kFeedback) {
        query.selected_object = last[plan.rank];
      }
      ++done;
      TurnResult r;
      if (probe != nullptr) {
        std::shared_ptr<mqa::Trace> trace =
            sink->NewTurn("direct-" + std::to_string(done));
        Result<TurnResult> probed = ProbeTurn(coordinator, &state, query,
                                              plan.kind, trace.get(), probe);
        if (probed.ok()) r = std::move(probed).Value();
      } else {
        const int64_t t0 = NowNs();
        Result<AnswerTurn> turn = coordinator->AskWithState(query, &state);
        ask_us->Add(static_cast<double>(NowNs() - t0) / 1e3);
        r = Summarize(turn);
      }
      report->ops.At(phase, TurnKindName(plan.kind))
          .Record(r.ok && r.answered);
      last = r.ids;
    }
  }
}

/// The per-layer metrics every workload reports from the direct stream
/// and the layer probe (llm, encoder, retrieval, graph, vector, core).
inline void AddProbeLayers(Samples* turn_us, ProbeSamples* probe,
                           Report* report) {
  const DistanceCounts& dist = probe->distance;
  std::vector<Metric>* l = &report->layers;
  AddLatency(l, "core.turn", turn_us, "us", true);
  Samples encode_all;
  encode_all.Append(probe->encode_text);
  encode_all.Append(probe->encode_feedback);
  const double layers_p50 = probe->rewrite.Median() + encode_all.Median() +
                            probe->retrieve.Median() + probe->answer.Median();
  Add(l, "core.unattributed_frac",
      Ratio(turn_us->Median() - layers_p50, turn_us->Median()), "frac",
      turn_us->size(), "1 - (rewrite+encode+retrieve+answer p50) / turn p50");
  AddLatency(l, "llm.rewrite", &probe->rewrite, "us", false);
  Add(l, "llm.rewrite_frac",
      Ratio(static_cast<double>(probe->rewritten),
            static_cast<double>(probe->rewrite.size())),
      "frac", probe->rewrite.size());
  AddLatency(l, "llm.answer", &probe->answer, "us", false);
  Add(l, "llm.prompt_chars_mean", probe->prompt_chars.Mean(), "chars",
      probe->prompt_chars.size());
  Add(l, "encoder.encode_text_p50_us", probe->encode_text.Median(), "us",
      probe->encode_text.size());
  Add(l, "encoder.encode_feedback_p50_us", probe->encode_feedback.Median(),
      "us", probe->encode_feedback.size());
  AddLatency(l, "retrieval.retrieve", &probe->retrieve, "us", true);
  Add(l, "graph.hops_mean", probe->hops.Mean(), "count", probe->hops.size());
  Add(l, "graph.dist_comps_mean", probe->dist_comps.Mean(), "count",
      probe->dist_comps.size());
  const double comps = static_cast<double>(dist.full + dist.pruned);
  Add(l, "vector.dims_scanned_mean",
      Ratio(static_cast<double>(dist.dims), comps), "floats", 0,
      "per distance evaluation");
  Add(l, "vector.pruned_frac", Ratio(static_cast<double>(dist.pruned), comps),
      "frac");
  Add(l, "vector.sketch_reject_frac",
      Ratio(static_cast<double>(dist.sketch), comps), "frac");
  Add(l, "bench.trace_overhead_us", probe->turn.Median() - turn_us->Median(),
      "us", probe->turn.size(),
      "traced probe turn p50 minus untraced turn p50");
}

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
