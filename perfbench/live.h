// The live_catalog workload's pieces: the ack model of the durable
// catalogue, the churn loop (acked ingests and deletes interleaved with
// dialogue turns), the crash + reopen cycles, and the non-durable twin
// that isolates the in-memory write path.
#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/coordinator.h"
#include "core/durable_system.h"
#include "dialogue.h"
#include "harness.h"
#include "probe.h"
#include "report.h"

namespace perfbench {

/// Operation mix of the churn (the rest are dialogue turns).
constexpr double kIngestShare = 0.35;
constexpr double kRemoveShare = 0.35;
/// Crash + reopen cycles after the churn, each after a checkpoint and a
/// fixed tail of acked mutations, so every reopen replays the same amount.
constexpr int kRecoveryCycles = 3;
constexpr int kTailIngests = 40;
constexpr int kTailRemoves = 20;
/// Peak memory is sampled once this many compactions have run: the
/// compaction transient dominates it, and whether a compaction falls
/// before a fixed operation count depends on the seed.
constexpr uint64_t kRssAfterCompactions = 2;

/// Multiset of content fingerprints of the live objects.
inline std::unordered_map<uint64_t, int64_t> LiveFingerprints(
    const Coordinator& c) {
  std::unordered_map<uint64_t, int64_t> out;
  for (uint64_t id = 0; id < c.kb().size(); ++id) {
    if (c.kb().IsDeleted(id)) continue;
    Result<const mqa::Object*> obj = c.kb().Get(id);
    if (obj.ok()) ++out[Fingerprint(*obj.Value())];
  }
  return out;
}

/// (acked writes missing, deleted objects present) of `actual` vs `model`.
inline std::pair<int64_t, int64_t> Diff(
    const std::unordered_map<uint64_t, int64_t>& model,
    const std::unordered_map<uint64_t, int64_t>& actual) {
  int64_t lost = 0;
  int64_t resurfaced = 0;
  for (const auto& [fp, n] : model) {
    auto it = actual.find(fp);
    const int64_t have = it == actual.end() ? 0 : it->second;
    if (have < n) lost += n - have;
  }
  for (const auto& [fp, n] : actual) {
    auto it = model.find(fp);
    const int64_t want = it == model.end() ? 0 : it->second;
    if (n > want) resurfaced += n - want;
  }
  return {lost, resurfaced};
}

inline uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

/// Bytes of the live snapshot directory named by `dir`/CURRENT.
inline uint64_t SnapshotBytes(const std::string& dir) {
  std::ifstream current(dir + "/CURRENT");
  std::string name;
  if (!std::getline(current, name)) return 0;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           dir + "/" + name, ec)) {
    if (entry.is_regular_file()) total += FileBytes(entry.path().string());
  }
  return total;
}

/// One caller's view of the durable catalogue: the ack model and the
/// mutation helpers shared by the churn loop and the recovery tails.
class Catalogue {
 public:
  Catalogue(mqa::DurableSystem* sys, const Zipf* zipf, uint64_t seed)
      : sys_(sys), zipf_(zipf), rng_(seed) {
    model_ = LiveFingerprints(*sys_->coordinator());
  }
  void Reattach(mqa::DurableSystem* sys) { sys_ = sys; }
  const std::unordered_map<uint64_t, int64_t>& model() const {
    return model_;
  }
  mqa::Rng* rng() { return &rng_; }

  /// Acked ingest; returns its latency in µs (negative on failure).
  double Ingest() {
    const Coordinator& c = *sys_->coordinator();
    mqa::Object object = c.world().MakeObject(zipf_->Sample(&rng_), &rng_);
    const uint64_t fp = Fingerprint(object);
    const int64_t t0 = NowNs();
    Result<uint64_t> id = sys_->Ingest(std::move(object));
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    if (!id.ok()) return -1.0;
    ++model_[fp];
    return us;
  }

  /// Acked delete of a random live object; latency in µs (negative on
  /// failure). `compacted` tells whether it triggered compaction.
  double Remove(bool* compacted) {
    const Coordinator& c = *sys_->coordinator();
    uint64_t id = 0;
    do {
      id = rng_.NextUint64(c.kb().size());
    } while (c.kb().IsDeleted(id));
    Result<const mqa::Object*> obj = c.kb().Get(id);
    if (!obj.ok()) return -1.0;
    const uint64_t fp = Fingerprint(*obj.Value());
    const uint64_t compactions = c.compactions();
    const int64_t t0 = NowNs();
    Status st = sys_->Remove(id);
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    *compacted = sys_->coordinator()->compactions() != compactions;
    if (!st.ok()) return -1.0;
    --model_[fp];
    return us;
  }

 private:
  mqa::DurableSystem* sys_;
  const Zipf* zipf_;
  mqa::Rng rng_;
  std::unordered_map<uint64_t, int64_t> model_;
};

/// What the churn loop measured.
struct ChurnResult {
  Samples ingest_us, remove_us, turn_us, checkpoint_ms, recall;
  std::vector<double> turn_order_us;  ///< turn latencies in call order
  std::vector<int64_t> turn_start_ns;  ///< aligned with turn_order_us
  std::vector<Interval> intervals;     ///< host steal over the churn
  double turn_cpu_s = 0.0;             ///< thread CPU time of turn calls
  ProbeSamples probe;                 ///< traced runs only
  uint64_t compactions = 0;
  uint64_t tombstoned = 0;  ///< tombstoned ids returned by turns
  double peak_rss_mb = 0.0;
};

/// Runs the churn for `seconds`: each operation is an acked ingest, an
/// acked delete or a dialogue turn through coordinator()->AskWithState.
/// Every other turn is re-checked against the exact oracle off the clock.
/// With `sink` enabled every turn is also probed on a twin dialogue state.
inline ChurnResult RunChurn(mqa::DurableSystem* sys, Catalogue* catalogue,
                            const Zipf& zipf, uint64_t stream_seed,
                            double seconds, size_t k, SpanSink* sink,
                            Report* report) {
  ChurnResult out;
  mqa::Rng* rng = catalogue->rng();
  const uint64_t compactions0 = sys->coordinator()->compactions();
  uint64_t sessions = 0;
  std::optional<SessionScript> script;
  Coordinator::DialogueState state, twin;
  std::vector<uint32_t> last;
  uint64_t last_compactions = 0;
  StealTracker steal(kStealWindowS);
  steal.Begin();
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    steal.Tick();
    const double u = rng->UniformDouble();
    if (u < kIngestShare) {
      const double us = catalogue->Ingest();
      report->ops.At("churn", "ingest").Record(us >= 0);
      if (us >= 0) out.ingest_us.Add(us);
      continue;
    }
    if (u < kIngestShare + kRemoveShare) {
      bool compacted = false;
      const double us = catalogue->Remove(&compacted);
      report->ops.At("churn", "remove").Record(us >= 0);
      if (us >= 0) out.remove_us.Add(us);
      if (us >= 0 && compacted) {
        out.checkpoint_ms.Add(us / 1e3);
        // Peak memory after set-up plus a fixed amount of work, whatever
        // the throughput.
        if (out.checkpoint_ms.size() == kRssAfterCompactions) {
          out.peak_rss_mb = PeakRssMb();
        }
      }
      continue;
    }
    Coordinator* c = sys->coordinator();
    if (!script.has_value() || script->done()) {
      script.emplace(&c->world(), &zipf, Mix(stream_seed, sessions++));
      state.Clear();
      twin.Clear();
      last.clear();
    }
    // A user clicks only what is still there: results a compaction
    // renumbered, or that were deleted since, are not offered.
    if (c->compactions() != last_compactions) last.clear();
    last_compactions = c->compactions();
    std::erase_if(last, [c](uint32_t id) { return c->kb().IsDeleted(id); });
    const PlannedTurn plan = script->Next(last.size());
    UserQuery query;
    query.text = plan.text;
    if (plan.kind == TurnKind::kFeedback) {
      query.selected_object = last[plan.rank];
    }
    // Traced runs probe the same turn on a twin dialogue state; which of
    // the two goes first alternates, so neither always finds the caches
    // warmed by the other.
    const bool probe_first = sink->enabled() && out.turn_us.size() % 2 == 1;
    auto probe_turn = [&] {
      std::shared_ptr<mqa::Trace> trace =
          sink->NewTurn("churn-" + std::to_string(out.turn_us.size()));
      Result<TurnResult> probed =
          ProbeTurn(c, &twin, query, plan.kind, trace.get(), &out.probe);
      report->ops.At("probe", TurnKindName(plan.kind))
          .Record(probed.ok() && probed.Value().answered);
    };
    if (probe_first) probe_turn();
    mqa::ContextualQueryRewriter shadow = state.rewriter;
    const double cpu0 = ThreadCpuS();
    const int64_t t0 = NowNs();
    Result<AnswerTurn> turn = c->AskWithState(query, &state);
    const double call_us = static_cast<double>(NowNs() - t0) / 1e3;
    out.turn_cpu_s += ThreadCpuS() - cpu0;
    out.turn_us.Add(call_us);
    out.turn_order_us.push_back(call_us);
    out.turn_start_ns.push_back(t0);
    const TurnResult r = Summarize(turn);
    report->ops.At("churn", TurnKindName(plan.kind)).Record(r.ok && r.answered);
    last = r.ids;
    for (uint32_t id : r.ids) out.tombstoned += c->kb().IsDeleted(id);
    if (out.turn_us.size() % 2 == 0) {
      Result<std::string> rewritten = shadow.RewriteChecked(query.text);
      UserQuery effective = query;
      if (rewritten.ok()) effective.text = rewritten.Value();
      mqa::QueryExecutor executor(&c->kb(), &c->encoders(), c->framework());
      Result<mqa::RetrievalQuery> rq = executor.EncodeUserQuery(effective);
      if (rq.ok()) {
        out.recall.Add(RecallOf(
            r.ids, ExactTopK(c->store(), c->kb(), rq.Value(),
                             c->framework()->weights(), k)));
      }
    }
    if (sink->enabled() && !probe_first) probe_turn();
  }
  out.intervals = steal.End();
  if (out.peak_rss_mb == 0.0) out.peak_rss_mb = PeakRssMb();
  out.compactions = sys->coordinator()->compactions() - compactions0;
  return out;
}

/// What the crash + reopen cycles measured.
struct RecoveryResult {
  Samples recovery_ms, replayed, wal_bytes, snapshot_bytes;
};

/// Crash + reopen cycles: checkpoint, a fixed tail of acked mutations,
/// CrashForTest, a timed reopen, and a comparison with the ack model.
/// `sys` is replaced by each reopened system.
inline RecoveryResult RunRecoveryCycles(
    const mqa::MqaConfig& config, const std::string& dir,
    const mqa::DurabilityOptions& durability,
    std::unique_ptr<mqa::DurableSystem>* sys, Catalogue* catalogue,
    Report* report) {
  RecoveryResult out;
  const std::string wal = dir + "/wal.log";
  for (int cycle = 0; cycle < kRecoveryCycles; ++cycle) {
    report->Gate((*sys)->Checkpoint().ok(),
                 "checkpoint before the tail failed");
    const uint64_t wal0 = FileBytes(wal);
    const uint64_t compactions = (*sys)->coordinator()->compactions();
    int mutations = 0;
    for (int i = 0; i < kTailIngests + kTailRemoves; ++i) {
      bool compacted = false;
      const bool ingest = i % 3 != 2;
      const double us =
          ingest ? catalogue->Ingest() : catalogue->Remove(&compacted);
      report->ops.At("tail", ingest ? "ingest" : "remove").Record(us >= 0);
      mutations += us >= 0;
    }
    if ((*sys)->coordinator()->compactions() == compactions && mutations > 0) {
      out.wal_bytes.Add(static_cast<double>(FileBytes(wal) - wal0) /
                        mutations);
    }
    const int64_t t0 = NowNs();
    const Status crashed = (*sys)->CrashForTest();
    sys->reset();
    Result<std::unique_ptr<mqa::DurableSystem>> reopened =
        mqa::DurableSystem::Open(config, dir, durability);
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    report->ops.At("recovery", "reopen").Record(crashed.ok() && reopened.ok());
    if (!crashed.ok() || !reopened.ok()) {
      report->Gate(false, "crash + reopen failed: " +
                              (crashed.ok() ? reopened.status() : crashed)
                                  .ToString());
      return out;
    }
    *sys = std::move(reopened).Value();
    catalogue->Reattach(sys->get());
    out.recovery_ms.Add(ms);
    const mqa::RecoveryReport& rr = (*sys)->recovery_report();
    out.replayed.Add(
        static_cast<double>(rr.replayed_inserts + rr.replayed_removes));
    out.snapshot_bytes.Add(static_cast<double>(SnapshotBytes(dir)));
    auto [lost, resurfaced] =
        Diff(catalogue->model(), LiveFingerprints(*(*sys)->coordinator()));
    report->Gate(lost == 0, std::to_string(lost) +
                                " acked writes lost after crash + reopen");
    report->Gate(resurfaced == 0,
                 std::to_string(resurfaced) +
                     " deleted objects resurfaced after crash + reopen");
  }
  return out;
}

/// In-memory write path of a non-durable twin (Coordinator::Create with
/// auto-compaction off): timed IngestObject calls, then twice a quarter of
/// the objects removed and a timed CompactNow.
struct TwinResult {
  Samples ingest_us, compact_ms;
};

inline TwinResult RunTwin(mqa::MqaConfig config, const Zipf& zipf,
                          uint64_t seed, Report* report) {
  TwinResult out;
  config.compaction.auto_compact = false;
  Result<std::unique_ptr<Coordinator>> created = Coordinator::Create(config);
  report->ops.At("twin", "create").Record(created.ok());
  if (!created.ok()) return out;
  std::unique_ptr<Coordinator> twin = std::move(created).Value();
  mqa::Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    mqa::Object object = twin->world().MakeObject(zipf.Sample(&rng), &rng);
    const int64_t t0 = NowNs();
    const bool ok = twin->IngestObject(std::move(object)).ok();
    out.ingest_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    report->ops.At("twin", "ingest").Record(ok);
  }
  for (int round = 0; round < 2; ++round) {
    const uint64_t n = twin->kb().size();
    for (uint64_t i = 0; i < n / 4; ++i) {
      uint64_t id = 0;
      do {
        id = rng.NextUint64(n);
      } while (twin->kb().IsDeleted(id));
      report->ops.At("twin", "remove").Record(twin->RemoveObject(id).ok());
    }
    const int64_t t0 = NowNs();
    report->ops.At("twin", "compact").Record(twin->CompactNow().ok());
    out.compact_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
