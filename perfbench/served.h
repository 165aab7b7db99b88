// The served workloads' load generator (one thread driving Server::Submit
// in an open or closed loop) and the analysis of what it recorded.
#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dialogue.h"
#include "harness.h"
#include "probe.h"
#include "report.h"
#include "server/server.h"

namespace perfbench {

enum class Outcome : uint8_t { kPending, kOk, kFailed, kShed, kDeadline };

/// One served turn as the generator issued it and the callback completed
/// it. The callback writes only its own record, then hands the session
/// back to the generator through the ready queue (under its mutex).
struct ServedTurn {
  const char* phase = "";
  TurnKind kind = TurnKind::kText;
  size_t session = 0;  ///< index into ServedDriver::sessions_
  std::string text;
  std::optional<uint64_t> selected;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  Outcome outcome = Outcome::kPending;
  TurnResult result;
  std::shared_ptr<mqa::Trace> trace;
  int32_t span = -1;
};

/// The single load generator: drives Server::Submit with completion
/// callbacks, one thread, open or closed loop.
class ServedDriver {
 public:
  ServedDriver(mqa::Server* server, const Zipf* zipf, SpanSink* sink)
      : server_(server), zipf_(zipf), sink_(sink) {}
  ServedDriver(const ServedDriver&) = delete;
  ServedDriver& operator=(const ServedDriver&) = delete;
  ~ServedDriver() { Drain(); }

  /// Poisson arrivals at `rate` turns/s for `seconds`. Each arrival goes to
  /// a session whose previous turn has completed, else to a new session,
  /// so sessions never have two turns in flight and the offered load does
  /// not depend on how fast the server answers.
  void OpenLoop(const char* phase, uint64_t stream_seed, double rate,
                double seconds) {
    BeginPhase(stream_seed);
    mqa::Rng rng(Mix(stream_seed, 0xA11));
    std::vector<int64_t> offsets;
    double t = 0.0;
    while (true) {
      t += -std::log(std::max(1e-12, 1.0 - rng.UniformDouble())) / rate;
      if (t >= seconds) break;
      offsets.push_back(static_cast<int64_t>(t * 1e9));
    }
    std::deque<size_t> idle;
    const int64_t start = NowNs() + 1000000;
    steal_.Begin();
    for (int64_t offset : offsets) {
      const int64_t due = start + offset;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      steal_.Tick();
      for (size_t idx : TakeReady()) Park(idx, &idle);
      size_t idx;
      if (idle.empty()) {
        idx = OpenSession();
      } else {
        idx = idle.front();
        idle.pop_front();
      }
      if (!Issue(phase, idx, due)) Park(idx, &idle);
    }
    intervals_[phase] = steal_.End();
    Drain();
    CloseAll();
  }

  /// `in_flight` sessions, each sending its next turn as soon as the last
  /// one completes, until `seconds` pass or `max_turns` were sent.
  void ClosedLoop(const char* phase, uint64_t stream_seed, size_t in_flight,
                  double seconds, size_t max_turns) {
    BeginPhase(stream_seed);
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    size_t sent = 0;
    std::deque<size_t> idle;
    for (size_t i = 0; i < in_flight; ++i) idle.push_back(OpenSession());
    steal_.Begin();
    while (true) {
      steal_.Tick();
      std::deque<size_t> shed;
      while (!idle.empty() && NowNs() < end && sent < max_turns) {
        size_t idx = idle.front();
        idle.pop_front();
        if (sessions_[idx]->script.done()) {
          Close(idx);
          idx = OpenSession();
        }
        ++sent;
        if (!Issue(phase, idx, NowNs())) shed.push_back(idx);
      }
      idle.insert(idle.end(), shed.begin(), shed.end());
      if (NowNs() >= end || sent >= max_turns) break;
      std::unique_lock<std::mutex> lock(mu_);
      // A shed session retries after at most a millisecond, not in a spin.
      cv_.wait_for(lock, std::chrono::milliseconds(1),
                   [this] { return !ready_.empty(); });
      while (!ready_.empty()) {
        idle.push_back(ready_.front());
        ready_.pop_front();
      }
    }
    intervals_[phase] = steal_.End();
    Drain();
    CloseAll();
  }

  const std::deque<ServedTurn>& turns() const { return turns_; }

  /// The steal intervals of a finished phase, covering the span in which
  /// its turns were sent.
  const std::vector<Interval>& intervals(const std::string& phase) {
    return intervals_[phase];
  }

 private:
  struct Session {
    uint64_t id = 0;  ///< server session id
    SessionScript script;
    const ServedTurn* last = nullptr;
    bool open = true;
  };

  void BeginPhase(uint64_t stream_seed) {
    stream_seed_ = stream_seed;
    phase_sessions_ = 0;
  }

  size_t OpenSession() {
    sessions_.push_back(std::make_unique<Session>(Session{
        server_->OpenSession(),
        SessionScript(&server_->coordinator()->world(), zipf_,
                      Mix(stream_seed_, phase_sessions_++)),
        nullptr, true}));
    return sessions_.size() - 1;
  }

  void Close(size_t idx) {
    Session& s = *sessions_[idx];
    if (!s.open) return;
    (void)server_->CloseSession(s.id);
    s.open = false;
  }

  void CloseAll() {
    for (size_t i = 0; i < sessions_.size(); ++i) Close(i);
  }

  /// A session whose turn completed either ends or waits for an arrival.
  void Park(size_t idx, std::deque<size_t>* idle) {
    if (sessions_[idx]->script.done()) {
      Close(idx);
    } else {
      idle->push_back(idx);
    }
  }

  std::vector<size_t> TakeReady() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<size_t> out(ready_.begin(), ready_.end());
    ready_.clear();
    return out;
  }

  /// Plans and submits the next turn of session `idx`; false when the
  /// server refused it at admission (the turn is recorded as shed).
  bool Issue(const char* phase, size_t idx, int64_t due_ns) {
    Session& s = *sessions_[idx];
    const ServedTurn* prev = s.last;
    const bool last_ok = prev != nullptr && prev->outcome == Outcome::kOk;
    const PlannedTurn plan =
        s.script.Next(last_ok ? prev->result.ids.size() : 0);
    turns_.emplace_back();
    ServedTurn* rec = &turns_.back();
    rec->phase = phase;
    rec->kind = plan.kind;
    rec->session = idx;
    rec->text = plan.text;
    rec->due_ns = due_ns;
    s.last = rec;
    if (plan.kind == TurnKind::kFeedback) {
      // The click: the server attaches the selected result to the turn.
      rec->selected = prev->result.ids[plan.rank];
      if (!server_->Select(s.id, plan.rank).ok()) {
        rec->outcome = Outcome::kFailed;
        return false;
      }
    }
    UserQuery query;
    query.text = plan.text;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
    }
    if (sink_->enabled()) {
      rec->trace = sink_->NewTurn("served-" + std::to_string(turns_.size()));
      rec->span = rec->trace->BeginSpan("server.turn");
    }
    rec->sent_ns = NowNs();
    Status admitted = server_->Submit(
        s.id, std::move(query), [this, rec, idx](Result<AnswerTurn> turn) {
          rec->result = Summarize(turn);
          rec->done_ns = NowNs();
          if (turn.ok()) {
            rec->outcome =
                rec->result.answered ? Outcome::kOk : Outcome::kFailed;
          } else {
            rec->outcome = turn.status().code() ==
                                   mqa::StatusCode::kDeadlineExceeded
                               ? Outcome::kDeadline
                               : Outcome::kFailed;
          }
          if (rec->trace != nullptr) rec->trace->EndSpan(rec->span);
          {
            std::lock_guard<std::mutex> lock(mu_);
            ready_.push_back(idx);
            --outstanding_;
          }
          cv_.notify_all();
        });
    if (!admitted.ok()) {
      rec->outcome = Outcome::kShed;
      rec->done_ns = NowNs();
      if (rec->trace != nullptr) rec->trace->EndSpan(rec->span);
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
      return false;
    }
    return true;
  }

  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
    ready_.clear();
  }

  mqa::Server* server_;
  const Zipf* zipf_;
  SpanSink* sink_;
  uint64_t stream_seed_ = 0;
  uint64_t phase_sessions_ = 0;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::deque<ServedTurn> turns_;
  StealTracker steal_{kStealWindowS};
  std::map<std::string, std::vector<Interval>> intervals_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<size_t> ready_;
  size_t outstanding_ = 0;
};

inline void AccountServed(const std::deque<ServedTurn>& turns, Report* report) {
  for (const ServedTurn& t : turns) {
    OpCounts& c = report->ops.At(t.phase, TurnKindName(t.kind));
    ++c.attempted;
    switch (t.outcome) {
      case Outcome::kOk:
        ++c.succeeded;
        break;
      case Outcome::kShed:
        ++c.shed;
        break;
      case Outcome::kDeadline:
        ++c.deadline;
        break;
      case Outcome::kFailed:
      case Outcome::kPending:
        ++c.failed;
        break;
    }
  }
}

/// Latency from when it was due of each turn of `phase` that was due in
/// one of `quiet`, in due order, in µs; a turn that did not succeed counts
/// as infinitely late.
inline std::vector<double> LatencyFromDue(const std::deque<ServedTurn>& turns,
                                          const std::string& phase,
                                          const std::vector<Interval>& quiet) {
  std::vector<double> out;
  for (const ServedTurn& t : turns) {
    if (phase != t.phase || !InIntervals(quiet, t.due_ns)) continue;
    out.push_back(t.outcome == Outcome::kOk
                      ? static_cast<double>(t.done_ns - t.due_ns) / 1e3
                      : 1e12);
  }
  return out;
}

inline Samples Lateness(const std::deque<ServedTurn>& turns,
                        const std::string& phase) {
  Samples out;
  for (const ServedTurn& t : turns) {
    if (phase == t.phase) {
      out.Add(static_cast<double>(t.sent_ns - t.due_ns) / 1e3);
    }
  }
  return out;
}

/// Turns of `phase` completed per second within `quiet`.
inline double Throughput(const std::deque<ServedTurn>& turns,
                         const std::string& phase,
                         const std::vector<Interval>& quiet) {
  size_t ok = 0;
  for (const ServedTurn& t : turns) {
    if (phase == t.phase && t.outcome == Outcome::kOk &&
        InIntervals(quiet, t.done_ns)) {
      ++ok;
    }
  }
  return Ratio(static_cast<double>(ok), Seconds(quiet));
}

/// Re-checks about `sample` served turns against the exact oracle, off the
/// clock: each session's rewriter history is replayed in turn order to
/// recover the query the server actually encoded. Also gates that no
/// returned id is tombstoned.
inline Samples ServedRecall(Coordinator* coordinator,
                            const std::deque<ServedTurn>& turns, size_t k,
                            size_t sample, Report* report) {
  std::map<size_t, std::vector<const ServedTurn*>> by_session;
  size_t ok_turns = 0;
  for (const ServedTurn& t : turns) {
    by_session[t.session].push_back(&t);
    ok_turns += t.outcome == Outcome::kOk;
  }
  const size_t stride = std::max<size_t>(1, ok_turns / sample);
  mqa::QueryExecutor executor(&coordinator->kb(), &coordinator->encoders(),
                              coordinator->framework());
  Samples recall;
  size_t tombstoned = 0;
  size_t ok_index = 0;
  for (const auto& [session, list] : by_session) {
    mqa::ContextualQueryRewriter rewriter;
    for (const ServedTurn* t : list) {
      if (t->outcome == Outcome::kShed || t->outcome == Outcome::kPending) {
        continue;  // the server never saw it
      }
      Result<std::string> rewritten = rewriter.RewriteChecked(t->text);
      rewriter.ObserveTurn(t->text);
      if (t->outcome != Outcome::kOk) continue;
      for (uint32_t id : t->result.ids) {
        tombstoned += coordinator->kb().IsDeleted(id);
      }
      if (ok_index++ % stride != 0) continue;
      UserQuery query;
      query.text = rewritten.ok() ? rewritten.Value() : t->text;
      query.selected_object = t->selected;
      Result<mqa::RetrievalQuery> rq = executor.EncodeUserQuery(query);
      if (!rq.ok()) continue;
      recall.Add(RecallOf(t->result.ids,
                          ExactTopK(coordinator->store(), coordinator->kb(),
                                    rq.Value(),
                                    coordinator->framework()->weights(),
                                    k)));
    }
  }
  report->Gate(tombstoned == 0, std::to_string(tombstoned) +
                                    " tombstoned ids returned by served turns");
  return recall;
}

/// Batcher::stats() growth over one phase.
struct BatchDelta {
  uint64_t batches = 0, items = 0, drain_flushes = 0;
  static BatchDelta Between(const mqa::BatcherStats& before,
                            const mqa::BatcherStats& after) {
    return {after.batches - before.batches, after.items - before.items,
            after.drain_flushes - before.drain_flushes};
  }
  double MeanBatch() const {
    return batches > 0 ? static_cast<double>(items) / batches : 0.0;
  }
};

struct DiskCounts {
  uint64_t reads = 0, hits = 0, bytes = 0;
  static DiskCounts Now() {
    return {CounterValue("diskindex/page_reads"),
            CounterValue("diskindex/cache_hits"),
            CounterValue("diskindex/bytes_read")};
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
