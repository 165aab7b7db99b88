#ifndef MQA_SERVER_SERVER_H_
#define MQA_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/clock.h"
#include "core/coordinator.h"
#include "server/batcher.h"
#include "server/request_queue.h"

namespace mqa {

/// One encode or graph-search call as it travels through a Batcher. The
/// encode flavour is the encoder layer's own batched-request type, so a
/// full batch maps onto one EncoderSet::EncodeModalityBatch invocation.
using EncodeCall = ModalityEncodeRequest;
struct SearchCall {
  RetrievalQuery query;
  SearchParams params;
};

/// Completion callback of an asynchronous turn. Invoked exactly once, on a
/// worker thread, after the turn completed or failed *post-admission*
/// (admission failures are returned synchronously by Submit and the
/// callback never fires).
using AskCallback = std::function<void(Result<AnswerTurn>)>;

/// Serving counters (also exported as "server/..." metrics; duplicated
/// here as plain numbers so tests assert without touching the global
/// registry).
struct ServerStatsSnapshot {
  uint64_t accepted = 0;         ///< admitted into the queue
  uint64_t completed = 0;        ///< turns that returned OK
  uint64_t failed = 0;           ///< admitted turns that returned an error
  uint64_t shed_queue_full = 0;  ///< rejected: queue at capacity
  uint64_t shed_breaker = 0;     ///< rejected: overload breaker open
  uint64_t shed_deadline = 0;    ///< dropped: deadline expired in queue
};

/// The concurrent serving front end (ROADMAP item 1): owns the
/// Coordinator and exposes it to many concurrent sessions, pushing every
/// turn through a bounded request queue with admission control and
/// executing them on a worker pool. Overload policy, outermost first:
///
///   1. *Breaker*: a CircuitBreaker fed purely by overload signals
///      (queue-full rejections, turns whose deadline expired while
///      queued). Once it trips, Submit sheds at the door with
///      kUnavailable, giving the queue time to drain before new work is
///      accepted again (half-open probes re-admit traffic gradually).
///   2. *Queue*: TryPush on the bounded queue; at capacity the turn is
///      rejected with kResourceExhausted — backpressure, never unbounded
///      buffering. After Shutdown the queue is closed and Submit returns
///      kFailedPrecondition, which is neither a shed nor a breaker failure.
///   3. *Deadline*: each turn carries an absolute deadline (from
///      ServingOptions::default_deadline_ms or the query's own
///      deadline_micros); a worker sheds turns that expired while queued
///      and the executor aborts turns that expire mid-flight.
///
/// Inside the workers, cross-query batching: encode and graph-search
/// calls from concurrent turns are coalesced by two Batchers (installed
/// as ExecutionHooks on the coordinator's QueryExecutor); batches from
/// different workers run in parallel. Each session's conversation is its
/// own Coordinator::DialogueState (rewriter history, prompt history, last
/// results, selection), so concurrent sessions never share conversational
/// state. A selection is one-shot: it augments the session's next turn
/// only.
///
/// Lock ordering (see DESIGN.md "Serving & batching"): Server::mu_ (the
/// session map) is never held across a turn; a worker holds one
/// ServerSession::mu for the whole turn and acquires Batcher::mu_ (via
/// Submit) and the breaker's internal mutex strictly inside it. Batcher
/// batch functions take no further mqa locks.
///
/// Thread-safe. While a Server is serving, do not call mutating
/// Coordinator operations (SetFramework, SetWeights, IngestObject)
/// directly — they swap the executor/framework under the workers.
/// Coordinator::ResetDialogue resets only the coordinator's own default
/// conversation and never touches a session (ResetSession does).
class Server {
 public:
  /// Builds the full system from `config` (Coordinator::Create) and
  /// starts the workers. Serving knobs come from `config.serving`.
  static Result<std::unique_ptr<Server>> Create(const MqaConfig& config);

  /// Wraps an already built system and starts the workers.
  Server(std::unique_ptr<Coordinator> coordinator, ServingOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a new session with empty dialogue state; returns its id.
  uint64_t OpenSession();

  /// Forgets the session. Turns of that session still in flight complete
  /// normally against the (now detached) state.
  Status CloseSession(uint64_t session_id);

  /// Clears the session's dialogue history and selection (the per-session
  /// flavour of Coordinator::ResetDialogue).
  Status ResetSession(uint64_t session_id);

  /// Marks result `rank` of the session's last turn as selected: the next
  /// turn of that session — that one only — runs image-assisted by the
  /// clicked result (the paper's feedback loop), unless the query carries
  /// its own selection.
  Status Select(uint64_t session_id, size_t rank);

  /// Asynchronous turn: admission control runs synchronously (non-OK
  /// return = the turn was shed, or the server is shut down, and `done`
  /// will never fire); once admitted, `done` is invoked exactly once from
  /// a worker thread.
  Status Submit(uint64_t session_id, UserQuery query, AskCallback done);

  /// Blocking turn: Submit + wait. Admission failures surface directly.
  Result<AnswerTurn> Ask(uint64_t session_id, const UserQuery& query);

  /// Stops accepting work, drains queued turns and joins the workers.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  /// Parks / releases the worker pool with the queue still accepting
  /// work — the deterministic way for tests to fill the queue to
  /// capacity. Suspend is not part of the production surface.
  void Suspend();
  void Resume();

  ServerStatsSnapshot stats() const;
  size_t queue_depth() const { return queue_.size(); }
  size_t queue_capacity() const { return queue_.capacity(); }
  const CircuitBreaker& breaker() const { return breaker_; }
  CircuitBreaker& breaker() { return breaker_; }
  Coordinator* coordinator() { return coordinator_.get(); }
  const ServingOptions& options() const { return options_; }

  /// Read-side accessors into a session (for tests and a results UI).
  Result<std::vector<RetrievedItem>> LastResults(uint64_t session_id) const;
  Result<size_t> DialogueHistorySize(uint64_t session_id) const;

  const Batcher<EncodeCall, Vector>* encode_batcher() const {
    return encode_batcher_.get();
  }
  const Batcher<SearchCall, RetrievalResult>* search_batcher() const {
    return search_batcher_.get();
  }

 private:
  /// One session's conversation. `mu` serializes the session's turns (two
  /// queued turns of one session never interleave) and guards the state.
  struct ServerSession {
    uint64_t id = 0;
    Mutex mu;
    Coordinator::DialogueState dialogue MQA_GUARDED_BY(mu);
  };

  /// One admitted turn in the request queue.
  struct PendingTurn {
    std::shared_ptr<ServerSession> session;
    UserQuery query;
    AskCallback done;
    int64_t enqueue_micros = 0;
    int64_t deadline_micros = 0;  ///< 0 = none
  };

  Clock* clock() const {
    return options_.clock != nullptr ? options_.clock : SystemClock();
  }

  void InstallBatchers();
  void WorkerLoop();
  void RunTurn(PendingTurn turn);
  /// The open session `session_id`, or NotFound.
  Result<std::shared_ptr<ServerSession>> FindSession(
      uint64_t session_id) const;

  std::unique_ptr<Coordinator> coordinator_;
  ServingOptions options_;
  CircuitBreaker breaker_;

  std::unique_ptr<Batcher<EncodeCall, Vector>> encode_batcher_;
  std::unique_ptr<Batcher<SearchCall, RetrievalResult>> search_batcher_;

  BoundedQueue<PendingTurn> queue_;

  mutable Mutex mu_;  ///< session map only; never held across a turn
  uint64_t next_session_id_ MQA_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, std::shared_ptr<ServerSession>> sessions_
      MQA_GUARDED_BY(mu_);
  bool shutdown_ MQA_GUARDED_BY(mu_) = false;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> shed_queue_full_{0};
  std::atomic<uint64_t> shed_breaker_{0};
  std::atomic<uint64_t> shed_deadline_{0};

  std::vector<std::thread> workers_;
};

}  // namespace mqa

#endif  // MQA_SERVER_SERVER_H_
