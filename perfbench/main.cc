// The MQA repository benchmark. One binary, three workloads:
//
//   chat          served multi-session dialogue over the in-memory
//                 mqa-hybrid MUST index (N = 10 000): an open-loop phase at
//                 a fixed Poisson rate, then a closed loop with nproc
//                 sessions in flight.
//   disk_chat     the same dialogue mix served from the Starling
//                 disk-resident index (N = 10 000, 64-page cache).
//   live_catalog  a durable catalogue (N = 4 000, every mutation fsynced)
//                 under one caller interleaving acked ingests, acked
//                 deletes and dialogue turns; compaction + checkpoint fire
//                 on the garbage-ratio trigger; ends with crash + reopen.
//
// Usage:
//   perfbench --workload <chat|disk_chat|live_catalog> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same phases
// plus the layer probes and prints the per-layer metrics. Everything is
// timed from outside the program, around calls to public functions; the
// only program-side numbers read are counters and histograms it already
// exports (as deltas). The last stdout line is the result JSON; the exit
// code is 0 only when every correctness gate held.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/coordinator.h"
#include "core/durable_system.h"
#include "dialogue.h"
#include "harness.h"
#include "live.h"
#include "probe.h"
#include "report.h"
#include "served.h"
#include "vector/simd/simd.h"

namespace perfbench {
namespace {

using mqa::MqaConfig;

// --- Workload definitions ---------------------------------------------------

constexpr size_t kChatCorpus = 10000;
constexpr size_t kLiveCorpus = 4000;
constexpr size_t kTopK = 10;
constexpr size_t kBeam = 64;
constexpr size_t kDiskCachePages = 64;
/// Open-loop arrival rates, turns/s, fixed so that later versions face
/// the same offered load: about a seventh of the closed-loop capacity the
/// program had when this benchmark was defined (4 vCPUs, AVX-512: ~7k
/// turns/s in memory, ~3k from disk). The default 64-slot admission queue
/// then absorbs a host stall (steal time on a shared VM) of ~60 ms; at
/// higher rates such stalls filled it, tripped the overload breaker and
/// shed turns.
constexpr double kChatOpenRate = 1000.0;
constexpr double kDiskOpenRate = 400.0;
/// Closed-loop warm-up turns before the measured served phases.
constexpr size_t kWarmupTurns = 2000;
/// Latency and throughput figures use only the intervals (kStealWindowS
/// long) in which the host stole at most this share of the machine's CPU
/// time; see QuietIntervals.
constexpr double kQuietSteal = 0.01;
/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 3;
/// Turns of the direct (coordinator-only) and one-session served probes.
constexpr size_t kProbeTurns = 1200;
/// Served turns re-checked against the exact oracle per run.
constexpr size_t kRecallSample = 1200;
/// Generator lateness (p99) beyond which an open-loop phase is invalid:
/// the offered load was then not the one the workload defines.
constexpr double kMaxGenLateP99Us = 50000.0;
/// Recall floors of the correctness gate (measured recall sits well above).
constexpr double kRecallFloorMemory = 0.80;
constexpr double kRecallFloorDisk = 0.60;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 16.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) return false;
  return (args->workload == "chat" || args->workload == "disk_chat" ||
          args->workload == "live_catalog") &&
         args->seconds > 0;
}

// --- Configuration ----------------------------------------------------------

/// The world (corpus), system and popularity seeds are fixed: the corpus,
/// index and concept popularity are the benchmark's dataset, and --seed
/// drives the workload streams.
/// Worlds drawn from different seeds differ by up to ~35% in distance
/// evaluations per search, which would swamp the run-to-run bounds.
constexpr uint64_t kWorldSeed = 42;
constexpr uint64_t kSystemSeed = 42;
/// Seed of the concept popularity ranking (see Zipf), fixed likewise.
constexpr uint64_t kPopularitySeed = 42;

MqaConfig BaseConfig(size_t corpus) {
  MqaConfig config;
  config.world.seed = kWorldSeed;
  config.seed = kSystemSeed;
  config.corpus_size = corpus;
  config.search.k = kTopK;
  config.search.beam_width = kBeam;
  config.observability.trace_turns = false;
  config.observability.trace_build = false;
  return config;
}

void RecordConfig(const Args& args, const MqaConfig& config, Report* report) {
  report->Config("workload", JsonString(args.workload));
  report->Config("seed", static_cast<double>(args.seed));
  report->Config("seconds", args.seconds);
  report->Config("traced", args.trace ? 1.0 : 0.0);
  report->Config("simd_level",
                 JsonString(mqa::SimdLevelName(mqa::ActiveSimdLevel())));
  report->Config("nproc",
                 static_cast<double>(std::thread::hardware_concurrency()));
  report->Config("corpus_size", static_cast<double>(config.corpus_size));
  report->Config("index_algorithm", JsonString(config.index.algorithm));
  report->Config("sketch_prefilter",
                 config.index.sketch_prefilter ? 1.0 : 0.0);
  report->Config("k", static_cast<double>(config.search.k));
  report->Config("beam_width", static_cast<double>(config.search.beam_width));
  report->Config("world_seed", std::to_string(config.world.seed));
  report->Config("system_seed", std::to_string(config.seed));
  report->Config("num_concepts",
                 static_cast<double>(config.world.num_concepts));
  report->Config("rounds_per_session", static_cast<double>(kRoundsPerSession));
  report->Config("setup_repeats", static_cast<double>(kSetupRepeats));
  report->Config("steal_window_s", kStealWindowS);
  report->Config("quiet_max_steal", kQuietSteal);
}

// --- Workloads --------------------------------------------------------------

int RunServed(const Args& args, Report* report, SpanSink* sink) {
  const bool disk = args.workload == "disk_chat";
  MqaConfig config = BaseConfig(kChatCorpus);
  if (disk) {
    config.index.algorithm = "starling";
    config.index.disk.cache_pages = kDiskCachePages;
  }
  const double rate = disk ? kDiskOpenRate : kChatOpenRate;
  const size_t nproc =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  RecordConfig(args, config, report);
  report->Config("workers", static_cast<double>(config.serving.num_workers));
  report->Config("batching", config.serving.enable_batching ? 1.0 : 0.0);
  report->Config("max_batch", static_cast<double>(config.serving.max_batch));
  report->Config("queue_capacity",
                 static_cast<double>(config.serving.queue_capacity));
  report->Config("open_rate_per_s", rate);
  report->Config("closed_in_flight", static_cast<double>(nproc));
  if (disk) {
    report->Config("disk_cache_pages", static_cast<double>(kDiskCachePages));
    report->Config("disk_page_size",
                   static_cast<double>(config.index.disk.page_size));
  }

  // Set-up: Coordinator::Create plus the Server constructor, which is
  // exactly Server::Create; repeated, the last one kept. The coordinator
  // of the last one is probed directly before the server wraps it.
  Samples setup_s;
  std::unique_ptr<mqa::Server> server;
  std::unique_ptr<Coordinator> coordinator;
  double create_s = 0.0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<Coordinator>> created = Coordinator::Create(config);
    create_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!created.ok()) {
      std::fprintf(stderr, "setup: %s\n", created.status().ToString().c_str());
      return 2;
    }
    coordinator = std::move(created).Value();
    if (i + 1 == kSetupRepeats) break;
    const int64_t t1 = NowNs();
    server = std::make_unique<mqa::Server>(std::move(coordinator),
                                           config.serving);
    setup_s.Add(create_s + static_cast<double>(NowNs() - t1) / 1e9);
  }
  server.reset();
  const Zipf zipf(coordinator->world().num_concepts(), kPopularitySeed);
  const uint64_t direct_stream = Mix(args.seed, 10);

  Samples direct_us;
  ProbeSamples probe;
  if (args.trace) {
    RunDirectStream(coordinator.get(), zipf, direct_stream, kProbeTurns, sink,
                    &direct_us, nullptr, report);
    RunDirectStream(coordinator.get(), zipf, direct_stream, kProbeTurns, sink,
                    nullptr, &probe, report);
  }
  {
    const int64_t t1 = NowNs();
    server =
        std::make_unique<mqa::Server>(std::move(coordinator), config.serving);
    setup_s.Add(create_s + static_cast<double>(NowNs() - t1) / 1e9);
  }
  Coordinator* c = server->coordinator();

  ServedDriver driver(server.get(), &zipf, sink);
  if (args.trace) {
    driver.ClosedLoop("served_one", direct_stream, 1, 1e9, kProbeTurns);
  }
  driver.ClosedLoop("warmup", Mix(args.seed, 11), nproc, 1e9, kWarmupTurns);

  const DiskCounts disk0 = DiskCounts::Now();
  HistogramDelta queue_wait("server/queue_wait_ms");
  HistogramDelta batcher_wait("server/search_queue_wait_ms");
  driver.OpenLoop("open", Mix(args.seed, 12), rate, args.seconds / 2);
  // Peak memory after set-up plus a fixed amount of served work (warm-up
  // and open loop have seed-determined turn counts), so that the figure
  // does not grow with the closed loop's throughput.
  const double peak_rss_mb = PeakRssMb();
  const mqa::HistogramSnapshot queue_delta = queue_wait.Delta();
  const mqa::HistogramSnapshot batcher_delta = batcher_wait.Delta();
  const mqa::BatcherStats search0 = server->search_batcher()->stats();
  const mqa::BatcherStats encode0 = server->encode_batcher()->stats();
  const double proc_cpu0 = ProcessCpuS();
  const double gen_cpu0 = ThreadCpuS();
  driver.ClosedLoop("closed", Mix(args.seed, 13), nproc, args.seconds / 2,
                    SIZE_MAX);
  // CPU time of everything but the generator thread: the server's workers.
  const double server_cpu_s =
      (ProcessCpuS() - proc_cpu0) - (ThreadCpuS() - gen_cpu0);
  const BatchDelta search =
      BatchDelta::Between(search0, server->search_batcher()->stats());
  const BatchDelta encode =
      BatchDelta::Between(encode0, server->encode_batcher()->stats());
  const DiskCounts disk1 = DiskCounts::Now();
  const std::vector<Interval> open_quiet =
      QuietIntervals(driver.intervals("open"), kQuietSteal);
  const std::vector<Interval> closed_quiet =
      QuietIntervals(driver.intervals("closed"), kQuietSteal);

  // Off the clock from here on.
  AccountServed(driver.turns(), report);
  const std::vector<double> open_us =
      LatencyFromDue(driver.turns(), "open", open_quiet);
  Samples late_us = Lateness(driver.turns(), "open");
  const double late_p99 = late_us.Percentile(99.0);
  report->Gate(late_p99 <= kMaxGenLateP99Us,
               "open-loop generator ran late (p99 " + JsonNumber(late_p99) +
                   " us): run invalid, its latencies are not valid");
  Samples recall =
      ServedRecall(c, driver.turns(), kTopK, kRecallSample, report);
  const double floor = disk ? kRecallFloorDisk : kRecallFloorMemory;
  report->Gate(recall.size() > 0 && recall.Mean() >= floor,
               "recall_at_10 " + JsonNumber(recall.Mean()) + " below floor " +
                   JsonNumber(floor));
  uint64_t served_ok = 0;
  for (const ServedTurn& t : driver.turns()) {
    const std::string_view phase = t.phase;
    if (phase == "open" || phase == "closed") {
      served_ok += t.outcome == Outcome::kOk;
    }
  }

  const OpCounts total = report->ops.Total();
  std::vector<Metric>* e = &report->end_to_end;
  Add(e, "setup_s", setup_s.Median(), "s", setup_s.size());
  AddTurnLatency(open_us, args.trace, report);
  Add(UngatedList(args.trace, report), "turns_per_s",
      Throughput(driver.turns(), "closed", closed_quiet), "1/s",
      closed_quiet.size(),
      "closed loop, " + std::to_string(nproc) +
          " sessions in flight, over the quiet windows");
  size_t closed_ok = 0;
  for (const ServedTurn& t : driver.turns()) {
    closed_ok +=
        std::string_view(t.phase) == "closed" && t.outcome == Outcome::kOk;
  }
  Add(UngatedList(args.trace, report), "turns_per_cpu_s",
      Ratio(static_cast<double>(closed_ok), server_cpu_s), "1/s", closed_ok,
      "closed loop: completed turns per CPU-second of the server's threads");
  Add(e, "recall_at_10", recall.Mean(), "frac", recall.size());
  Add(e, "ok_frac",
      Ratio(static_cast<double>(total.succeeded),
            static_cast<double>(total.attempted)),
      "frac", total.attempted);
  Add(e, "peak_rss_mb", peak_rss_mb, "MiB", 0,
      "after set-up, warm-up and the open loop");
  Add(&report->extra, "failed_frac",
      Ratio(static_cast<double>(total.not_ok()),
            static_cast<double>(total.attempted)),
      "frac", total.attempted);
  Add(&report->extra, "gen_late_p99_us", late_p99, "us", late_us.size());
  AddStealExtras("open", driver.intervals("open"), open_quiet, report);
  AddStealExtras("closed", driver.intervals("closed"), closed_quiet, report);

  if (args.trace) {
    std::vector<Metric>* l = &report->layers;
    Add(l, "server.queue_wait_p50_us", queue_delta.Percentile(50) * 1e3, "us",
        queue_delta.count, "registry histogram delta, open loop");
    Add(l, "server.queue_wait_p99_us", queue_delta.Percentile(99) * 1e3, "us",
        queue_delta.count, "registry histogram delta, open loop");
    Add(l, "server.batcher_wait_p99_us", batcher_delta.Percentile(99) * 1e3,
        "us", batcher_delta.count, "registry histogram delta, open loop");
    Add(l, "server.search_batch_mean", search.MeanBatch(), "items",
        search.batches, "closed loop");
    Add(l, "server.encode_batch_mean", encode.MeanBatch(), "items",
        encode.batches, "closed loop");
    Add(l, "server.search_drain_flush_frac",
        Ratio(static_cast<double>(search.drain_flushes),
              static_cast<double>(search.batches)),
        "frac", search.batches, "closed loop");
    Samples served_one;
    for (const ServedTurn& t : driver.turns()) {
      if (std::string(t.phase) == "served_one" && t.outcome == Outcome::kOk) {
        served_one.Add(static_cast<double>(t.done_ns - t.sent_ns) / 1e3);
      }
    }
    Add(l, "server.overhead_p50_us", served_one.Median() - direct_us.Median(),
        "us", served_one.size(),
        "one-session served p50 minus direct AskWithState p50");
    AddProbeLayers(&direct_us, &probe, report);
    const double served_turns = static_cast<double>(served_ok);
    Add(l, "diskindex.page_reads_mean",
        Ratio(static_cast<double>(disk1.reads - disk0.reads), served_turns),
        "pages", served_ok, "per served turn, open + closed loop");
    Add(l, "diskindex.cache_hit_frac",
        Ratio(static_cast<double>(disk1.hits - disk0.hits),
              static_cast<double>(disk1.hits - disk0.hits + disk1.reads -
                                  disk0.reads)),
        "frac", served_ok);
    Add(l, "diskindex.bytes_read_mean",
        Ratio(static_cast<double>(disk1.bytes - disk0.bytes), served_turns),
        "B", served_ok, "per served turn");
    AddAbsentLayers({{"core.ingest_p50_us", "us"},
                     {"core.compactions", "count"},
                     {"core.compact_ms", "ms"},
                     {"durable.ingest_p50_us", "us"},
                     {"durable.ingest_p99_us", "us"},
                     {"durable.remove_p50_us", "us"},
                     {"durable.mutations_per_s", "1/s"},
                     {"durable.checkpoint_ms", "ms"},
                     {"durable.recovery_ms", "ms"},
                     {"durable.replayed_records", "count"},
                     {"storage.wal_share", "frac"},
                     {"storage.wal_bytes_per_mutation", "B"},
                     {"storage.snapshot_bytes", "B"}},
                    report);
    Add(l, "bench.gen_late_p99_us", late_p99, "us", late_us.size(),
        "open-loop generator lateness; a validity check");
  }
  server->Shutdown();
  return 0;
}

int RunLive(const Args& args, Report* report, SpanSink* sink) {
  const MqaConfig config = BaseConfig(kLiveCorpus);
  mqa::DurabilityOptions durability;
  durability.wal_sync_every = 1;
  RecordConfig(args, config, report);
  report->Config("wal_sync_every",
                 static_cast<double>(durability.wal_sync_every));
  report->Config("checkpoint_garbage_ratio",
                 durability.checkpoint_garbage_ratio);
  report->Config("ingest_share", kIngestShare);
  report->Config("remove_share", kRemoveShare);
  report->Config("recovery_cycles", static_cast<double>(kRecoveryCycles));

  const std::string root =
      args.out_dir + "/live_catalog-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  struct Cleanup {
    std::string root;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(root, ignored);
    }
  } cleanup{root};

  // Set-up: DurableSystem::Open on an empty directory, repeated.
  Samples setup_s;
  std::unique_ptr<mqa::DurableSystem> sys;
  std::string dir;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sys.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    dir = root + "/setup-" + std::to_string(i);
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<mqa::DurableSystem>> opened =
        mqa::DurableSystem::Open(config, dir, durability);
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    if (!opened.ok()) {
      std::fprintf(stderr, "setup: %s\n", opened.status().ToString().c_str());
      return 2;
    }
    sys = std::move(opened).Value();
  }

  const Zipf zipf(sys->coordinator()->world().num_concepts(),
                  kPopularitySeed);
  Catalogue catalogue(sys.get(), &zipf, Mix(args.seed, 20));
  ChurnResult churn = RunChurn(sys.get(), &catalogue, zipf, Mix(args.seed, 30),
                               args.seconds, kTopK, sink, report);
  report->Gate(churn.tombstoned == 0,
               std::to_string(churn.tombstoned) + " tombstoned ids returned");
  {
    auto [lost, resurfaced] =
        Diff(catalogue.model(), LiveFingerprints(*sys->coordinator()));
    report->Gate(lost == 0 && resurfaced == 0,
                 "live state before the crash differs from the acked model (" +
                     std::to_string(lost) + " missing, " +
                     std::to_string(resurfaced) + " extra)");
  }
  RecoveryResult recovery =
      RunRecoveryCycles(config, dir, durability, &sys, &catalogue, report);
  report->Gate(churn.recall.size() > 0 &&
                   churn.recall.Mean() >= kRecallFloorMemory,
               "recall_at_10 " + JsonNumber(churn.recall.Mean()) +
                   " below floor " + JsonNumber(kRecallFloorMemory));

  const double mutation_s =
      (churn.ingest_us.Sum() + churn.remove_us.Sum()) / 1e6;
  const double acked =
      static_cast<double>(churn.ingest_us.size() + churn.remove_us.size());
  const OpCounts total = report->ops.Total();
  std::vector<Metric>* e = &report->end_to_end;
  Add(e, "setup_s", setup_s.Median(), "s", setup_s.size());
  // Turn figures over the turns that started in quiet intervals.
  const std::vector<Interval> quiet =
      QuietIntervals(churn.intervals, kQuietSteal);
  std::vector<double> quiet_turns_us;
  for (size_t i = 0; i < churn.turn_order_us.size(); ++i) {
    if (InIntervals(quiet, churn.turn_start_ns[i])) {
      quiet_turns_us.push_back(churn.turn_order_us[i]);
    }
  }
  AddTurnLatency(quiet_turns_us, args.trace, report);
  double quiet_turn_s = 0.0;
  for (double us : quiet_turns_us) quiet_turn_s += us / 1e6;
  Add(UngatedList(args.trace, report), "turns_per_s",
      Ratio(static_cast<double>(quiet_turns_us.size()), quiet_turn_s), "1/s",
      quiet_turns_us.size(),
      "one caller, per second of turn calls, over the quiet windows");
  Add(UngatedList(args.trace, report), "turns_per_cpu_s",
      Ratio(static_cast<double>(churn.turn_us.size()), churn.turn_cpu_s),
      "1/s", churn.turn_us.size(), "turns per CPU-second of turn calls");
  Add(e, "recall_at_10", churn.recall.Mean(), "frac", churn.recall.size());
  Add(e, "ok_frac",
      Ratio(static_cast<double>(total.succeeded),
            static_cast<double>(total.attempted)),
      "frac", total.attempted);
  Add(e, "peak_rss_mb", churn.peak_rss_mb, "MiB", 0,
      "after set-up and the churn up to compaction " +
          std::to_string(kRssAfterCompactions));
  std::vector<Metric>* x = &report->extra;
  AddStealExtras("churn", churn.intervals, quiet, report);
  AddLatency(x, "ingest", &churn.ingest_us, "ms", true);
  AddLatency(x, "remove", &churn.remove_us, "ms", false);
  Add(x, "mutations_per_s", Ratio(acked, mutation_s), "1/s",
      static_cast<size_t>(acked), "per second of Ingest/Remove calls");
  Add(x, "recovery_s", recovery.recovery_ms.Median() / 1e3, "s",
      recovery.recovery_ms.size());
  Add(x, "failed_frac",
      Ratio(static_cast<double>(total.not_ok()),
            static_cast<double>(total.attempted)),
      "frac", total.attempted);
  if (!args.trace) return 0;

  std::vector<Metric>* l = &report->layers;
  AddAbsentLayers({{"server.queue_wait_p50_us", "us"},
                   {"server.queue_wait_p99_us", "us"},
                   {"server.batcher_wait_p99_us", "us"},
                   {"server.search_batch_mean", "items"},
                   {"server.encode_batch_mean", "items"},
                   {"server.search_drain_flush_frac", "frac"},
                   {"server.overhead_p50_us", "us"},
                   {"diskindex.page_reads_mean", "pages"},
                   {"diskindex.cache_hit_frac", "frac"},
                   {"diskindex.bytes_read_mean", "B"}},
                  report);
  AddProbeLayers(&churn.turn_us, &churn.probe, report);
  TwinResult twin = RunTwin(config, zipf, Mix(args.seed, 40), report);
  AddLatency(l, "core.ingest", &twin.ingest_us, "us", false);
  Add(l, "core.compactions", static_cast<double>(churn.compactions), "count");
  Add(l, "core.compact_ms", twin.compact_ms.Median(), "ms",
      twin.compact_ms.size(),
      "Coordinator::CompactNow on the non-durable twin");
  AddLatency(l, "durable.ingest", &churn.ingest_us, "us", true);
  AddLatency(l, "durable.remove", &churn.remove_us, "us", false);
  Add(l, "durable.mutations_per_s", Ratio(acked, mutation_s), "1/s",
      static_cast<size_t>(acked));
  Add(l, "durable.checkpoint_ms", churn.checkpoint_ms.Median(), "ms",
      churn.checkpoint_ms.size(),
      "removes that triggered compaction + checkpoint");
  Add(l, "durable.recovery_ms", recovery.recovery_ms.Median(), "ms",
      recovery.recovery_ms.size());
  Add(l, "durable.replayed_records", recovery.replayed.Median(), "count",
      recovery.replayed.size());
  Add(l, "storage.wal_share",
      Ratio(churn.ingest_us.Median() - twin.ingest_us.Median(),
            churn.ingest_us.Median()),
      "frac", 0, "(durable ingest p50 - core ingest p50) / durable p50");
  Add(l, "storage.wal_bytes_per_mutation", recovery.wal_bytes.Median(), "B",
      recovery.wal_bytes.size(), "growth of wal.log over the recovery tails");
  Add(l, "storage.snapshot_bytes", recovery.snapshot_bytes.Median(), "B",
      recovery.snapshot_bytes.size());
  Add(l, "bench.gen_late_p99_us", 0.0, "us", 0, "no open loop here");
  return 0;
}

int Finish(const Args& args, const Report& report, const SpanSink& sink) {
  std::string config = "{";
  for (size_t i = 0; i < report.config.size(); ++i) {
    config += (i == 0 ? "" : ", ") + JsonString(report.config[i].first) +
              ": " + report.config[i].second;
  }
  config += "}";
  std::printf("config %s\n\n", config.c_str());
  report.ops.Print();
  PrintMetrics("end-to-end", report.end_to_end);
  PrintMetrics("also measured", report.extra);
  PrintMetrics("per layer", report.layers);

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::string self_json = "{";
  if (sink.enabled()) {
    std::printf("\nspan self time (p50 us)\n");
    bool first = true;
    for (auto& [name, samples] : sink.SelfTimes()) {
      Samples s = samples;
      std::printf("  %-24s %10.2f  n=%zu\n", name.c_str(), s.Median(),
                  s.size());
      self_json += (first ? "" : ", ") + JsonString(name) + ": " +
                   JsonNumber(s.Median());
      first = false;
    }
    if (!sink.WriteJson(stem + "-spans.json")) {
      std::fprintf(stderr, "could not write %s-spans.json\n", stem.c_str());
    }
  }
  self_json += "}";

  const OpCounts total = report.ops.Total();
  std::vector<std::string> gates = report.gate_failures;
  if (total.failed + total.deadline > 0) {
    gates.push_back(std::to_string(total.failed + total.deadline) +
                    " admitted operations returned an error or no answer");
  }
  const bool correct = gates.empty();
  for (const std::string& g : gates) {
    std::printf("GATE FAILED: %s\n", g.c_str());
  }
  {
    std::ofstream out(stem + ".json");
    out << "{\"config\": " << config
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"operations\": " << report.ops.ToJson()
        << ", \"end_to_end\": " << MetricsJson(report.end_to_end, true)
        << ", \"also_measured\": " << MetricsJson(report.extra, true)
        << ", \"per_layer\": " << MetricsJson(report.layers, true)
        << ", \"span_self_p50_us\": " << self_json << "}\n";
  }
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.not_ok()),
              MetricsJson(args.trace ? report.layers : report.end_to_end,
                          false)
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload chat|disk_chat|live_catalog "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  mqa::SetLogLevel(mqa::LogLevel::kWarning);
  perfbench::Report report;
  perfbench::SpanSink sink(args.trace);
  const int rc = args.workload == "live_catalog"
                     ? perfbench::RunLive(args, &report, &sink)
                     : perfbench::RunServed(args, &report, &sink);
  if (rc != 0) return rc;
  return perfbench::Finish(args, report, sink);
}
