// Generic measurement helpers of the benchmark driver: a steady clock,
// latency samples with nearest-rank percentiles, registry-histogram
// deltas, operation accounting, the span sink of the traced run, and the
// small JSON writer the result lines use. Nothing here knows about MQA's
// workloads; main.cc does.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A set of measured values (latencies, sizes). Percentiles are nearest
/// rank on the sorted values, so they are always a measured value.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Percentile(double p) {
    if (values_.empty()) return 0.0;
    Sort();
    const double rank = std::ceil(p / 100.0 * static_cast<double>(size()));
    const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return values_[std::min(idx, size() - 1)];
  }
  double Median() { return Percentile(50.0); }
  double Mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }
  double Sum() const {
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum;
  }
  /// The highest of the usual tail percentiles that still has at least
  /// ten samples beyond it (0 when there are fewer than 20 samples).
  double TailPercentile() const {
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
      if (static_cast<double>(size()) * (1.0 - p / 100.0) >= 10.0) return p;
    }
    return 0.0;
  }

 private:
  void Sort() {
    if (!sorted_) std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  std::vector<double> values_;
  bool sorted_ = true;
};

/// Interval view of one registry histogram: Snapshot at the start, then
/// Percentile/Mean over only what was recorded since.
class HistogramDelta {
 public:
  explicit HistogramDelta(std::string name) : name_(std::move(name)) {
    before_ = mqa::MetricsRegistry::Global().HistogramSnapshotOf(name_);
  }
  mqa::HistogramSnapshot Delta() const {
    mqa::HistogramSnapshot after =
        mqa::MetricsRegistry::Global().HistogramSnapshotOf(name_);
    if (before_.counts.size() != after.counts.size()) return after;
    for (size_t i = 0; i < after.counts.size(); ++i) {
      after.counts[i] -= before_.counts[i];
    }
    after.count -= before_.count;
    after.sum -= before_.sum;
    return after;
  }

 private:
  std::string name_;
  mqa::HistogramSnapshot before_;
};

inline uint64_t CounterValue(const char* name) {
  return mqa::MetricsRegistry::Global().CounterValue(name);
}

/// Attempted / succeeded / failed / shed / deadline-dropped operations of
/// one (phase, operation type) cell.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;    ///< admitted (or called) and returned an error
  uint64_t shed = 0;      ///< refused at admission
  uint64_t deadline = 0;  ///< dropped for an expired deadline
  uint64_t not_ok() const { return failed + shed + deadline; }
  /// One call that either succeeded or returned an error.
  void Record(bool ok) {
    ++attempted;
    ++(ok ? succeeded : failed);
  }
};

class Accounting {
 public:
  OpCounts& At(const std::string& phase, const std::string& op) {
    return cells_[phase][op];
  }
  OpCounts Total() const {
    OpCounts t;
    for (const auto& [phase, ops] : cells_) {
      for (const auto& [op, c] : ops) {
        t.attempted += c.attempted;
        t.succeeded += c.succeeded;
        t.failed += c.failed;
        t.shed += c.shed;
        t.deadline += c.deadline;
      }
    }
    return t;
  }
  std::string ToJson() const {
    std::ostringstream out;
    out << "{";
    bool first_phase = true;
    for (const auto& [phase, ops] : cells_) {
      out << (first_phase ? "" : ",") << "\"" << phase << "\":{";
      first_phase = false;
      bool first_op = true;
      for (const auto& [op, c] : ops) {
        out << (first_op ? "" : ",") << "\"" << op << "\":{\"attempted\":"
            << c.attempted << ",\"succeeded\":" << c.succeeded
            << ",\"failed\":" << c.failed << ",\"shed\":" << c.shed
            << ",\"deadline_dropped\":" << c.deadline << "}";
        first_op = false;
      }
      out << "}";
    }
    out << "}";
    return out.str();
  }
  void Print() const {
    std::printf("%-14s %-10s %9s %9s %7s %6s %9s\n", "phase", "op",
                "attempted", "succeeded", "failed", "shed", "deadline");
    for (const auto& [phase, ops] : cells_) {
      for (const auto& [op, c] : ops) {
        std::printf("%-14s %-10s %9llu %9llu %7llu %6llu %9llu\n",
                    phase.c_str(), op.c_str(),
                    static_cast<unsigned long long>(c.attempted),
                    static_cast<unsigned long long>(c.succeeded),
                    static_cast<unsigned long long>(c.failed),
                    static_cast<unsigned long long>(c.shed),
                    static_cast<unsigned long long>(c.deadline));
      }
    }
  }

 private:
  std::map<std::string, std::map<std::string, OpCounts>> cells_;
};

/// The traced run's span store. Every traced turn gets its own mqa::Trace
/// (common/trace.h); spans are opened and closed explicitly around calls
/// into the program's public functions, so the spans are the benchmark's
/// own. The program's ambient spans are not captured: no ScopedTrace is
/// installed, which keeps traced and untraced runs on the same code path
/// inside the program. Traces stay in memory until WriteJson at exit.
class SpanSink {
 public:
  explicit SpanSink(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {}
  bool enabled() const { return enabled_; }

  /// A new turn's trace (null when tracing is off). Thread-safe use of the
  /// returned trace is the trace's own business; the sink itself is only
  /// touched by the generator thread.
  std::shared_ptr<mqa::Trace> NewTurn(const std::string& name) {
    if (!enabled_) return nullptr;
    auto trace = std::make_shared<mqa::Trace>(name);
    turns_.push_back(
        {trace, static_cast<double>(NowNs() - origin_ns_) / 1e3});
    return trace;
  }

  /// Self time of every span (its duration minus the durations of its
  /// direct children), grouped by span name, in microseconds.
  std::map<std::string, Samples> SelfTimes() const {
    std::map<std::string, Samples> out;
    for (const Turn& turn : turns_) {
      const std::vector<mqa::SpanRecord> spans = turn.trace->spans();
      std::vector<int64_t> child_us(spans.size(), 0);
      for (const mqa::SpanRecord& s : spans) {
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
          child_us[s.parent] += s.DurationMicros();
        }
      }
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].end_micros < 0) continue;
        out[spans[i].name].Add(
            static_cast<double>(spans[i].DurationMicros() - child_us[i]));
      }
    }
    return out;
  }

  /// {"spans":[{"turn","trace","id","parent","name","start_us","end_us"}]}
  /// with start/end relative to the sink's creation.
  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\":[";
    bool first = true;
    for (size_t t = 0; t < turns_.size(); ++t) {
      const Turn& turn = turns_[t];
      for (const mqa::SpanRecord& s : turn.trace->spans()) {
        out << (first ? "\n" : ",\n") << "{\"turn\":" << t << ",\"trace\":\""
            << turn.trace->name() << "\",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
            << "\",\"start_us\":"
            << turn.epoch_us + static_cast<double>(s.start_micros)
            << ",\"end_us\":"
            << (s.end_micros < 0
                    ? -1.0
                    : turn.epoch_us + static_cast<double>(s.end_micros))
            << "}";
        first = false;
      }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Turn {
    std::shared_ptr<mqa::Trace> trace;
    double epoch_us;  ///< trace epoch relative to the sink origin
  };
  bool enabled_;
  int64_t origin_ns_;
  std::vector<Turn> turns_;
};

/// Opens a span on `trace` under `parent` for the lifetime of the object;
/// a no-op on a null trace.
class SpanScope {
 public:
  SpanScope(mqa::Trace* trace, const char* name, int32_t parent = -1)
      : trace_(trace), id_(trace != nullptr ? trace->BeginSpan(name, parent)
                                            : -1) {}
  ~SpanScope() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int32_t id() const { return id_; }

 private:
  mqa::Trace* trace_;
  int32_t id_;
};

/// Host CPU time counters from /proc/stat (all CPUs, in clock ticks).
/// `steal` is time the hypervisor ran something else while a vCPU of this
/// machine wanted to run.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
  static CpuTimes Now() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    CpuTimes t;
    in >> cpu;  // the aggregate "cpu" line comes first
    uint64_t v = 0;
    for (int field = 0; field < 8 && in >> v; ++field) {
      t.total += v;
      if (field == 7) t.steal = v;
    }
    return t;
  }
  /// Share of CPU time stolen between `before` and this sample.
  double StealSince(const CpuTimes& before) const {
    return total > before.total ? static_cast<double>(steal - before.steal) /
                                      static_cast<double>(total - before.total)
                                : 0.0;
  }
};

/// CPU time consumed by the whole process and by the calling thread, in
/// seconds. Time the hypervisor stole from a vCPU is not counted.
inline double ProcessCpuS() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}
inline double ThreadCpuS() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

/// Length of the intervals whose host steal time is tracked.
constexpr double kStealWindowS = 0.25;

/// One stretch of a phase and the share of the machine's CPU time the
/// hypervisor stole during it.
struct Interval {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  double steal = 0.0;
};

/// Cuts a phase into intervals of about `window_s` and records each one's
/// steal share. The phase's driver calls Tick() often (every loop turn);
/// it reads /proc/stat only when a window has passed.
class StealTracker {
 public:
  explicit StealTracker(double window_s)
      : window_ns_(static_cast<int64_t>(window_s * 1e9)) {}
  void Begin() {
    marks_.clear();
    Mark();
  }
  void Tick() {
    if (NowNs() >= marks_.back().first + window_ns_) Mark();
  }
  /// Closes the phase and returns its intervals.
  std::vector<Interval> End() {
    Mark();
    std::vector<Interval> out;
    for (size_t i = 0; i + 1 < marks_.size(); ++i) {
      out.push_back({marks_[i].first, marks_[i + 1].first,
                     marks_[i + 1].second.StealSince(marks_[i].second)});
    }
    return out;
  }

 private:
  void Mark() { marks_.emplace_back(NowNs(), CpuTimes::Now()); }
  int64_t window_ns_;
  std::vector<std::pair<int64_t, CpuTimes>> marks_;
};

/// The intervals a measurement uses: those during which the host stole at
/// most `max_steal` of the machine's CPU time. When fewer than an eighth
/// of the intervals (and at least 4) qualify, that many intervals with
/// the least steal are used instead. On a shared VM, steal time comes in
/// bursts; excluding them keeps other tenants' load out of the figures.
inline std::vector<Interval> QuietIntervals(std::vector<Interval> all,
                                            double max_steal) {
  std::vector<Interval> quiet;
  for (const Interval& i : all) {
    if (i.steal <= max_steal) quiet.push_back(i);
  }
  const size_t least =
      std::min(all.size(), std::max<size_t>(4, all.size() / 8));
  if (quiet.size() >= least) return quiet;
  std::sort(all.begin(), all.end(), [](const Interval& a, const Interval& b) {
    return a.steal < b.steal;
  });
  all.resize(least);
  std::sort(all.begin(), all.end(), [](const Interval& a, const Interval& b) {
    return a.begin_ns < b.begin_ns;
  });
  return all;
}

/// Whether `t` falls in one of `intervals` (sorted by begin).
inline bool InIntervals(const std::vector<Interval>& intervals, int64_t t) {
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), t,
      [](int64_t v, const Interval& i) { return v < i.begin_ns; });
  return it != intervals.begin() && t < std::prev(it)->end_ns;
}

/// Total length of `intervals`, in seconds.
inline double Seconds(const std::vector<Interval>& intervals) {
  double s = 0.0;
  for (const Interval& i : intervals) {
    s += static_cast<double>(i.end_ns - i.begin_ns) / 1e9;
  }
  return s;
}

/// Mean steal share over `intervals`, weighted by length.
inline double MeanSteal(const std::vector<Interval>& intervals) {
  double stolen = 0.0;
  for (const Interval& i : intervals) {
    stolen += i.steal * static_cast<double>(i.end_ns - i.begin_ns) / 1e9;
  }
  const double s = Seconds(intervals);
  return s > 0 ? stolen / s : 0.0;
}

/// Peak resident set size of this process (VmHWM), in MiB.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// JSON number with all its significant digits (mqa::JsonNumber keeps
/// six, too few for measured values); never NaN or inf.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  return "\"" + mqa::JsonEscape(s) + "\"";
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
