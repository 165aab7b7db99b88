// The figures one run reports: end-to-end, per-layer and extra named
// metrics with units and sample counts, the correctness gates, the
// operation accounting and the config block, and their text/JSON forms.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  std::string note;
};

/// Everything one run reports: the end-to-end metrics, the per-layer
/// metrics, extra named figures that are printed but not in the result
/// line, the gates, the operation accounting and the config block.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<Metric> extra;
  std::vector<std::string> gate_failures;
  Accounting ops;
  std::vector<std::pair<std::string, std::string>> config;  // key -> JSON

  void Gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  void Config(const std::string& key, const std::string& json_value) {
    config.emplace_back(key, json_value);
  }
  void Config(const std::string& key, double v) {
    Config(key, JsonNumber(v));
  }
};

inline void Add(std::vector<Metric>* list, const std::string& name,
                double value, const std::string& unit, size_t samples = 0,
                const std::string& note = "") {
  list->push_back({name, value, unit, samples, note});
}

/// The list the serving speed figures go to: the per-layer metrics of a
/// traced run, the extras otherwise. They are not gated end to end: on a
/// shared VM, host steal time moved turns_per_s by up to 4x and
/// turns_per_cpu_s by up to 1.5x between runs of the same code.
inline std::vector<Metric>* UngatedList(bool traced, Report* report) {
  return traced ? &report->layers : &report->extra;
}

/// Adds turn_p50_ms and turn_p99_ms from per-turn latencies in µs.
inline void AddTurnLatency(const std::vector<double>& turns_us, bool traced,
                           Report* report) {
  Samples all;
  for (double v : turns_us) all.Add(v);
  std::vector<Metric>* list = UngatedList(traced, report);
  Add(list, "turn_p50_ms", all.Median() / 1e3, "ms", all.size(),
      "tail p" + JsonNumber(all.TailPercentile()) + " = " +
          JsonNumber(all.Percentile(all.TailPercentile()) / 1e3));
  Add(list, "turn_p99_ms", all.Percentile(99.0) / 1e3, "ms", all.size());
}

/// Adds the host steal share of a phase (all of it, and the quiet
/// intervals the figures use) as extras.
inline void AddStealExtras(const std::string& phase,
                           const std::vector<Interval>& all,
                           const std::vector<Interval>& quiet,
                           Report* report) {
  Add(&report->extra, "host_steal_" + phase + "_frac", MeanSteal(all), "frac",
      all.size(), "whole phase");
  Add(&report->extra, "host_steal_" + phase + "_quiet_frac", MeanSteal(quiet),
      "frac", quiet.size(),
      std::to_string(quiet.size()) + " of " + std::to_string(all.size()) +
          " windows used");
}

/// Adds `<prefix>_p50_<unit>` and, when requested, the p99 of `s`
/// (nearest rank), scaled from microseconds to the unit.
inline void AddLatency(std::vector<Metric>* list, const std::string& prefix,
                       Samples* s, const std::string& unit, bool p99) {
  const double scale = unit == "ms" ? 1e-3 : 1.0;
  const std::string tail =
      "tail p" + JsonNumber(s->TailPercentile()) + " = " +
      JsonNumber(s->Percentile(s->TailPercentile()) * scale);
  Add(list, prefix + "_p50_" + unit, s->Median() * scale, unit, s->size(),
      tail);
  if (p99) {
    Add(list, prefix + "_p99_" + unit, s->Percentile(99.0) * scale, unit,
        s->size(), s->size() >= 1000 ? "" : "fewer than 1000 samples");
  }
}

inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// Zero-valued entries for the per-layer metrics a workload has no layer
/// for, so every traced run reports the same metric names.
inline void AddAbsentLayers(
    const std::vector<std::pair<std::string, std::string>>& names_units,
    Report* report) {
  for (const auto& [name, unit] : names_units) {
    Add(&report->layers, name, 0.0, unit, 0, "layer not on this workload");
  }
}

inline std::string MetricsJson(const std::vector<Metric>& list, bool detailed) {
  std::string out = "{";
  for (size_t i = 0; i < list.size(); ++i) {
    const Metric& m = list[i];
    out += (i == 0 ? "" : ", ") + JsonString(m.name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (detailed) {
      out += ", \"samples\": " + std::to_string(m.samples) +
             ", \"note\": " + JsonString(m.note);
    }
    out += "}";
  }
  return out + "}";
}

inline void PrintMetrics(const char* title, const std::vector<Metric>& list) {
  if (list.empty()) return;
  std::printf("\n%s\n", title);
  for (const Metric& m : list) {
    std::printf("  %-34s %14.6g %-6s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf("  n=%zu", m.samples);
    if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
    std::printf("\n");
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
