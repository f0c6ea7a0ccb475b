#pragma once
// Shared pieces of the benchmark's load generator: arguments, the result
// record, percentile helpers and answer-check helpers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure/orchestrator.h"

namespace perfbench {

/// Load-generator arguments (see loadgen.cc for the flags).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;          ///< request seed: op lists, nonces
  std::uint64_t world_seed = 1897; ///< world seed (1897 = the paper's)
  double seconds = 20;             ///< sizes the fixed op list
  bool trace = false;
  std::string anyoptd;             ///< daemon binary (serve_paper)
  std::string spans_out;           ///< JSONL span dump (traced runs)
};

/// One run's result: metrics by name, exact work counts, answer checks.
class Record {
 public:
  /// Sets a metric (replaces an earlier value of the same name).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A metric's value, or `fallback` when it was never set.
  [[nodiscard]] double value(const std::string& name, double fallback) const;
  /// Keeps one op kind's durations (ms) with the record, for later
  /// distribution comparisons.
  void samples(const std::string& name, const std::vector<double>& ms);
  /// Adds to an exact work count.
  void count(const std::string& name, std::uint64_t n);
  /// Records a run fact (seed, percentile, ...) shown with the result.
  void info(const std::string& key, const std::string& value);
  /// Counts one attempted op; `ok` false counts it as failed.
  void op(bool ok);
  /// Records a failed answer check with its reason (also clears `correct`).
  void fail(const std::string& why);

  [[nodiscard]] bool correct() const { return problems_.empty(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::uint64_t> counts_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median (mean of the two middle values for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);

/// Arithmetic mean; 0 if empty.
[[nodiscard]] double mean(const std::vector<double>& v);

/// Ops completed per second of op time, for ops run one after another:
/// the count divided by the summed durations (in ms).
[[nodiscard]] double ops_per_second(const std::vector<double>& op_ms);

/// The highest percentile of {99.9, 99, 98, 95, 90, 75, 50} that still has
/// at least ten samples beyond it among `n`; 100 (the maximum) when even
/// the median has fewer than ten samples beyond it.
[[nodiscard]] double tail_percentile(std::size_t n);

/// Nearest-rank percentile `p` (0-100] of the samples; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Peak resident set (VmHWM) of a process, in MB; 0 if unreadable.
/// `pid` 0 reads the calling process.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// True when both censuses hold the same bytes.
[[nodiscard]] bool same_census(const anyopt::measure::Census& a,
                               const anyopt::measure::Census& b);

/// Derives a 64-bit value from the request seed and a label/index pair, so
/// every input of a run is a pure function of the seed.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t label,
                                   std::uint64_t index = 0);

/// Workload entry points.  Each fills `record` and returns normally; a
/// failed op or check is recorded, not thrown.
void run_plan_paper(const Args& args, Record& record);
void run_census_35k(const Args& args, Record& record);
void run_serve_paper(const Args& args, Record& record);

/// Adds the span-derived self time of every layer (`self.<layer>_s`).
void record_self_times(Record& record);

/// Reports the telemetry-registry values every traced run shares: resolve
/// hit rate, probe counts per census, overlay counts per overlay op and the
/// `bytes.*` high-water marks.  `overlay_units` is the number of ops the
/// overlay counters are divided by (overlay pairs, or mitigations).
void record_registry_metrics(Record& record, std::uint64_t overlay_units);

}  // namespace perfbench
