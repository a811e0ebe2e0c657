// Shared plumbing of the perfbench program: wall-clock timing, sample
// summaries, the result line the benchmark contract asks for, and the
// provenance stamp printed ahead of it.
//
// Every workload fills one Outcome. Untraced runs put the end-to-end
// metrics in it; traced runs put the per-layer metrics. The program prints
// human-readable lines first and the one-line JSON result last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` once and returns its wall time in seconds.
template <typename F>
double time_s(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Timing samples with the summary the benchmark reports: the median and
/// a tail percentile — p99, or, with fewer than 1000 samples, the highest
/// percentile that still has at least ten samples above it.
struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  std::size_t count() const { return values.size(); }
  double sum() const;
  double median() const;
  /// The tail value (the maximum when there are fewer than eleven
  /// samples).
  double tail() const;
  /// The percentile tail() sits at, e.g. 96.2 for 260 samples.
  double tail_percentile() const;
  /// "median=… pNN=… n=…" in the given unit scale (1e3 for ms).
  std::string describe(double scale, const char* unit) const;
};

double median_of(std::vector<double> v);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one attempted operation; a false `ok` also counts a failure
  /// and records `what`.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
};

/// Settings every workload receives from the command line. Sockets and
/// logs are created in the working directory.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< path to the redspot-serve daemon
  std::string self_exe;   ///< this binary, for spawning fleet workers
  /// Digest the run must reproduce (recorded for some seeds in
  /// perfbench/expected.json); empty when none is recorded.
  std::string expect_digest;
};

/// Processes a load generator or fleet may use: nproc.
std::size_t nproc();

/// Peak resident set of this process and of its largest reaped child, MB.
double peak_rss_mb();

/// CPU seconds (user + system) used so far by this process and by its
/// reaped children. CPU time per op is the end-to-end cost figure that
/// scheduling stalls of the host do not inflate, unlike wall latency.
struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;
};
CpuTimes cpu_times();

/// Prints a "# key: value" line (human-readable part of the output).
void note(const std::string& key, const std::string& value);

/// Lowercase hex of a 64-bit digest.
std::string hex64(std::uint64_t v);

/// Prints `o` as the final JSON line and returns the process exit code.
int emit(const Outcome& o);

Outcome run_paper_repro(const RunArgs& args);
Outcome run_ensemble_fleet(const RunArgs& args);
Outcome run_serve_mixed(const RunArgs& args);

/// Entry point of a spawned fabric worker (see ensemble_fleet.cpp).
int fleet_worker_main(int argc, char** argv);

}  // namespace perfbench
