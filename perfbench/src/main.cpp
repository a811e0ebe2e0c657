// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve-bin PATH [--expect-digest HEX]
//   perfbench fleet-worker ...   (spawned by the ensemble-fleet workload)
//
// Normally started by perfbench/run.py, which builds this binary and the
// redspot-serve daemon first. Workloads: paper-repro, ensemble-fleet,
// serve-mixed (see the workload files for what each sends and why). The
// last line of standard output is the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace perfbench {

double Samples::sum() const {
  double s = 0.0;
  for (const double v : values) s += v;
  return s;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::median() const { return median_of(values); }

namespace {

/// Samples at or below the tail value: n - 10 (at least ten above it), or
/// 99% of them once that is the smaller count.
std::size_t tail_rank(std::size_t n) {
  if (n <= 10) return n;
  return std::min(n - 10, (n * 99 + 99) / 100);
}

}  // namespace

double Samples::tail() const {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  return v[tail_rank(v.size()) - 1];
}

double Samples::tail_percentile() const {
  const std::size_t n = values.size();
  return n == 0 ? 0.0
                : 100.0 * static_cast<double>(tail_rank(n)) /
                      static_cast<double>(n);
}

std::string Samples::describe(double scale, const char* unit) const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "median=%.4f%s p%.1f=%.4f%s n=%zu",
                median() * scale, unit, tail_percentile(), tail() * scale,
                unit, count());
  return buf;
}

void Outcome::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
}

void Outcome::count(std::uint64_t n, std::uint64_t bad,
                    const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0) errors.push_back(what + " (" + std::to_string(bad) + ")");
}

std::size_t nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

namespace {

double cpu_seconds(const rusage& r) {
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e6;
}

}  // namespace

CpuTimes cpu_times() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return CpuTimes{cpu_seconds(self), cpu_seconds(children)};
}

void note(const std::string& key, const std::string& value) {
  std::printf("# %s: %s\n", key.c_str(), value.c_str());
  std::fflush(stdout);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

int emit(const Outcome& o) {
  for (const std::string& e : o.errors)
    std::printf("# FAILED: %s\n", e.c_str());
  std::printf("# failed_frac: %.6g (%llu of %llu operations)\n",
              o.attempted == 0 ? 1.0
                               : static_cast<double>(o.failed) /
                                     static_cast<double>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
  const bool correct = o.failed == 0 && o.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : o.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += first ? "" : ", ";
    first = false;
    line += "\"" + json_escape(name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --serve-bin PATH "
               "[--expect-digest HEX]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::strcmp(argv[1], "fleet-worker") == 0)
    return fleet_worker_main(argc - 1, argv + 1);

  RunArgs args;
  args.self_exe = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing option value");
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--serve-bin") {
      args.serve_bin = v;
    } else if (a == "--expect-digest") {
      args.expect_digest = v;
    } else {
      usage("unknown option");
    }
  }
  if (args.seconds <= 0.0) usage("--seconds must be positive");

  note("workload", args.workload);
  note("seed", std::to_string(args.seed));
  note("trace", args.trace ? "1" : "0");
  note("build_type", PERFBENCH_BUILD_TYPE);
  note("nproc", std::to_string(nproc()));

  Outcome outcome;
  try {
    if (args.workload == "paper-repro") {
      outcome = run_paper_repro(args);
    } else if (args.workload == "ensemble-fleet") {
      outcome = run_ensemble_fleet(args);
    } else if (args.workload == "serve-mixed") {
      outcome = run_serve_mixed(args);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    outcome.check(false, std::string("workload aborted: ") + e.what());
  }
  return emit(outcome);
}
