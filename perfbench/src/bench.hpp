// Shared pieces of the end-to-end benchmark: command-line arguments, the
// result every workload fills in, and the counters task-body wrappers
// update.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rapid/support/stopwatch.hpp"
#include "spans.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for span dumps and telemetry snapshots.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `metrics` are the gated numbers; `info` holds
/// descriptive key/value text (percentiles used, sample counts, findings).
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Findings that make the run incorrect even if every operation passed
  /// (oracle mismatch, conformance errors); each is one line of text.
  std::vector<std::string> findings;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  /// Counts one operation; a false `ok` counts it as failed and records why.
  void count(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (findings.size() < 20) findings.push_back(why);
    }
  }
};

constexpr int kMaxProcs = 16;

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"lu_goodwin", "chol_tight",
                                                 "serve_mix"};
  return names;
}

/// Self-time metrics and the span kind each one reduces (the benchmark's
/// non-leaf spans; a leaf span's self time is its duration, already
/// reported under its layer metric).
inline const std::vector<std::pair<std::string, std::string>>& self_time_spans() {
  static const std::vector<std::pair<std::string, std::string>> s = {
      {"self.setup_s", "bench.setup"},     {"self.solve_s", "bench.solve"},
      {"self.exec_ctor_s", "rt.exec_ctor"}, {"self.exec_run_s", "rt.exec_run"},
      {"self.request_s", "bench.request"},
  };
  return s;
}

/// Counters the wrapped TaskBody / ObjectInit closures add to from every
/// rank thread.
struct SharedCounters {
  std::atomic<std::int64_t> body_ns[kMaxProcs];  // per rank
  std::atomic<std::int64_t> init_ns;
  void reset();
};
SharedCounters& shared_counters();

/// Adds the gated timing metrics from one run's samples: solve_s_p10 and
/// latency_ms_p10 (10th percentiles), and runs_per_s (90th percentile of
/// the rates of consecutive groups of operations: the fastest tenth, like
/// the latencies). Notes the median, tail percentile and mean rate on
/// the info line. `what` names the samples ("solves", "requests").
void add_timings(Result& out, const std::vector<double>& solve_s,
                 const std::vector<double>& latency_ms,
                 const std::vector<double>& group_rates, const std::string& what);

/// Adds setup_s, the median of the run's setup times (s), and notes how
/// many there were and their 10th percentile.
void add_setup_s(Result& out, const std::vector<double>& setup_s);

/// Peak resident set of this process, in MB.
double rss_peak_mb();

/// splitmix64 finalizer: a stateless hash for seeded, order-free draws.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(rapid::now_ns() - t0_ns) * 1e-9;
}

/// Each workload records spans into `log` (a no-op unless args.trace).
void run_executor_workload(const Args& args, SpanLog& log, Result& out);
void run_serve_workload(const Args& args, SpanLog& log, Result& out);

}  // namespace perfbench
