// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <lu_goodwin|chol_tight|serve_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Builds the workload's inputs from the seed, measures for --seconds, checks
// every operation, and prints one JSON object as its last line:
//   {"correct": ..., "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones of a separate traced run, and the span log is written to
// <out-dir>/spans-<workload>-<seed>.json. Only what the workload measured is
// printed; perfbench/run.py checks it against BENCHMARK.json. The line before
// it is an "info" object: seed, machine, build and the sample counts behind
// each percentile.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "stats.hpp"
#include "rapid/num/dispatch.hpp"

namespace perfbench {

void SharedCounters::reset() {
  for (auto& b : body_ns) b.store(0);
  init_ns.store(0);
}

SharedCounters& shared_counters() {
  static SharedCounters counters;  // static storage: starts at zero
  return counters;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void add_timings(Result& out, const std::vector<double>& solve_s,
                 const std::vector<double>& latency_ms,
                 const std::vector<double>& group_rates, const std::string& what) {
  out.add("solve_s_p10", nearest_rank(solve_s, 0.10), "s");
  out.add("latency_ms_p10", nearest_rank(latency_ms, 0.10), "ms");
  out.add("runs_per_s", nearest_rank(group_rates, 0.90), "1/s");
  const std::string n = std::to_string(solve_s.size()) + " " + what;
  auto text = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  const Tail st = tail(solve_s);
  const Tail lt = tail(latency_ms);
  out.note("solve_s_p50", text(median(solve_s)) + " s (" + n + ")");
  out.note("solve_s_tail", text(st.value) + " s (p" + text(st.quantile * 100) + " of " +
                               n + ", " + std::to_string(st.beyond) + " beyond)");
  out.note("latency_ms_p50", text(median(latency_ms)) + " ms (" + n + ")");
  out.note("latency_ms_p99", text(lt.value) + " ms (p" + text(lt.quantile * 100) + " of " +
                                 n + ", " + std::to_string(lt.beyond) + " beyond)");
  out.note("runs_per_s_groups", std::to_string(group_rates.size()) +
                                      " groups, median " + text(median(group_rates)) +
                                      " 1/s");
}

void add_setup_s(Result& out, const std::vector<double>& setup_s) {
  out.add("setup_s", median(setup_s), "s");
  out.note("setup_samples", std::to_string(setup_s.size()) + " setups, p10 " +
                                std::to_string(nearest_rank(setup_s, 0.10)) + " s");
}

namespace {

/// Pins the calling thread, and so every thread it starts from now on, to
/// the last CPU it may run on. Returns that CPU, or -1 when the affinity
/// cannot be read or set.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string s(text);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Args parse(int argc, char** argv) {
  Args a;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    seen.insert(key);
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  for (const char* k : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(k) == 0) throw std::invalid_argument(std::string("missing ") + k);
  }
  if (!(a.seconds > 0 && a.seconds <= 600)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  return a;
}

/// Adds the self time of each non-leaf span kind (mean per span, seconds).
void add_self_times(const SpanLog& log, Result& out) {
  const auto totals = log.totals();
  for (const auto& [metric, span] : self_time_spans()) {
    const auto it = totals.find(span);
    if (it == totals.end() || it->second.count == 0) continue;
    out.add(metric,
            static_cast<double>(it->second.self_ns) * 1e-9 /
                static_cast<double>(it->second.count),
            "s");
  }
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a %s build\n",
                 build_type.empty() ? "unoptimized" : build_type.c_str());
    return 3;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  // Every workload runs all of its threads on one CPU. On a shared virtual
  // machine the host slows some virtual CPUs for seconds to minutes at a
  // time, and a solve whose ranks run on all of them waits for the slowest:
  // unpinned, the same parallel solves took up to 2.5x longer in some
  // minutes than in others, past any usable regression bound. On one CPU
  // only that CPU's slowdowns count, and the numbers measure the work each
  // layer does (kernels, protocol, MAPs, service fixed costs), not the
  // parallel speed-up.
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "perfbench: cannot pin the workload to one CPU\n");
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  Result out;
  SpanLog log(args.trace, 3'000'000);
  try {
    if (args.workload == "serve_mix") {
      run_serve_workload(args, log, out);
    } else {
      run_executor_workload(args, log, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (args.trace) {
    add_self_times(log, out);
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!log.write_json(path)) out.findings.push_back("cannot write " + path);
    out.note("spans", path + " (" + std::to_string(log.stored()) + " stored, " +
                          std::to_string(log.dropped()) + " dropped)");
  }

  std::string metrics_json;
  for (const Metric& m : out.metrics) {
    metrics_json += (metrics_json.empty() ? "" : ", ") + json_string(m.name) +
                    ": {\"value\": " + number(m.value) + ", \"unit\": " +
                    json_string(m.unit) + "}";
  }

  const double failed_share =
      out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                        : 1.0;
  std::string info = "\"workload\": " + json_string(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + number(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"nproc\": " + std::to_string(nproc) +
                     ", \"cpu_pinned\": " + std::to_string(cpu) +
                     ", \"cpu\": " + json_string(cpu_model()) +
                     ", \"build_type\": " + json_string(build_type) +
                     ", \"rapid_native\": " + (PERFBENCH_NATIVE ? "true" : "false") +
                     ", \"kernel_dispatch\": " +
                     json_string(std::string(rapid::num::kernel_level_name(
                                     rapid::num::kernel_level())) +
                                 (rapid::num::kernels_vectorized() ? "/vector" : "/scalar")) +
                     ", \"git\": " + json_string(PERFBENCH_GIT) +
                     ", \"failed_share\": {\"value\": " + number(failed_share) +
                     ", \"unit\": \"ratio\"}";
  for (const auto& [k, v] : out.info) info += ", " + json_string(k) + ": " + json_string(v);
  std::string findings;
  for (const std::string& f : out.findings) {
    findings += (findings.empty() ? "" : ", ") + json_string(f);
  }
  info += ", \"findings\": [" + findings + "]";
  std::printf("{\"info\": {%s}}\n", info.c_str());

  const bool correct = out.failed == 0 && out.findings.empty() && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}
