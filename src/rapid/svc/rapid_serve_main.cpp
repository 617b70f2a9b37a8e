// rapid_serve: drive the multi-tenant RuntimeService from run-spec lines.
// Each input line describes one RunRequest — a workload spec in the
// num/shm_workloads.hpp grammar followed by optional key=value tokens —
// and the tool prints one JSON RunRecord per run plus a closing service
// summary, so a shell loop or a CI lane can exercise admission control,
// deadlines, backpressure and fault containment without writing C++.
//
//   echo "grid:rows=8,cols=8,procs=4 capacity=4096" | ./rapid_serve
//   ./rapid_serve --runs=mix.txt --budget=$((64<<20)) --workers=4
//                 --json=service_report.json --report-dir=reports/
//
// Line grammar (after the workload spec, any order):
//   capacity=<bytes>     per-proc capacity          (default 1048576)
//   deadline_us=<n>      per-run deadline, 0 = none (default 0)
//   priority=<n>         higher dispatches first    (default 0)
//   attempts=<n>         restart attempt cap        (default 3)
//   faults=<preset>      addr|put|slow|park|corrupt|dup (arms retry too)
//   seed=<n>             seed for the fault preset  (default 1)
//   active=<0|1>         paper's active memory      (default 1)
//
// Every line is parsed before the first run is submitted, and numbers
// parse strictly (support/str.hpp parse_number), so a malformed line exits
// 2 naming the line and the key without having run anything.
//
// Exit codes (support/exit_codes.hpp): 0 every run completed with clean
// numerics; 1 findings (a run failed, was rejected, shed, expired, or
// finished inexact); 2 infrastructure error (bad flags, unreadable input,
// a malformed run line, unexpected exception).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rapid/obs/telemetry.hpp"
#include "rapid/rt/faults.hpp"
#include "rapid/rt/shm_health.hpp"
#include "rapid/support/backoff.hpp"
#include "rapid/support/exit_codes.hpp"
#include "rapid/support/file.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/str.hpp"
#include "rapid/svc/service.hpp"

namespace {

using namespace rapid;

/// Parses input line `line_no` into a RunRequest. Throws rapid::Error
/// naming the line on a malformed token (the caller converts that into an
/// infra error — no run has been submitted yet).
svc::RunRequest parse_line(const std::string& line, std::int64_t line_no) {
  const std::string where = cat("run line ", line_no);
  std::istringstream in(line);
  svc::RunRequest req;
  in >> req.spec;
  req.config.capacity_per_proc = 1 << 20;
  std::string token;
  std::string fault_preset;
  std::uint64_t fault_seed = 1;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw Error(cat(where, ": expected key=value, got \"", token, "\""));
    }
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    if (key == "capacity") {
      req.config.capacity_per_proc =
          parse_number<std::int64_t>(where, key, val);
    } else if (key == "deadline_us") {
      req.deadline_us = parse_number<std::int64_t>(where, key, val);
    } else if (key == "priority") {
      req.priority = parse_number<std::int32_t>(where, key, val);
    } else if (key == "attempts") {
      req.recovery.max_run_attempts =
          parse_number<std::int32_t>(where, key, val);
    } else if (key == "faults") {
      fault_preset = val;
    } else if (key == "seed") {
      fault_seed = parse_number<std::uint64_t>(where, key, val);
    } else if (key == "active") {
      req.config.active_memory = parse_number<int>(where, key, val) != 0;
    } else {
      throw Error(cat(where, ": unknown key \"", key, "\""));
    }
  }
  if (!fault_preset.empty()) {
    req.options.faults = rt::FaultPlan::preset(fault_preset, fault_seed);
    req.options.retry = RetryPolicy::standard();
  }
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("runs", "",
               "file of run lines (one RunRequest per line; '#' comments); "
               "empty: read stdin");
  flags.define("budget", std::to_string(256ll << 20),
               "global capacity budget in bytes");
  flags.define("workers", "2", "worker pool size (concurrent runs)");
  flags.define("queue", "16", "bounded admission-queue limit");
  flags.define("json", "", "write the full service document to this path");
  flags.define("report-dir", "",
               "also write each run's record as <dir>/run_<id>.json");
  flags.define("metrics-file", "",
               "write live Prometheus telemetry snapshots to this path "
               "(plus <path>.json), atomically, while serving; a write "
               "failure disables the sampler with a warning, never the "
               "service");
  flags.define("metrics-interval-ms", "250",
               "telemetry sampling/write period in milliseconds");
  try {
    flags.parse(argc, argv);
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  if (flags.help_requested()) return kExitOk;

  try {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (!flags.get("runs").empty()) {
      file.open(flags.get("runs"));
      RAPID_CHECK(file.good(),
                  cat("cannot read run file ", flags.get("runs")));
      in = &file;
    }

    std::vector<svc::RunRequest> requests;
    std::string line;
    for (std::int64_t line_no = 1; std::getline(*in, line); ++line_no) {
      const std::size_t start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] == '#') continue;
      requests.push_back(parse_line(line, line_no));
    }

    svc::ServiceOptions sopts;
    sopts.budget_bytes = flags.get_int("budget");
    sopts.workers = static_cast<std::int32_t>(flags.get_int("workers"));
    sopts.queue_limit = static_cast<std::int32_t>(flags.get_int("queue"));
    svc::RuntimeService service(sopts);

    // Telemetry plane: bind the service's instruments, sample its gauges
    // and any live shm sessions, and snapshot to --metrics-file until the
    // service drains. The registry must outlive the service binding, and
    // the sampler must stop before the service dies — scope order below.
    obs::MetricsRegistry registry;
    std::unique_ptr<obs::TelemetrySampler> sampler;
    if (!flags.get("metrics-file").empty()) {
      service.bind_telemetry(registry);
      obs::TelemetrySamplerOptions topts;
      topts.path = flags.get("metrics-file");
      topts.interval_ms =
          static_cast<int>(flags.get_int("metrics-interval-ms"));
      sampler = std::make_unique<obs::TelemetrySampler>(registry, topts);
      sampler->add_probe(
          [&service](obs::MetricsRegistry&) { service.sample_telemetry(); });
      sampler->add_probe(
          [](obs::MetricsRegistry& reg) { rt::sample_shm_health(reg); });
      sampler->start();
    }

    std::vector<std::int64_t> ids;
    for (svc::RunRequest& req : requests) {
      ids.push_back(service.submit(std::move(req)));
    }

    bool findings = false;
    for (const std::int64_t id : ids) {
      const svc::RunRecord& record = service.wait(id);
      const bool ok =
          record.state == svc::RunState::kCompleted && record.numerics_ok;
      findings = findings || !ok;
      std::printf("%s\n", record.to_json().dump().c_str());
      if (!flags.get("report-dir").empty()) {
        write_file(cat(flags.get("report-dir"), "/run_", id, ".json"),
                   record.to_json().dump());
      }
    }

    // Final snapshot after every run is terminal, so the written counters
    // reconcile exactly with the summed RunRecords.
    if (sampler) sampler->stop();

    const svc::ServiceReport report = service.report();
    std::fprintf(stderr, "%s", report.to_json().dump().c_str());
    if (!flags.get("json").empty()) {
      JsonValue doc = JsonValue::object();
      doc["artifact"] = "rapid_serve";
      doc["service"] = report.to_json();
      JsonValue& runs = (doc["runs"] = JsonValue::array());
      for (const std::int64_t id : ids) {
        runs.push_back(service.wait(id).to_json());
      }
      write_file(flags.get("json"), doc.dump());
    }
    return findings ? kExitFindings : kExitOk;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rapid_serve: %s\n", e.what());
    return kExitInfraError;
  }
}
