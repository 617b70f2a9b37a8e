// Chaos soak for the runtime service: every seed floods one service with
// nine co-resident runs — all six probabilistic fault classes at once, a
// clean factorization, a deadline-pressured run, and (outside TSan) a
// fork-mode run whose worker process is SIGKILLed mid-protocol. The
// acceptance bar from the issue: every completed run is exact, every
// rejected / shed / expired run carries a structured report, and nothing
// hangs (the per-run watchdog and the ctest timeout bound the suite).
//
// 32 seeds by default; RAPID_CHAOS_SEEDS overrides (CI's TSan lane runs
// fewer, the nightly soak more).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "rapid/rt/faults.hpp"
#include "rapid/svc/service.hpp"
#include "tsan.hpp"

namespace rapid::svc {
namespace {

constexpr const char* kPresets[] = {"addr", "put",     "slow",
                                    "park", "corrupt", "dup"};

std::uint64_t seed_count() {
  if (const char* env = std::getenv("RAPID_CHAOS_SEEDS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return 32;
}

/// One terminal record, checked against the soak's acceptance bar.
void check_record(const RunRecord& r, std::uint64_t seed) {
  ASSERT_TRUE(is_terminal(r.state))
      << "seed " << seed << " run " << r.run_id << " (" << r.spec
      << ") ended non-terminal";
  switch (r.state) {
    case RunState::kCompleted:
      EXPECT_TRUE(r.numerics_ok)
          << "seed " << seed << " " << r.spec << " completed with residual "
          << r.residual;
      EXPECT_TRUE(r.has_outcome);
      break;
    case RunState::kRejected:
      EXPECT_EQ(r.admission.verdict, AdmissionVerdict::kRejected);
      EXPECT_FALSE(r.reason.empty()) << "seed " << seed;
      break;
    case RunState::kShed:
      EXPECT_EQ(r.admission.verdict, AdmissionVerdict::kShed);
      EXPECT_FALSE(r.reason.empty()) << "seed " << seed;
      break;
    case RunState::kExpired:
      // Queued expiry carries a reason; mid-run expiry carries the
      // cancelled attempt's partial report. Either way it is structured.
      EXPECT_TRUE(!r.reason.empty() ||
                  (r.has_outcome &&
                   r.outcome.failure_kind == rt::FailureKind::kCancelled))
          << "seed " << seed << " expired run " << r.run_id
          << " has neither reason nor cancelled outcome";
      break;
    case RunState::kFailed:
      // Allowed by the bar only with a structured outcome attached.
      EXPECT_TRUE(r.has_outcome) << "seed " << seed << " " << r.spec;
      EXPECT_FALSE(r.outcome.failure.empty())
          << "seed " << seed << " " << r.spec;
      break;
    default:
      FAIL() << "unreachable state " << to_string(r.state);
  }
}

TEST(ServiceChaosSoak, NineCoResidentRunsPerSeedSurviveFaultsAndKills) {
  const std::uint64_t seeds = seed_count();
  std::int64_t completed = 0;
  std::int64_t expired = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    ServiceOptions opts;
    opts.workers = 4;
    opts.queue_limit = 16;
    RuntimeService service(opts);
    std::vector<std::int64_t> ids;

    // Six runs, one per probabilistic fault class, all in flight together.
    for (const char* preset : kPresets) {
      RunRequest req;
      req.spec = "grid:rows=6,cols=6,procs=4";
      req.config.capacity_per_proc = 1 << 20;
      req.options.faults = rt::FaultPlan::preset(preset, seed);
      req.options.retry = RetryPolicy::standard();
      req.recovery.max_run_attempts = 3;
      req.deadline_us = 20'000'000;
      ids.push_back(service.submit(std::move(req)));
    }

    // A clean factorization sharing the budget with the chaos.
    {
      RunRequest req;
      req.spec = "cholesky:grid=8,block=4,procs=4";
      req.config.capacity_per_proc = 1 << 20;
      ids.push_back(service.submit(std::move(req)));
    }

    // Deadline pressure: tight enough to expire on some seeds, loose
    // enough to complete on others. Both outcomes must be structured.
    {
      RunRequest req;
      req.spec = "grid:rows=8,cols=8,procs=4,delay=4000";
      req.config.capacity_per_proc = 1 << 20;
      req.deadline_us =
          10'000 + static_cast<std::int64_t>(seed % 8) * 20'000;
      ids.push_back(service.submit(std::move(req)));
    }

#if !RAPID_UNDER_TSAN
    // Fork-mode run whose rank dies by SIGKILL mid-protocol: the failure
    // is contained to this run (fail-stop report + clean restart) while
    // the eight in-process runs above keep going. TSan cannot survive the
    // fork-heavy shm model, so its lane runs one more in-proc fault run.
    {
      RunRequest req;
      req.spec = "grid:rows=6,cols=6,procs=4";
      req.config.capacity_per_proc = 1 << 20;
      req.options.transport = rt::TransportKind::kShm;
      req.options.lease_timeout_seconds = 3.0;
      req.options.faults = rt::FaultPlan::kill_proc_at(
          static_cast<graph::ProcId>(seed % 4),
          static_cast<std::int32_t>(seed % 4),
          1 + static_cast<std::int64_t>(seed / 4) % 2);
      req.options.faults.induced_fault_runs = 1;  // restarts run clean
      req.recovery.max_run_attempts = 2;
      req.deadline_us = 30'000'000;
      ids.push_back(service.submit(std::move(req)));
    }
#else
    {
      RunRequest req;
      req.spec = "grid:rows=6,cols=6,procs=4";
      req.config.capacity_per_proc = 1 << 20;
      req.options.faults =
          rt::FaultPlan::preset(kPresets[seed % 6], seed ^ 0xC0FFEE);
      req.options.retry = RetryPolicy::standard();
      req.recovery.max_run_attempts = 3;
      req.deadline_us = 20'000'000;
      ids.push_back(service.submit(std::move(req)));
    }
#endif

    ASSERT_GE(ids.size(), 9u);
    for (const std::int64_t id : ids) {
      const RunRecord& r = service.wait(id);
      check_record(r, seed);
      if (r.state == RunState::kCompleted) ++completed;
      if (r.state == RunState::kExpired) ++expired;
    }
    const ServiceReport report = service.report();
    EXPECT_EQ(report.submitted, static_cast<std::int64_t>(ids.size()));
    EXPECT_LE(report.peak_reserved_bytes, report.budget_bytes)
        << "seed " << seed << ": admission invariant broken";
  }
  // The soak must exercise both main paths, not vacuously pass: the fault
  // runs overwhelmingly complete, and across all seeds some deadline-
  // pressured run must actually have expired.
  EXPECT_GE(completed, static_cast<std::int64_t>(seeds * 7));
  if (seeds >= 8) {
    EXPECT_GT(expired, 0) << "deadline pressure never fired";
  }
}

}  // namespace
}  // namespace rapid::svc
