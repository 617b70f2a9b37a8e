// Exit-code contract shared by every CLI in this repo (rapid_check,
// rapid_trace, rapid_serve, rapid_top, bench_service, …):
//
//   0  clean — the tool ran and found nothing wrong
//   1  findings — the tool ran to completion and the thing it checks is
//      bad (audit errors, conformance findings, failed/shed/inexact runs,
//      a guard row tripping). The artifact/JSON it wrote is valid and
//      describes the findings.
//   2  infrastructure error — the tool itself could not do its job (bad
//      flags, unbuildable workload, I/O failure, unexpected exception).
//      Outputs may be missing or partial.
//
// CI lanes branch on the distinction: findings fail the quality gate with
// artifacts to read, infrastructure errors fail the lane itself. A CLI must
// never report findings by crashing (an uncaught exception aborts with a
// signal status, which reads as infrastructure).
#pragma once

namespace rapid {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFindings = 1;
inline constexpr int kExitInfraError = 2;

}  // namespace rapid
