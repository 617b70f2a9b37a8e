// rapid_shm_worker: the exec-mode entry point for one shm-transport rank.
// The coordinator spawns `rapid_shm_worker --segment=<name> --rank=<q>`;
// this process attaches the segment, rebuilds the workload from the spec
// string the coordinator wrote into the header, cross-checks the plan
// fingerprint (a divergent rebuild must fail-stop before any put lands in
// shared memory), and runs the standard worker loop. Exit codes are the
// kShmWorker* constants; anything else — or a signal — is classified by the
// coordinator as a process failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/shm_transport.hpp"
#include "rapid/support/log.hpp"
#include "rapid/support/str.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --segment=<shm-name> --rank=<q>\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string segment;
  long rank = -1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--segment=", 10) == 0) {
      segment = a + 10;
    } else if (std::strncmp(a, "--rank=", 7) == 0) {
      rank = std::strtol(a + 7, nullptr, 10);
    } else {
      return usage(argv[0]);
    }
  }
  if (segment.empty() || rank < 0) return usage(argv[0]);

  using namespace rapid;
  int rc = rt::kShmWorkerFailed;
  try {
    auto tp = rt::ShmTransport::attach(segment,
                                       static_cast<graph::ProcId>(rank));
    const rt::ShmRunSpec& spec = tp->spec();
    try {
      if (spec.workload_spec[0] == '\0') {
        throw Error("rapid_shm_worker: the segment header carries no "
                    "workload spec (was the run launched in fork mode?)");
      }
      auto wl = num::build_shm_workload(spec.workload_spec);
      const std::uint64_t fp = rt::plan_fingerprint(wl->plan);
      if (fp != spec.plan_fingerprint) {
        throw Error(cat("rapid_shm_worker: plan fingerprint mismatch for "
                        "spec \"", spec.workload_spec, "\": rebuilt ", fp,
                        ", coordinator planned ", spec.plan_fingerprint));
      }
      rc = rt::shm_worker_run(*tp, wl->plan, wl->make_init(),
                              wl->make_body());
    } catch (const std::exception& e) {
      // The segment is attached: report through it so the coordinator sees
      // a structured failure, not just a nonzero exit.
      tp->fail_stop(static_cast<graph::ProcId>(rank),
                    rt::FailureKind::kTaskError, e.what());
      rc = rt::kShmWorkerFailed;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rapid_shm_worker: %s\n", e.what());
    rc = rt::kShmWorkerFailed;
  }
  // _exit, not return: never run atexit handlers or static destructors in
  // a worker — the segment mapping and any inherited state belong to the
  // coordinator's teardown.
  ::_exit(rc);
}
