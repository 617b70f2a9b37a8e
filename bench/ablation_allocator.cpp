// Ablation: the "special memory allocator" question from the paper's §6.
// Freed volatile space "contains many small pieces and is hard to
// re-utilize" — so how much capacity above MIN_MEM does each placement
// policy actually need before a schedule becomes executable, and how
// fragmented does the arena get?
//
// For each workload we binary-search the executability threshold under
// first-fit and best-fit and report the margin over MIN_MEM (the
// fragmentation tax). Uniform-object workloads (factorizations with equal
// blocks) have no tax; mixed-size ones (triangular solve with vector
// segments + matrix blocks) do.
#include <cstdio>

#include "common.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/support/str.hpp"

using namespace rapid;

namespace {

std::int64_t find_threshold(const rt::RunPlan& plan, std::int64_t min_mem,
                            mem::AllocPolicy policy,
                            const machine::MachineParams& params) {
  // Exponential probe up, then binary search down to 8-byte resolution.
  auto executable = [&](std::int64_t capacity) {
    rt::RunConfig c;
    c.params = params;
    c.capacity_per_proc = capacity;
    c.alloc_policy = policy;
    return rt::simulate(plan, c).executable;
  };
  std::int64_t hi = min_mem;
  while (!executable(hi)) hi += std::max<std::int64_t>(8, min_mem / 64);
  if (hi == min_mem) return hi;
  std::int64_t lo = hi - std::max<std::int64_t>(8, min_mem / 64);  // fails
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (executable(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("scale", "0.5", "workload scale in (0,1]");
  flags.define("procs", "8", "processor count");
  flags.parse(argc, argv);
  if (flags.help_requested()) return 0;
  const double scale = flags.get_double("scale");
  const int procs = static_cast<int>(flags.get_int("procs"));
  const auto params = machine::MachineParams::cray_t3d(procs);

  bench::print_header(
      "Ablation: volatile-space allocator policy (paper §6)",
      "Cholesky / LU / triangular solve",
      "threshold = smallest executable capacity; margin = threshold/MIN_MEM "
      "- 1 (the fragmentation tax)");

  const auto side = static_cast<sparse::Index>(24 * scale + 8);
  const std::pair<const char*, std::string> cases[] = {
      {"cholesky (uniform blocks)",
       num::matrix_spec("cholesky", "bcsstk24", scale, 16, procs, "mpo")},
      {"LU (column blocks)",
       num::matrix_spec("lu", "goodwin", scale * 0.6, 12, procs, "mpo")},
      {"trisolve (mixed sizes)",
       cat("trisolve:grid=", side, ",block=6,procs=", procs, ",sched=mpo")},
  };

  TextTable table({"workload", "MIN_MEM", "first-fit margin",
                   "best-fit margin"});
  for (const auto& [name, spec] : cases) {
    const auto w = num::build_shm_workload(spec);
    const std::int64_t ff = find_threshold(
        w->plan, w->min_mem, mem::AllocPolicy::kFirstFit, params);
    const std::int64_t bf = find_threshold(
        w->plan, w->min_mem, mem::AllocPolicy::kBestFit, params);
    auto margin = [&](std::int64_t threshold) {
      return fixed(100.0 * (static_cast<double>(threshold) / w->min_mem - 1.0),
                   2) +
             "%";
    };
    table.add_row({name, human_bytes(static_cast<double>(w->min_mem)),
                   margin(ff), margin(bf)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nexpected shape: ~0%% margin for uniform-size objects; a small but "
      "real margin\nfor mixed sizes — the reason the paper's conclusion "
      "calls for a special allocator.\n");
  return 0;
}
