// Binary save/load of one processor's trace ring, plus merge into a
// combined Trace. The multi-process (shm) executor uses this: each worker
// process dumps its own rank's ring at clean exit, and the coordinator
// merges the per-rank files into the caller's Trace with timestamps
// rebased onto the coordinator's epoch — CLOCK_MONOTONIC is shared across
// processes on one machine, so the merged timeline is consistent and the
// conformance checker's put-sequence stamps (which carry the real
// happens-before edges) are unaffected by any residual clock skew.
#pragma once

#include <string>
#include <vector>

#include "rapid/obs/trace.hpp"

namespace rapid::obs {

struct LoadedProcTrace {
  int proc = -1;
  std::int64_t epoch_ns = 0;
  std::vector<TraceEvent> events;  // oldest first
  /// Events the ring overwrote before the dump (lost to overflow).
  std::int64_t dropped = 0;
};

/// Writes `proc`'s ring (oldest first) to `path`. Returns false on I/O
/// failure (the caller logs and moves on — trace loss never fails a run).
bool save_proc_trace(const Trace& trace, int proc, const std::string& path);

/// Reads a file written by save_proc_trace. Throws rapid::Error on a
/// missing/corrupt file.
LoadedProcTrace load_proc_trace(const std::string& path);

/// Appends src's events into dst's ring for src.proc, rebasing each
/// timestamp from src's epoch onto dst's; src's overflow counts as lost in
/// dst (Trace::note_lost).
void merge_proc_trace(Trace* dst, const LoadedProcTrace& src);

}  // namespace rapid::obs
