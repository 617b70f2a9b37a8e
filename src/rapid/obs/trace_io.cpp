#include "rapid/obs/trace_io.hpp"

#include <cstdio>
#include <cstring>

#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::obs {

namespace {

constexpr char kMagic[8] = {'R', 'A', 'P', 'I', 'D', 'T', 'R', 'C'};
// v2: `dropped` carries the ring's overflow, so a merge reports the loss.
constexpr std::uint32_t kVersion = 2;

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::int32_t proc;
  std::int64_t epoch_ns;
  std::int64_t count;
  std::int64_t dropped;
};

}  // namespace

bool save_proc_trace(const Trace& trace, int proc, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::vector<TraceEvent> events = trace.events(proc);
  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.proc = proc;
  h.epoch_ns = trace.epoch_ns();
  h.count = static_cast<std::int64_t>(events.size());
  h.dropped = trace.dropped(proc);
  bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1;
  if (ok && !events.empty()) {
    ok = std::fwrite(events.data(), sizeof(TraceEvent), events.size(), f) ==
         events.size();
  }
  return std::fclose(f) == 0 && ok;
}

LoadedProcTrace load_proc_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw Error(cat("trace_io: cannot open ", path));
  FileHeader h{};
  if (std::fread(&h, sizeof(h), 1, f) != 1 ||
      std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0 ||
      h.version != kVersion || h.count < 0 || h.dropped < 0) {
    std::fclose(f);
    throw Error(cat("trace_io: bad header in ", path));
  }
  LoadedProcTrace out;
  out.proc = h.proc;
  out.epoch_ns = h.epoch_ns;
  out.dropped = h.dropped;
  out.events.resize(static_cast<std::size_t>(h.count));
  if (h.count > 0 &&
      std::fread(out.events.data(), sizeof(TraceEvent),
                 out.events.size(), f) != out.events.size()) {
    std::fclose(f);
    throw Error(cat("trace_io: truncated events in ", path));
  }
  std::fclose(f);
  return out;
}

void merge_proc_trace(Trace* dst, const LoadedProcTrace& src) {
  const std::int64_t rebase = src.epoch_ns - dst->epoch_ns();
  dst->note_lost(src.proc, src.dropped);
  for (const TraceEvent& e : src.events) {
    std::int64_t t = e.t_ns + rebase;
    if (t < 0) t = 0;
    dst->record_at(src.proc, t, e.kind, e.a, e.b, e.c, e.bytes, e.d);
  }
}

}  // namespace rapid::obs
