// The benchmark's own span log: a span per call into a layer (name, start,
// end, the span that caused it, and the solve or request it belongs to),
// kept in memory and written as JSON when the run ends. Rank threads append
// to per-thread buffers, so recording a task-body span takes no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::int32_t name = 0;    // index into the log's interned names
  std::int64_t id = -1;     // (recording buffer << 40) | position
  std::int64_t parent = -1;
  std::int64_t op = -1;     // solve or request this span belongs to
  std::int64_t t0 = 0, t1 = 0;
};

/// Per-name totals over the recorded spans, in nanoseconds.
struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t self_ns = 0;
};

class SpanLog {
 public:
  /// A disabled log records nothing and every call is one branch. `cap`
  /// bounds the number of stored spans; later spans are dropped and
  /// counted, so memory stays bounded on long traced runs.
  SpanLog(bool enabled, std::int64_t cap);

  bool enabled() const { return enabled_; }
  std::int32_t intern(const std::string& name);

  /// Stores a finished span; returns its id (-1 when disabled or full).
  std::int64_t record(std::int32_t name, std::int64_t parent, std::int64_t op,
                      std::int64_t t0, std::int64_t t1);
  /// Reserves an id for a span whose end is not known yet (parents must
  /// exist before their children record); close() sets the end.
  std::int64_t open(std::int32_t name, std::int64_t parent, std::int64_t op,
                    std::int64_t t0);
  void close(std::int64_t id, std::int64_t t1);

  /// Totals per span name; self time is a span's duration minus the union
  /// of its children's intervals. Call after every recording thread ended.
  std::map<std::string, SpanTotals> totals() const;
  std::int64_t dropped() const;
  std::int64_t stored() const;
  /// Writes {"names": [...], "spans": [[name, parent, op, t0, t1, id]...]}.
  bool write_json(const std::string& path) const;

 private:
  struct Buffer {
    std::int32_t index = 0;
    std::vector<Span> spans;
  };
  Buffer& local();
  std::vector<Span> all() const;

  const bool enabled_;
  const std::int64_t cap_;
  mutable std::mutex m_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::int64_t> stored_{0};
  std::atomic<std::int64_t> dropped_{0};
};

}  // namespace perfbench
