#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr int kThreadShift = 40;

}  // namespace

SpanLog::SpanLog(bool enabled, std::int64_t cap) : enabled_(enabled), cap_(cap) {}

std::int32_t SpanLog::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(m_);
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::int32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::int32_t>(names_.size() - 1);
}

SpanLog::Buffer& SpanLog::local() {
  // One buffer per (log, thread); rank threads of every solve register once.
  thread_local const SpanLog* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(m_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->index = static_cast<std::int32_t>(buffers_.size() - 1);
    buffer = buffers_.back().get();
    owner = this;
  }
  return *buffer;
}

std::int64_t SpanLog::open(std::int32_t name, std::int64_t parent,
                           std::int64_t op, std::int64_t t0) {
  if (!enabled_) return -1;
  if (stored_.fetch_add(1, std::memory_order_relaxed) >= cap_) {
    stored_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Buffer& b = local();
  Span s;
  s.name = name;
  s.id = (static_cast<std::int64_t>(b.index) << kThreadShift) |
         static_cast<std::int64_t>(b.spans.size());
  s.parent = parent;
  s.op = op;
  s.t0 = t0;
  s.t1 = t0;
  b.spans.push_back(s);
  return s.id;
}

void SpanLog::close(std::int64_t id, std::int64_t t1) {
  if (id < 0) return;
  // Only the thread that opened a span closes it, so its buffer is local.
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(id & ((std::int64_t{1} << kThreadShift) - 1))]
      .t1 = t1;
}

std::int64_t SpanLog::record(std::int32_t name, std::int64_t parent,
                             std::int64_t op, std::int64_t t0,
                             std::int64_t t1) {
  const std::int64_t id = open(name, parent, op, t0);
  close(id, t1);
  return id;
}

std::vector<Span> SpanLog::all() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  const std::vector<Span> spans = all();
  std::unordered_map<std::int64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.t0, s.t1);
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    SpanTotals& t = out[names_[static_cast<std::size_t>(s.name)]];
    const std::int64_t dur = s.t1 - s.t0;
    const auto it = children.find(s.id);
    const std::int64_t cov =
        it == children.end() ? 0 : covered(it->second, s.t0, s.t1);
    ++t.count;
    t.self_ns += dur - cov;
  }
  return out;
}

std::int64_t SpanLog::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::int64_t SpanLog::stored() const {
  return stored_.load(std::memory_order_relaxed);
}

bool SpanLog::write_json(const std::string& path) const {
  const std::vector<Span> spans = all();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"names\": [", f);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fputs("],\n \"fields\": [\"name\", \"id\", \"parent\", \"op\", "
             "\"t0_ns\", \"t1_ns\"],\n \"spans\": [\n",
             f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s[%d, %lld, %lld, %lld, %lld, %lld]",
                 i == 0 ? "  " : ",\n  ", s.name,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), static_cast<long long>(s.t0),
                 static_cast<long long>(s.t1));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
