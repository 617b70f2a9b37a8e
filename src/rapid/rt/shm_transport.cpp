#include "rapid/rt/shm_transport.hpp"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <new>

#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "rapid/support/check.hpp"
#include "rapid/support/log.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

namespace {

/// Bounded NACK ring per destination; a full ring drops the re-request
/// (the waiter's next deadline re-sends it — NACKs are idempotent).
constexpr std::int32_t kNackCap = 1024;

constexpr std::int64_t align_up(std::int64_t x, std::int64_t a) {
  return (x + a - 1) / a * a;
}

struct ShmHeader {
  alignas(64) ShmBellState data_bell;
  alignas(64) ShmBellState control_bell;
  alignas(64) std::atomic<std::uint32_t> abort;
  std::atomic<std::int32_t> quiescent;
  /// Control-slot index of the first failure (-1 = none). Slot num_procs
  /// is the coordinator's own pseudo-rank.
  std::atomic<std::int32_t> first_error_rank;
};
static_assert(std::is_trivially_destructible_v<ShmHeader>);

/// One rank's control record: heartbeat lease, light protocol state, the
/// blocked-wait record the stall and dead-rank diagnoses read, the error
/// slot, and the end-of-run counters. error_text is written before the
/// has_error release store, so a reader that observes has_error == 1 sees
/// the full text. The monitor's slot (index num_procs) keeps its text in
/// ShmTransport::monitor_text_ instead; error_text stays empty there.
struct alignas(64) ShmRankCtl {
  std::atomic<std::int64_t> lease_ns;
  std::atomic<std::uint8_t> state;
  std::atomic<std::uint8_t> done;
  std::atomic<std::uint8_t> has_error;
  std::atomic<std::uint8_t> error_kind;
  std::atomic<std::int32_t> pos;
  std::atomic<std::int32_t> wait_obj;
  std::atomic<std::int32_t> wait_ver;
  std::atomic<std::int32_t> wait_flag;
  std::atomic<std::int32_t> wait_map_dest;
  std::atomic<std::int32_t> wait_retries;
  std::atomic<std::uint8_t> wait_exhausted;
  std::atomic<std::int64_t> wait_since_ns;
  char error_text[448];
  std::atomic<std::int64_t> counters[kNumRunCounters];
  /// Running recovery totals mirrored by the worker mid-run (the
  /// `counters` slots above are end-of-run, published with done). Read by
  /// the cross-process telemetry sampler; relaxed is fine, they are
  /// monotone hints, not protocol state.
  std::atomic<std::int64_t> live_nacks;
  std::atomic<std::int64_t> live_resends;
};
static_assert(std::atomic<std::int64_t>::is_always_lock_free);
static_assert(std::atomic<std::int32_t>::is_always_lock_free);
static_assert(std::atomic<std::uint8_t>::is_always_lock_free);

/// Mailbox lane header (one per (dest, src) pair), followed by `lane_cap`
/// fixed-size package slots forming a ring: head = oldest slot, count =
/// occupancy. Mutated only under the destination's spinlock; count is
/// atomic so the diagnostics-only occupancy probe needs no lock.
struct MailLane {
  std::atomic<std::int32_t> head;
  std::atomic<std::int32_t> count;
};

/// Serialized AddrPackage slot layout:
///   int32 n | int32 reader | uint32 seq | uint32 crc | n x (int32, int64)
constexpr std::int64_t kSlotHeaderBytes = 16;
constexpr std::int64_t kSlotEntryBytes = 12;

struct MailDstHeader {
  std::atomic<std::uint32_t> lock;
  std::uint32_t pad;
  std::atomic<std::int64_t> pending;
};

struct NackDstHeader {
  std::atomic<std::uint32_t> lock;
  std::uint32_t pad;
  std::atomic<std::int64_t> pending;
  std::atomic<std::int32_t> count;
  std::int32_t pad2;
};

void serialize_package(std::byte* slot, const AddrPackage& pkg) {
  const std::int32_t n = static_cast<std::int32_t>(pkg.entries.size());
  std::memcpy(slot + 0, &n, 4);
  std::memcpy(slot + 4, &pkg.reader, 4);
  std::memcpy(slot + 8, &pkg.seq, 4);
  std::memcpy(slot + 12, &pkg.crc, 4);
  std::byte* p = slot + kSlotHeaderBytes;
  for (const auto& [d, off] : pkg.entries) {
    std::memcpy(p, &d, 4);
    std::memcpy(p + 4, &off, 8);
    p += kSlotEntryBytes;
  }
}

AddrPackage deserialize_package(const std::byte* slot) {
  AddrPackage pkg;
  std::int32_t n = 0;
  std::memcpy(&n, slot + 0, 4);
  std::memcpy(&pkg.reader, slot + 4, 4);
  std::memcpy(&pkg.seq, slot + 8, 4);
  std::memcpy(&pkg.crc, slot + 12, 4);
  pkg.entries.resize(static_cast<std::size_t>(n));
  const std::byte* p = slot + kSlotHeaderBytes;
  for (auto& [d, off] : pkg.entries) {
    std::memcpy(&d, p, 4);
    std::memcpy(&off, p + 4, 8);
    p += kSlotEntryBytes;
  }
  return pkg;
}

}  // namespace

/// Offsets (and a few derived byte sizes) of every region in the segment,
/// computed from the dims. All pointers are into the segment's mapping,
/// which forked workers inherit at the same address.
struct ShmTransport::Layout {
  ShmHeader* hdr = nullptr;
  ShmRankCtl* ctl = nullptr;  // num_procs + 1 slots (last = coordinator)
  std::atomic<std::int32_t>* susp = nullptr;  // [rank * p + dest]
  std::byte* heaps = nullptr;
  std::atomic<std::int32_t>* versions = nullptr;
  std::atomic<std::uint32_t>* crcs = nullptr;
  std::atomic<std::uint32_t>* seqs = nullptr;
  std::atomic<std::uint8_t>* flags = nullptr;
  std::byte* mail = nullptr;
  std::byte* nack = nullptr;

  Dims d;
  std::int32_t p = 0;  // d.num_procs
  std::int32_t lane_cap = 0;
  std::int64_t slot_bytes = 0;
  std::int64_t lane_bytes = 0;
  std::int64_t mail_per_dst = 0;
  std::int64_t nack_per_dst = 0;
  std::int64_t total_bytes = 0;

  static Layout compute(std::byte* base, const Dims& dims) {
    RAPID_CHECK(dims.num_procs > 0 && dims.heap_bytes >= 0 &&
                    dims.max_pkg_entries >= 0,
                "shm transport: bad dims");
    Layout l;
    l.d = dims;
    const std::int32_t p = l.p = dims.num_procs;
    // Duplication faults deliver one extra copy past the logical bound, so
    // the physical ring keeps two slots of headroom above mailbox_slots.
    l.lane_cap = dims.mailbox_slots + 2;
    l.slot_bytes = align_up(
        kSlotHeaderBytes + kSlotEntryBytes * dims.max_pkg_entries, 8);
    l.lane_bytes = align_up(static_cast<std::int64_t>(sizeof(MailLane)) +
                                l.lane_cap * l.slot_bytes,
                            8);
    l.mail_per_dst = align_up(
        static_cast<std::int64_t>(sizeof(MailDstHeader)) + p * l.lane_bytes,
        64);
    l.nack_per_dst =
        align_up(static_cast<std::int64_t>(sizeof(NackDstHeader)) +
                     kNackCap * static_cast<std::int64_t>(sizeof(NackRequest)),
                 64);

    std::int64_t off = align_up(static_cast<std::int64_t>(sizeof(ShmHeader)), 64);
    const std::int64_t ctl_off = off;
    off = align_up(off + (p + 1) * static_cast<std::int64_t>(sizeof(ShmRankCtl)),
                   64);
    const std::int64_t susp_off = off;
    off = align_up(off + std::int64_t{p} * p * 4, 64);
    const std::int64_t heap_off = off;
    off = align_up(off + p * dims.heap_bytes, 64);
    const std::int64_t ver_off = off;
    off = align_up(off + p * dims.num_data * 4, 64);
    const std::int64_t crc_off = off;
    off = align_up(off + p * dims.num_data * 4, 64);
    const std::int64_t seq_off = off;
    off = align_up(off + p * dims.num_data * 4, 64);
    const std::int64_t flag_off = off;
    off = align_up(off + p * dims.num_tasks, 64);
    const std::int64_t mail_off = off;
    off = align_up(off + p * l.mail_per_dst, 64);
    const std::int64_t nack_off = off;
    off = align_up(off + p * l.nack_per_dst, 64);
    l.total_bytes = off;

    if (base != nullptr) {
      l.hdr = reinterpret_cast<ShmHeader*>(base);
      l.ctl = reinterpret_cast<ShmRankCtl*>(base + ctl_off);
      l.susp = reinterpret_cast<std::atomic<std::int32_t>*>(base + susp_off);
      l.heaps = base + heap_off;
      l.versions = reinterpret_cast<std::atomic<std::int32_t>*>(base + ver_off);
      l.crcs = reinterpret_cast<std::atomic<std::uint32_t>*>(base + crc_off);
      l.seqs = reinterpret_cast<std::atomic<std::uint32_t>*>(base + seq_off);
      l.flags = reinterpret_cast<std::atomic<std::uint8_t>*>(base + flag_off);
      l.mail = base + mail_off;
      l.nack = base + nack_off;
    }
    return l;
  }

  MailDstHeader* mail_dst(ProcId dst) const {
    return reinterpret_cast<MailDstHeader*>(mail + dst * mail_per_dst);
  }
  MailLane* mail_lane(ProcId dst, ProcId src) const {
    return reinterpret_cast<MailLane*>(mail + dst * mail_per_dst +
                                       sizeof(MailDstHeader) +
                                       src * lane_bytes);
  }
  std::byte* mail_slot(ProcId dst, ProcId src, std::int32_t i) const {
    return mail + dst * mail_per_dst + sizeof(MailDstHeader) +
           src * lane_bytes + sizeof(MailLane) + i * slot_bytes;
  }
  NackDstHeader* nack_dst(ProcId dst) const {
    return reinterpret_cast<NackDstHeader*>(nack + dst * nack_per_dst);
  }
  NackRequest* nack_slots(ProcId dst) const {
    return reinterpret_cast<NackRequest*>(nack + dst * nack_per_dst +
                                          sizeof(NackDstHeader));
  }
};

ShmTransport::ShmTransport(ShmSegment seg, const Dims& dims)
    : seg_(std::move(seg)),
      l_(std::make_unique<Layout>(Layout::compute(seg_.data(), dims))),
      data_bell_(&l_->hdr->data_bell),
      control_bell_(&l_->hdr->control_bell) {}

ShmTransport::~ShmTransport() = default;

ShmTransport::Dims ShmTransport::dims_for(const RunPlan& plan,
                                          const RunConfig& config) {
  Dims dims;
  dims.num_procs = plan.num_procs;
  dims.num_data = plan.graph->num_data();
  dims.num_tasks = plan.graph->num_tasks();
  dims.heap_bytes = config.capacity_per_proc;
  dims.mailbox_slots = config.mailbox_slots;
  std::vector<std::int64_t> per_owner(
      static_cast<std::size_t>(plan.num_procs));
  for (const ProcPlan& reader : plan.procs) {
    std::fill(per_owner.begin(), per_owner.end(), 0);
    for (const sched::VolatileLifetime& v : reader.volatiles) {
      const ProcId owner = plan.graph->data(v.object).owner;
      dims.max_pkg_entries = std::max(
          dims.max_pkg_entries, ++per_owner[static_cast<std::size_t>(owner)]);
    }
  }
  return dims;
}

std::int64_t ShmTransport::segment_bytes(const Dims& dims) {
  return Layout::compute(nullptr, dims).total_bytes;
}

std::unique_ptr<ShmTransport> ShmTransport::create(const Dims& dims,
                                                   bool shared) {
  std::unique_ptr<ShmTransport> tp(new ShmTransport(
      ShmSegment::anonymous(segment_bytes(dims), shared), dims));
  tp->init_objects();
  return tp;
}

void ShmTransport::reinit(const Dims& dims) {
  RAPID_CHECK(!seg_.shared() && segment_bytes(dims) <= seg_.size(),
              "shm transport: reinit needs a private mapping the layout fits");
  *l_ = Layout::compute(seg_.data(), dims);
  monitor_text_.clear();
  init_objects();
}

/// The heap windows and the mailbox/NACK slots are never touched here:
/// their pages stay unmapped until a rank writes them. A fresh mapping is
/// zero-filled; placement-new every shared object anyway so the code never
/// leans on atomic representation details, and so a reused mapping starts
/// from the same state.
void ShmTransport::init_objects() {
  const Layout& l = *l_;
  ShmHeader* hdr = new (l.hdr) ShmHeader{};
  new (&hdr->data_bell) ShmBellState{};
  new (&hdr->control_bell) ShmBellState{};
  new (&hdr->abort) std::atomic<std::uint32_t>{0};
  new (&hdr->quiescent) std::atomic<std::int32_t>{0};
  new (&hdr->first_error_rank) std::atomic<std::int32_t>{-1};

  for (std::int32_t q = 0; q <= l.p; ++q) new (&l.ctl[q]) ShmRankCtl{};
  for (std::int64_t i = 0; i < std::int64_t{l.p} * l.p; ++i) {
    new (&l.susp[i]) std::atomic<std::int32_t>{0};
  }
  for (std::int64_t i = 0; i < l.p * l.d.num_data; ++i) {
    new (&l.versions[i]) std::atomic<std::int32_t>{-1};
    new (&l.crcs[i]) std::atomic<std::uint32_t>{0};
    new (&l.seqs[i]) std::atomic<std::uint32_t>{0};
  }
  for (std::int64_t i = 0; i < l.p * l.d.num_tasks; ++i) {
    new (&l.flags[i]) std::atomic<std::uint8_t>{0};
  }
  for (std::int32_t dst = 0; dst < l.p; ++dst) {
    new (l.mail_dst(dst)) MailDstHeader{};
    for (std::int32_t src = 0; src < l.p; ++src) {
      new (l.mail_lane(dst, src)) MailLane{};
    }
    new (l.nack_dst(dst)) NackDstHeader{};
  }
}

std::int32_t ShmTransport::num_procs() const { return l_->p; }

WindowView ShmTransport::window(ProcId q) {
  WindowView w;
  w.heap = l_->heaps + q * l_->d.heap_bytes;
  w.received_version = l_->versions + q * l_->d.num_data;
  w.received_crc = l_->crcs + q * l_->d.num_data;
  w.put_seq = l_->seqs + q * l_->d.num_data;
  w.flags = l_->flags + q * l_->d.num_tasks;
  return w;
}

bool ShmTransport::try_send_addr_package(ProcId from, ProcId dest,
                                         const AddrPackage& pkg,
                                         std::int32_t slot_bound,
                                         std::int32_t copies) {
  RAPID_CHECK(static_cast<std::int64_t>(pkg.entries.size()) <=
                  l_->d.max_pkg_entries,
              cat("shm transport: address package of ", pkg.entries.size(),
                  " entries exceeds its ", l_->d.max_pkg_entries,
                  "-entry mailbox slot"));
  MailDstHeader* mh = l_->mail_dst(dest);
  if (!ShmSpinLock::acquire(mh->lock, l_->hdr->abort)) return false;
  MailLane* lane = l_->mail_lane(dest, from);
  const std::int32_t count = lane->count.load(std::memory_order_relaxed);
  if (count >= slot_bound) {
    ShmSpinLock::release(mh->lock);
    return false;
  }
  const std::int32_t head = lane->head.load(std::memory_order_relaxed);
  std::int32_t written = 0;
  for (std::int32_t c = 0; c < copies && count + c < l_->lane_cap; ++c) {
    serialize_package(
        l_->mail_slot(dest, from, (head + count + c) % l_->lane_cap), pkg);
    ++written;
  }
  lane->count.store(count + written, std::memory_order_relaxed);
  mh->pending.fetch_add(written, std::memory_order_release);
  ShmSpinLock::release(mh->lock);
  return true;
}

bool ShmTransport::addr_packages_pending(ProcId me) const {
  return l_->mail_dst(me)->pending.load(std::memory_order_acquire) > 0;
}

void ShmTransport::drain_addr_packages(ProcId me,
                                       std::vector<AddrPackage>* out) {
  MailDstHeader* mh = l_->mail_dst(me);
  if (!ShmSpinLock::acquire(mh->lock, l_->hdr->abort)) return;
  for (std::int32_t src = 0; src < l_->p; ++src) {
    MailLane* lane = l_->mail_lane(me, src);
    const std::int32_t count = lane->count.load(std::memory_order_relaxed);
    const std::int32_t head = lane->head.load(std::memory_order_relaxed);
    for (std::int32_t i = 0; i < count; ++i) {
      out->push_back(deserialize_package(
          l_->mail_slot(me, src, (head + i) % l_->lane_cap)));
    }
    lane->head.store(0, std::memory_order_relaxed);
    lane->count.store(0, std::memory_order_relaxed);
  }
  mh->pending.store(0, std::memory_order_relaxed);
  ShmSpinLock::release(mh->lock);
}

std::int64_t ShmTransport::mailbox_occupancy(ProcId me) const {
  std::int64_t total = 0;
  for (std::int32_t src = 0; src < l_->p; ++src) {
    total += l_->mail_lane(me, src)->count.load(std::memory_order_relaxed);
  }
  return total;
}

void ShmTransport::push_nack(ProcId dest, const NackRequest& n) {
  NackDstHeader* nh = l_->nack_dst(dest);
  if (!ShmSpinLock::acquire(nh->lock, l_->hdr->abort)) return;
  const std::int32_t count = nh->count.load(std::memory_order_relaxed);
  if (count < kNackCap) {
    l_->nack_slots(dest)[count] = n;
    nh->count.store(count + 1, std::memory_order_relaxed);
    ShmSpinLock::release(nh->lock);
    nh->pending.fetch_add(1, std::memory_order_release);
  } else {
    // Full ring: drop — the requester's next expired deadline re-sends.
    ShmSpinLock::release(nh->lock);
    RAPID_WARN("shm transport: NACK ring for p" << dest
               << " full; dropping re-request from p" << n.requester);
  }
}

bool ShmTransport::nacks_pending(ProcId me) const {
  return l_->nack_dst(me)->pending.load(std::memory_order_acquire) > 0;
}

void ShmTransport::drain_nacks(ProcId me, std::vector<NackRequest>* out) {
  NackDstHeader* nh = l_->nack_dst(me);
  if (!ShmSpinLock::acquire(nh->lock, l_->hdr->abort)) return;
  const std::int32_t count = nh->count.load(std::memory_order_relaxed);
  const NackRequest* slots = l_->nack_slots(me);
  out->insert(out->end(), slots, slots + count);
  nh->count.store(0, std::memory_order_relaxed);
  ShmSpinLock::release(nh->lock);
  nh->pending.store(0, std::memory_order_release);
}

void ShmTransport::request_abort() {
  l_->hdr->abort.store(1, std::memory_order_release);
}

bool ShmTransport::aborted() const {
  return l_->hdr->abort.load(std::memory_order_acquire) != 0;
}

std::int32_t ShmTransport::note_quiescent(ProcId) {
  return l_->hdr->quiescent.fetch_add(1, std::memory_order_acq_rel) + 1;
}

std::int32_t ShmTransport::quiescent_count() const {
  return l_->hdr->quiescent.load(std::memory_order_acquire);
}

void ShmTransport::report_failure(ProcId q, FailureKind kind,
                                  const std::string& text) {
  const std::int32_t slot = (q >= 0 && q < l_->p) ? q : l_->p;
  ShmRankCtl& c = l_->ctl[slot];
  // First writer per slot wins; a second failure on the same rank keeps
  // the original.
  if (c.has_error.load(std::memory_order_acquire) == 0) {
    if (slot == l_->p) {
      monitor_text_ = text;
    } else {
      std::strncpy(c.error_text, text.c_str(), sizeof(c.error_text) - 1);
      c.error_text[sizeof(c.error_text) - 1] = '\0';
    }
    c.error_kind.store(static_cast<std::uint8_t>(kind),
                       std::memory_order_relaxed);
    c.has_error.store(1, std::memory_order_release);
  }
  std::int32_t expected = -1;
  l_->hdr->first_error_rank.compare_exchange_strong(
      expected, slot, std::memory_order_acq_rel);
}

bool ShmTransport::any_failure() const {
  return l_->hdr->first_error_rank.load(std::memory_order_acquire) != -1;
}

FailureKind ShmTransport::first_failure_kind() const {
  const std::int32_t slot =
      l_->hdr->first_error_rank.load(std::memory_order_acquire);
  if (slot < 0) return FailureKind::kNone;
  return static_cast<FailureKind>(
      l_->ctl[slot].error_kind.load(std::memory_order_acquire));
}

std::vector<std::string> ShmTransport::failure_texts() const {
  std::vector<std::string> out;
  const std::int32_t first =
      l_->hdr->first_error_rank.load(std::memory_order_acquire);
  if (first < 0) return out;
  auto append = [&](std::int32_t slot) {
    if (!rank_failed(slot)) return;
    out.push_back(slot == l_->p ? monitor_text_ : rank_failure_text(slot));
  };
  append(first);
  for (std::int32_t slot = 0; slot <= l_->p; ++slot) {
    if (slot != first) append(slot);
  }
  return out;
}

void ShmTransport::beat(ProcId q, std::uint8_t state, std::int32_t pos) {
  ShmRankCtl& c = l_->ctl[q];
  c.pos.store(pos, std::memory_order_relaxed);
  c.state.store(state, std::memory_order_release);
  if (seg_.shared()) c.lease_ns.store(now_ns(), std::memory_order_release);
}

void ShmTransport::beat_wait(ProcId q, std::uint8_t state, std::int32_t pos,
                             const WaitRecord& wait) {
  ShmRankCtl& c = l_->ctl[q];
  c.wait_obj.store(wait.object, std::memory_order_relaxed);
  c.wait_ver.store(wait.version, std::memory_order_relaxed);
  c.wait_flag.store(wait.flag, std::memory_order_relaxed);
  c.wait_map_dest.store(wait.map_dest, std::memory_order_relaxed);
  c.wait_retries.store(wait.retry_attempts, std::memory_order_relaxed);
  c.wait_exhausted.store(wait.exhausted ? 1 : 0, std::memory_order_relaxed);
  c.wait_since_ns.store(wait.since_ns, std::memory_order_relaxed);
  beat(q, state, pos);
}

void ShmTransport::set_suspended(ProcId q, ProcId dest, std::int32_t count) {
  l_->susp[q * l_->p + dest].store(count, std::memory_order_relaxed);
}

std::int32_t ShmTransport::suspended(ProcId q, ProcId dest) const {
  return l_->susp[q * l_->p + dest].load(std::memory_order_acquire);
}

LightState ShmTransport::light(ProcId q) const {
  const ShmRankCtl& c = l_->ctl[q];
  LightState s;
  s.state = c.state.load(std::memory_order_acquire);
  s.pos = c.pos.load(std::memory_order_acquire);
  s.lease_ns = c.lease_ns.load(std::memory_order_acquire);
  s.wait.object = c.wait_obj.load(std::memory_order_acquire);
  s.wait.version = c.wait_ver.load(std::memory_order_acquire);
  s.wait.flag = c.wait_flag.load(std::memory_order_acquire);
  s.wait.map_dest = c.wait_map_dest.load(std::memory_order_acquire);
  s.wait.retry_attempts = c.wait_retries.load(std::memory_order_acquire);
  s.wait.exhausted = c.wait_exhausted.load(std::memory_order_acquire) != 0;
  s.wait.since_ns = c.wait_since_ns.load(std::memory_order_acquire);
  return s;
}

void ShmTransport::publish_worker_done(ProcId q,
                                       const CounterBlock& counters) {
  ShmRankCtl& c = l_->ctl[q];
  for (std::int32_t i = 0; i < kNumRunCounters; ++i) {
    c.counters[i].store(counters[static_cast<std::size_t>(i)],
                        std::memory_order_relaxed);
  }
  c.done.store(1, std::memory_order_release);
}

bool ShmTransport::worker_done(ProcId q) const {
  return l_->ctl[q].done.load(std::memory_order_acquire) != 0;
}

CounterBlock ShmTransport::worker_counters(ProcId q) const {
  CounterBlock block{};
  for (std::int32_t i = 0; i < kNumRunCounters; ++i) {
    block[static_cast<std::size_t>(i)] =
        l_->ctl[q].counters[i].load(std::memory_order_acquire);
  }
  return block;
}

void ShmTransport::publish_recovery(ProcId q, std::int64_t nacks_sent,
                                    std::int64_t resends) {
  ShmRankCtl& c = l_->ctl[q];
  c.live_nacks.store(nacks_sent, std::memory_order_relaxed);
  c.live_resends.store(resends, std::memory_order_relaxed);
}

std::int64_t ShmTransport::live_nacks(ProcId q) const {
  return l_->ctl[q].live_nacks.load(std::memory_order_relaxed);
}

std::int64_t ShmTransport::live_resends(ProcId q) const {
  return l_->ctl[q].live_resends.load(std::memory_order_relaxed);
}

double ShmTransport::lease_age_seconds(ProcId q) const {
  const std::int64_t lease =
      l_->ctl[q].lease_ns.load(std::memory_order_acquire);
  if (lease == 0) return 1e18;  // never beat
  return static_cast<double>(now_ns() - lease) * 1e-9;
}

bool ShmTransport::rank_failed(ProcId q) const {
  return l_->ctl[q].has_error.load(std::memory_order_acquire) != 0;
}

FailureKind ShmTransport::rank_failure_kind(ProcId q) const {
  return static_cast<FailureKind>(
      l_->ctl[q].error_kind.load(std::memory_order_acquire));
}

std::string ShmTransport::rank_failure_text(ProcId q) const {
  const ShmRankCtl& c = l_->ctl[q];
  return std::string(c.error_text, strnlen(c.error_text, sizeof(c.error_text)));
}

// ---------------------------------------------------------------------------
// ShmSession

ShmSession::ShmSession(std::unique_ptr<ShmTransport> tp,
                       double lease_timeout_seconds)
    : tp_(std::move(tp)), lease_timeout_seconds_(lease_timeout_seconds) {
  children_.resize(static_cast<std::size_t>(tp_->num_procs()));
  detail::shm_health_register(this);
}

std::unique_ptr<ShmSession> ShmSession::create(const ShmTransport::Dims& dims,
                                               double lease_timeout_seconds) {
  return std::unique_ptr<ShmSession>(new ShmSession(
      ShmTransport::create(dims, /*shared=*/true), lease_timeout_seconds));
}

ShmSession::~ShmSession() {
  // Unregister before tearing anything down so the telemetry sampler can
  // never observe a half-destroyed session.
  detail::shm_health_unregister(this);
  kill_all(SIGKILL);
  wait_all(10.0);
}

void ShmSession::spawn_fork(const WorkerFn& fn) {
  const std::int32_t p = tp_->num_procs();
  [[maybe_unused]] const pid_t coordinator = ::getpid();
  for (std::int32_t q = 0; q < p; ++q) {
    const pid_t pid = ::fork();
    RAPID_CHECK(pid >= 0, cat("shm session: fork failed: ", std::strerror(errno)));
    if (pid == 0) {
#if defined(__linux__)
      // A worker never outlives its coordinator: without it nobody reaps,
      // leases or reports, and a rank it died before forking would be
      // waited on forever. The death signal follows the forking thread,
      // which stays in run() until every worker is reaped.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != coordinator) ::_exit(kShmWorkerFailed);
#endif
      // Child: run rank q and never return through the caller's stack.
      int rc = kShmWorkerFailed;
      try {
        rc = fn(q);
      } catch (...) {
        rc = kShmWorkerFailed;
      }
      ::_exit(rc & 0xff);
    }
    children_[static_cast<std::size_t>(q)].pid = pid;
  }
}

bool ShmSession::poll() {
  bool any = false;
  for (Child& c : children_) {
    if (c.pid < 0 || c.exited) continue;
    int st = 0;
    const pid_t r =
        ::waitpid(c.pid, &st, WNOHANG | WUNTRACED | WCONTINUED);
    if (r == c.pid) {
      if (WIFSTOPPED(st)) {
        c.stopped = true;
        continue;
      }
      if (WIFCONTINUED(st)) {
        c.stopped = false;
        continue;
      }
      c.exited = true;
      any = true;
      if (WIFEXITED(st)) {
        c.exit_code = WEXITSTATUS(st);
      } else if (WIFSIGNALED(st)) {
        c.signal = WTERMSIG(st);
      }
    } else if (r < 0 && errno == ECHILD) {
      // Reaped elsewhere (shouldn't happen); treat as an unexplained exit.
      c.exited = true;
      c.exit_code = -1;
      any = true;
    }
  }
  return any;
}

bool ShmSession::all_exited() const {
  for (const Child& c : children_) {
    if (c.pid >= 0 && !c.exited) return false;
  }
  return true;
}

void ShmSession::kill_all(int sig) {
  for (Child& c : children_) {
    if (c.pid >= 0 && !c.exited) ::kill(c.pid, sig);
  }
}

bool ShmSession::wait_all(double timeout_seconds) {
  const std::int64_t deadline =
      sat_add_i64(now_ns(), static_cast<std::int64_t>(timeout_seconds * 1e9));
  for (;;) {
    poll();
    if (all_exited()) return true;
    if (now_ns() >= deadline) return false;
    ::usleep(1000);
  }
}

}  // namespace rapid::rt
