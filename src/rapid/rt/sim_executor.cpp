#include "rapid/rt/sim_executor.hpp"

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_set>

#include "rapid/machine/event_queue.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/map_engine.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

namespace {

using machine::SimTime;

class Simulator {
 public:
  Simulator(const RunPlan& plan, const RunConfig& config, obs::Trace* trace)
      : plan_(plan),
        config_(config),
        params_(config.params),
        trace_(trace),
        tracing_(trace != nullptr) {
    const auto p = static_cast<std::size_t>(plan.num_procs);
    procs_.resize(p);
    epoch_remaining_.resize(static_cast<std::size_t>(plan.graph->num_data()));
    current_version_.assign(static_cast<std::size_t>(plan.graph->num_data()),
                            0);
    for (DataId d = 0; d < plan.graph->num_data(); ++d) {
      const ObjectPlan& obj = plan.objects[d];
      epoch_remaining_[d].resize(obj.epochs.size());
      for (std::size_t v = 0; v < obj.epochs.size(); ++v) {
        epoch_remaining_[d][v] =
            static_cast<std::int32_t>(obj.epochs[v].size());
      }
    }
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      ProcState& ps = procs_[q];
      ps.memory = std::make_unique<ProcMemory>(plan, q,
                                               config.capacity_per_proc,
                                               /*alignment=*/1,
                                               config.alloc_policy,
                                               config.slab_arena);
      ps.received_version.assign(
          static_cast<std::size_t>(plan.graph->num_data()), -1);
      ps.received_seq.assign(
          static_cast<std::size_t>(plan.graph->num_data()), 0);
      ps.mailbox_in_flight.assign(p, 0);
      ps.pkg_seq_sent.assign(p, 0);
      if (!config.active_memory) {
        ps.memory->preallocate_all();
        // Baseline: every reader address is known from the start.
        for (DataId d = 0; d < plan.graph->num_data(); ++d) {
          if (plan.graph->data(d).owner != q) continue;
          for (const auto& dests : plan.objects[d].sends_by_version) {
            for (ProcId dest : dests) ps.known_addrs.emplace(d, dest);
          }
        }
      }
    }
  }

  RunReport run() {
    RunReport report;
    report.maps_per_proc.assign(static_cast<std::size_t>(plan_.num_procs), 0);
    report.peak_bytes_per_proc.assign(
        static_cast<std::size_t>(plan_.num_procs), 0);
    report_ = &report;
    try {
      for (ProcId q = 0; q < plan_.num_procs; ++q) {
        // Baseline heap samples at t=0 (permanents, plus all volatiles in
        // baseline mode).
        record(q, 0.0, obs::EventKind::kHeapSample, 0, 0, 0,
               procs_[q].memory->in_use_bytes());
        record(q, 0.0, obs::EventKind::kHeapPeak, 0, 0, 0,
               procs_[q].memory->peak_bytes());
        dispatch_sends(q, plan_.procs[q].initial_sends);
        queue_.schedule_at(0.0, [this, q] { advance(q); });
      }
      report.parallel_time_us = queue_.run();
      check_all_finished();
    } catch (const NonExecutableError& e) {
      report.executable = false;
      report.failure = e.what();
    }
    for (ProcId q = 0; q < plan_.num_procs; ++q) {
      report.maps_per_proc[q] = procs_[q].maps;
      report.peak_bytes_per_proc[q] = procs_[q].memory->peak_bytes();
    }
    if (tracing_) {
      report.metrics = std::make_shared<obs::MetricsSummary>(
          obs::derive_metrics(*trace_));
    }
    return report;
  }

 private:
  struct ProcState {
    std::unique_ptr<ProcMemory> memory;
    std::int32_t pos = 0;
    SimTime busy_until = 0.0;
    bool executing = false;
    bool in_map = false;
    std::int32_t maps = 0;

    std::vector<std::int32_t> received_version;  // per object, -1 = nothing
    /// Reader-side put sequence per object (mirrors the threaded executor's
    /// Shared::put_seq so both executors stamp the same conformance plane).
    std::vector<std::uint32_t> received_seq;
    /// Owner-side put sequence per (owned object, reader), keyed the same
    /// way as known_addrs. The simulator never retransmits, so these only
    /// ever reach 1 — but the checker reconciles stamps, not assumptions.
    std::map<std::pair<DataId, ProcId>, std::uint32_t> sent_seq;
    std::unordered_set<TaskId> flags_received;
    std::vector<std::int32_t> mailbox_in_flight;  // per source proc
    /// 1-based address-package sequence per destination (mirrors the
    /// threaded executor's per-pair stamps; the conformance checker uses
    /// them to verify duplicate suppression).
    std::vector<std::uint32_t> pkg_seq_sent;
    std::set<std::pair<DataId, ProcId>> known_addrs;  // owner side
    std::deque<ContentSend> suspended;
    std::deque<std::pair<ProcId, AddrPackage>> pending_packages;
    // Delivered address packages not yet consumed: RA runs only at state
    // transitions (paper Figure 3(b)), never mid-task — this is where the
    // scheme's real stalls come from.
    std::deque<std::pair<ProcId, AddrPackage>> inbox;
    std::uint8_t traced_state = 255;  // change-only state recording
  };

  /// Modeled-time event recording: SimTime is µs, trace timestamps are ns.
  void record(ProcId q, SimTime t, obs::EventKind kind, std::int32_t a = 0,
              std::int32_t b = 0, std::int32_t c = 0,
              std::int64_t bytes = 0, std::uint16_t d = 0) {
    if (!tracing_) return;
    trace_->record_at(q, static_cast<std::int64_t>(t * 1000.0), kind, a, b,
                      c, bytes, d);
  }

  void trace_state(ProcId q, obs::ProtoState s, SimTime t) {
    if (!tracing_) return;
    ProcState& ps = procs_[q];
    if (ps.traced_state == static_cast<std::uint8_t>(s)) return;
    ps.traced_state = static_cast<std::uint8_t>(s);
    record(q, t, obs::EventKind::kStateEnter, static_cast<std::int32_t>(s));
  }

  std::int32_t num_tasks_of(ProcId q) const {
    return static_cast<std::int32_t>(plan_.procs[q].order.size());
  }

  bool task_ready(ProcId q, TaskId t) const {
    const ProcState& ps = procs_[q];
    const TaskRuntimePlan& tp = plan_.tasks[t];
    for (const RemoteRead& rr : tp.remote_reads) {
      if (ps.received_version[rr.object] < rr.version) return false;
    }
    for (TaskId u : tp.remote_sync_preds) {
      if (!ps.flags_received.count(u)) return false;
    }
    return true;
  }

  /// The processor's main state machine; re-entered by wake events.
  void advance(ProcId q) {
    ProcState& ps = procs_[q];
    if (ps.executing) return;
    if (queue_.now() < ps.busy_until) {
      queue_.schedule_at(ps.busy_until, [this, q] { advance(q); });
      return;
    }
    service_ra_cq(q);  // RA then CQ, as in every non-EXE state
    if (queue_.now() < ps.busy_until) {  // CQ dispatches charged time
      queue_.schedule_at(ps.busy_until, [this, q] { advance(q); });
      return;
    }
    // MAP state: start one, or continue draining its address packages.
    if (config_.active_memory && (ps.in_map || ps.memory->needs_map(ps.pos))) {
      if (!ps.in_map) {
        trace_state(q, obs::ProtoState::kMap, queue_.now());
        record(q, queue_.now(), obs::EventKind::kMapBegin, ps.pos);
        const MapResult map = ps.memory->perform_map(ps.pos);  // may throw
        ++ps.maps;
        const double cost =
            params_.map_base_us +
            params_.map_per_object_us *
                static_cast<double>(map.freed.size() + map.allocated.size());
        report_->map_us += cost;
        ps.busy_until = queue_.now() + cost;
        if (tracing_) {
          for (DataId d : map.freed) {
            record(q, queue_.now(), obs::EventKind::kMapFree, d, 0, 0,
                   plan_.graph->data(d).size_bytes);
          }
          for (DataId d : map.allocated) {
            record(q, queue_.now(), obs::EventKind::kMapAlloc, d, 0, 0,
                   plan_.graph->data(d).size_bytes);
          }
          record(q, ps.busy_until, obs::EventKind::kMapEnd, ps.pos);
          record(q, ps.busy_until, obs::EventKind::kHeapSample, 0, 0, 0,
                 ps.memory->in_use_bytes());
          record(q, ps.busy_until, obs::EventKind::kHeapPeak, 0, 0, 0,
                 ps.memory->peak_bytes());
        }
        for (auto& pkg : map.packages) ps.pending_packages.push_back(pkg);
        ps.in_map = true;
        queue_.schedule_at(ps.busy_until, [this, q] { advance(q); });
        return;
      }
      // Send the assembled packages sequentially; a full destination slot
      // blocks us here (we are woken by the consumption event).
      while (!ps.pending_packages.empty()) {
        const auto& [dest, pkg] = ps.pending_packages.front();
        if (procs_[dest].mailbox_in_flight[q] >=
            config_.mailbox_slots) {
          return;  // destination slots full: blocked in MAP
        }
        send_addr_package(q, dest, pkg);
        ps.pending_packages.pop_front();
      }
      ps.in_map = false;
      if (queue_.now() < ps.busy_until) {
        queue_.schedule_at(ps.busy_until, [this, q] { advance(q); });
        return;
      }
    }
    if (ps.pos >= num_tasks_of(q)) {  // END: passive, CQ event-driven
      trace_state(q, obs::ProtoState::kEnd, queue_.now());
      return;
    }
    const TaskId t = plan_.procs[q].order[ps.pos];
    trace_state(q, obs::ProtoState::kRec, queue_.now());
    if (!task_ready(q, t)) return;  // REC: woken by arrivals
    // EXE.
    if (tracing_) {
      for (const RemoteRead& rr : plan_.tasks[t].remote_reads) {
        record(q, queue_.now(), obs::EventKind::kConsume, rr.object,
               rr.version, plan_.graph->data(rr.object).owner, 0,
               static_cast<std::uint16_t>(ps.received_seq[rr.object]));
      }
    }
    trace_state(q, obs::ProtoState::kExe, queue_.now());
    record(q, queue_.now(), obs::EventKind::kTaskBegin, t);
    ps.executing = true;
    const double task_time = params_.task_time_us(plan_.graph->task(t).flops);
    report_->compute_us += task_time;
    ps.busy_until = queue_.now() + task_time;
    queue_.schedule_at(ps.busy_until, [this, q] { complete_task(q); });
  }

  void complete_task(ProcId q) {
    ProcState& ps = procs_[q];
    const TaskId t = plan_.procs[q].order[ps.pos];
    ps.executing = false;
    ++ps.pos;
    ++report_->tasks_executed;
    record(q, queue_.now(), obs::EventKind::kTaskEnd, t);
    trace_state(q, obs::ProtoState::kSnd, queue_.now());
    const TaskRuntimePlan& tp = plan_.tasks[t];
    // SND: completion flags for kept anti/output edges (zero-byte puts into
    // preallocated control space — never need an address).
    for (ProcId dest : tp.flag_dests) {
      ps.busy_until += params_.send_overhead_us(8);
      report_->send_us += params_.send_overhead_us(8);
      ++report_->flag_messages;
      record(q, ps.busy_until, obs::EventKind::kFlagSend, t, 0, dest);
      const SimTime arrive = ps.busy_until + params_.rma_latency_us;
      queue_.schedule_at(arrive, [this, dest, t] {
        procs_[dest].flags_received.insert(t);
        wake(dest);
      });
    }
    // Epoch countdown; completed versions trigger content sends, routed
    // together so same-destination puts count as one coalesced batch.
    std::vector<ContentSend> sends;
    for (const auto& [d, v] : tp.epoch_memberships) {
      if (--epoch_remaining_[d][static_cast<std::size_t>(v) - 1] == 0) {
        RAPID_CHECK(current_version_[d] == v - 1,
                    "object versions completed out of order");
        current_version_[d] = v;
        for (ProcId dest :
             plan_.objects[d].sends_by_version[static_cast<std::size_t>(v)]) {
          sends.push_back(ContentSend{d, v, dest});
        }
      }
    }
    dispatch_sends(q, sends);
    queue_.schedule_at(std::max(queue_.now(), ps.busy_until),
                       [this, q] { advance(q); });
  }

  /// Returns whether the send was transmitted (false: suspended on a
  /// missing address).
  bool trigger_send(ProcId q, const ContentSend& s) {
    ProcState& ps = procs_[q];
    if (config_.active_memory) {
      // Address-table lookup + suspended-queue bookkeeping per message.
      ps.busy_until =
          std::max(queue_.now(), ps.busy_until) + params_.addr_lookup_us;
      report_->map_us += params_.addr_lookup_us;
    }
    if (!ps.known_addrs.count({s.object, s.dest})) {
      RAPID_CHECK(config_.active_memory,
                  "baseline mode must know every address");
      ps.suspended.push_back(s);
      ++report_->suspended_sends;
      return false;
    }
    transmit(q, s);
    return true;
  }

  /// Counter-plane mirror of the threaded executor's put coalescing: sends
  /// dispatched together to the same destination count as one put batch.
  /// The cost model still charges per message — only the batch counter is
  /// mirrored. Batch composition differs across the executors (suspension
  /// and wake timing differ), so the conformance plane reconciles messages
  /// and sequence stamps, never batches.
  void dispatch_sends(ProcId q, const std::vector<ContentSend>& sends) {
    std::set<ProcId> dests;
    for (const ContentSend& s : sends) {
      if (trigger_send(q, s)) dests.insert(s.dest);
    }
    report_->put_batches += static_cast<std::int64_t>(dests.size());
  }

  void transmit(ProcId q, const ContentSend& s) {
    // Data consistency (Theorem 1): a suspended message can never be
    // overtaken by a later write of the same object.
    RAPID_CHECK(current_version_[s.object] == s.version,
                cat("content of ", plan_.graph->data(s.object).name,
                    " advanced to version ", current_version_[s.object],
                    " before version ", s.version, " was sent"));
    ProcState& ps = procs_[q];
    const std::int64_t bytes = plan_.graph->data(s.object).size_bytes;
    const std::uint32_t seq = ++ps.sent_seq[{s.object, s.dest}];
    record(q, std::max(queue_.now(), ps.busy_until), obs::EventKind::kPut,
           s.object, s.version, s.dest, bytes,
           static_cast<std::uint16_t>(seq));
    ps.busy_until =
        std::max(queue_.now(), ps.busy_until) + params_.send_overhead_us(bytes);
    report_->send_us += params_.send_overhead_us(bytes);
    ++report_->content_messages;
    report_->content_bytes += bytes;
    record(q, ps.busy_until, obs::EventKind::kPutPublish, s.object,
           s.version, s.dest, bytes, static_cast<std::uint16_t>(seq));
    const SimTime arrive = ps.busy_until + params_.rma_latency_us;
    const DataId d = s.object;
    const std::int32_t v = s.version;
    const ProcId dest = s.dest;
    queue_.schedule_at(arrive, [this, dest, d, v, seq] {
      auto& rv = procs_[dest].received_version[d];
      rv = std::max(rv, v);
      auto& rs = procs_[dest].received_seq[d];
      rs = std::max(rs, seq);
      wake(dest);
    });
  }

  void send_addr_package(ProcId q, ProcId dest, AddrPackage pkg) {
    ProcState& ps = procs_[q];
    pkg.seq = ++ps.pkg_seq_sent[dest];
    ++procs_[dest].mailbox_in_flight[q];
    const double pkg_cost =
        params_.rma_overhead_us +
        params_.addr_entry_us * static_cast<double>(pkg.entries.size());
    ps.busy_until = std::max(queue_.now(), ps.busy_until) + pkg_cost;
    report_->map_us += pkg_cost;
    ++report_->addr_packages;
    report_->addr_entries += static_cast<std::int64_t>(pkg.entries.size());
    record(q, ps.busy_until, obs::EventKind::kAddrPkgSend,
           static_cast<std::int32_t>(pkg.entries.size()),
           static_cast<std::int32_t>(pkg.seq), dest);
    const SimTime arrive = ps.busy_until + params_.rma_latency_us;
    queue_.schedule_at(arrive, [this, q, dest, pkg] {
      // Delivery into the destination slot; consumption waits for the
      // destination's next RA service round.
      procs_[dest].inbox.emplace_back(q, pkg);
      wake(dest);
    });
  }

  /// RA: absorb delivered packages, free the slots (waking senders blocked
  /// in MAP), then CQ: dispatch suspended sends with now-known addresses.
  void service_ra_cq(ProcId q) {
    ProcState& ps = procs_[q];
    while (!ps.inbox.empty()) {
      const auto [src, pkg] = ps.inbox.front();
      ps.inbox.pop_front();
      for (const auto& [d, offset] : pkg.entries) {
        (void)offset;  // the simulator tracks knowledge, not raw addresses
        ps.known_addrs.emplace(d, pkg.reader);
      }
      record(q, queue_.now(), obs::EventKind::kAddrPkgInstall,
             static_cast<std::int32_t>(pkg.entries.size()),
             static_cast<std::int32_t>(pkg.seq), pkg.reader);
      --ps.mailbox_in_flight[src];
      ps.busy_until = std::max(queue_.now(), ps.busy_until) + params_.poll_us;
      queue_.schedule_after(params_.poll_us, [this, src = src] {
        advance(src);
      });
    }
    // Suspended sends whose addresses just arrived: one batch per
    // destination per drain round, matching the threaded executor's CQ.
    std::set<ProcId> dispatched;
    for (auto it = ps.suspended.begin(); it != ps.suspended.end();) {
      if (ps.known_addrs.count({it->object, it->dest})) {
        transmit(q, *it);
        dispatched.insert(it->dest);
        it = ps.suspended.erase(it);
      } else {
        ++it;
      }
    }
    report_->put_batches += static_cast<std::int64_t>(dispatched.size());
  }

  /// Arrival-driven wake-up; the poll charge models one RA+CQ round.
  void wake(ProcId q) {
    queue_.schedule_after(params_.poll_us, [this, q] { advance(q); });
  }

  void check_all_finished() const {
    for (ProcId q = 0; q < plan_.num_procs; ++q) {
      const ProcState& ps = procs_[q];
      if (ps.pos < num_tasks_of(q) || !ps.suspended.empty() ||
          !ps.pending_packages.empty()) {
        std::string dump;
        for (ProcId r = 0; r < plan_.num_procs; ++r) {
          const ProcState& rs = procs_[r];
          dump += cat("\n  P", r, ": pos ", rs.pos, "/", num_tasks_of(r),
                      rs.in_map ? " [in MAP]" : "", ", suspended ",
                      rs.suspended.size(), ", pending packages ",
                      rs.pending_packages.size());
          if (rs.pos < num_tasks_of(r)) {
            dump += cat(", waiting on ",
                        plan_.graph->task(plan_.procs[r].order[rs.pos]).name);
          }
        }
        throw ProtocolDeadlockError(
            cat("protocol stopped with unfinished work:", dump));
      }
    }
  }

  const RunPlan& plan_;
  const RunConfig& config_;
  const machine::MachineParams& params_;
  obs::Trace* const trace_;
  const bool tracing_;
  machine::EventQueue queue_;
  std::vector<ProcState> procs_;
  std::vector<std::vector<std::int32_t>> epoch_remaining_;
  std::vector<std::int32_t> current_version_;
  RunReport* report_ = nullptr;
};

}  // namespace

RunReport simulate(const RunPlan& plan, const RunConfig& config,
                   obs::Trace* trace) {
  try {
    if (trace != nullptr) {
      RAPID_CHECK(trace->num_procs() >= plan.num_procs,
                  "the Trace is sized for fewer processors than the plan");
    }
    Simulator sim(plan, config, trace);
    return sim.run();
  } catch (const NonExecutableError& e) {
    RunReport report;
    report.executable = false;
    report.failure = e.what();
    return report;
  }
}

}  // namespace rapid::rt
