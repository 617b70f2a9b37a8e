// The one transport as in-proc runs build it: the shm segment layout in a
// private anonymous mapping, ranks as threads. Two claims: (1) the
// transport's primitive semantics — publication ordering, mailbox bounds,
// NACK channel, control plane — behave per docs/TRANSPORT.md; (2) running
// the threaded executor's data plane on it changed nothing: on seed
// workloads the counters (messages, bytes, put batches) match the
// SimExecutor oracle / stay deterministic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "counter_app.hpp"
#include "rapid/rt/shm_transport.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/rt/transport.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/check.hpp"

namespace rapid::rt {
namespace {

using testing::CounterApp;
using testing::GridApp;

/// A private-mapping transport whose mailbox slots hold packages of up to
/// `num_data` entries.
std::unique_ptr<ShmTransport> make_private(std::int32_t num_procs,
                                           std::int64_t num_data,
                                           std::int64_t num_tasks,
                                           std::int64_t heap_bytes_per_proc) {
  ShmTransport::Dims dims;
  dims.num_procs = num_procs;
  dims.num_data = num_data;
  dims.num_tasks = num_tasks;
  dims.heap_bytes = heap_bytes_per_proc;
  dims.max_pkg_entries = num_data;
  return ShmTransport::create(dims, /*shared=*/false);
}

TEST(TransportKindStrings, RoundTripAndRejects) {
  EXPECT_STREQ(to_string(TransportKind::kInProc), "inproc");
  EXPECT_STREQ(to_string(TransportKind::kShm), "shm");
  EXPECT_EQ(transport_from_string("inproc"), TransportKind::kInProc);
  EXPECT_EQ(transport_from_string("shm"), TransportKind::kShm);
  EXPECT_THROW(transport_from_string("rdma"), Error);
}

TEST(InProcTransport, PublishOrderingAndFlagVisibility) {
  auto tp = make_private(/*num_procs=*/2, /*num_data=*/3, /*num_tasks=*/2,
                         /*heap_bytes_per_proc=*/256);
  ASSERT_EQ(tp->num_procs(), 2);
  EXPECT_FALSE(tp->cross_process());
  WindowView w1 = tp->window(1);
  ASSERT_NE(w1.heap, nullptr);
  // Fresh window: nothing received, no flags.
  EXPECT_EQ(w1.received_version[0].load(), -1);
  EXPECT_EQ(w1.put_seq[0].load(), 0u);
  EXPECT_EQ(w1.flags[0].load(), 0);

  const std::byte payload[8] = {std::byte{0xAB}};
  tp->put(w1, /*dst_off=*/16, payload, sizeof(payload));
  tp->publish(w1, /*d=*/1, /*version=*/3, /*crc=*/0xDEADBEEF, /*seq=*/7);
  EXPECT_EQ(w1.heap[16], std::byte{0xAB});
  EXPECT_EQ(w1.received_version[1].load(), 3);
  EXPECT_EQ(w1.received_crc[1].load(), 0xDEADBEEFu);
  EXPECT_EQ(w1.put_seq[1].load(), 7u);
  // Version publication is a max-merge: a late lower version never
  // regresses the visible one.
  tp->publish(w1, 1, 2, 0x1, 8);
  EXPECT_EQ(w1.received_version[1].load(), 3);

  tp->raise_flag(w1, /*task=*/1);
  EXPECT_EQ(w1.flags[1].load(), 1);
}

TEST(InProcTransport, MailboxBoundCopiesAndDrainOrder) {
  auto tp = make_private(2, 4, 4, 64);
  AddrPackage pkg;
  pkg.reader = 0;
  pkg.entries = {{0, 8}, {1, 16}};
  pkg.seq = 1;
  pkg.crc = pkg.checksum();
  // slot_bound caps the per-(src → dest) lane; copies=2 models a duplicated
  // package (both must land for the replay-suppression path to see one).
  ASSERT_TRUE(tp->try_send_addr_package(0, 1, pkg, /*slot_bound=*/2,
                                        /*copies=*/2));
  EXPECT_TRUE(tp->addr_packages_pending(1));
  EXPECT_EQ(tp->mailbox_occupancy(1), 2);
  AddrPackage third = pkg;
  third.seq = 2;
  third.crc = third.checksum();
  EXPECT_FALSE(tp->try_send_addr_package(0, 1, third, /*slot_bound=*/2,
                                         /*copies=*/1))
      << "a full lane must reject, not overwrite";
  std::vector<AddrPackage> got;
  tp->drain_addr_packages(1, &got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].seq, 1u);
  EXPECT_EQ(got[1].seq, 1u);
  EXPECT_FALSE(tp->addr_packages_pending(1));
  EXPECT_EQ(tp->mailbox_occupancy(1), 0);
}

TEST(InProcTransport, NackChannel) {
  auto tp = make_private(2, 4, 4, 64);
  EXPECT_FALSE(tp->nacks_pending(0));
  NackRequest n;
  n.requester = 1;
  n.object = 2;
  n.version = 5;
  n.reader_offset = 24;
  n.observed_seq = 9;
  tp->push_nack(/*dest=*/0, n);
  ASSERT_TRUE(tp->nacks_pending(0));
  std::vector<NackRequest> got;
  tp->drain_nacks(0, &got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].requester, 1);
  EXPECT_EQ(got[0].object, 2);
  EXPECT_EQ(got[0].version, 5);
  EXPECT_EQ(got[0].observed_seq, 9u);
  EXPECT_FALSE(tp->nacks_pending(0));
}

TEST(InProcTransport, ControlPlaneQuiescenceAbortFailures) {
  auto tp = make_private(3, 2, 2, 64);
  EXPECT_EQ(tp->quiescent_count(), 0);
  EXPECT_EQ(tp->note_quiescent(0), 1);
  EXPECT_EQ(tp->note_quiescent(1), 2);
  EXPECT_EQ(tp->quiescent_count(), 2);

  EXPECT_FALSE(tp->aborted());
  EXPECT_FALSE(tp->any_failure());
  tp->report_failure(1, FailureKind::kIntegrity, "first");
  tp->report_failure(2, FailureKind::kTaskError, "second");
  tp->request_abort();
  EXPECT_TRUE(tp->aborted());
  EXPECT_TRUE(tp->any_failure());
  EXPECT_EQ(tp->first_failure_kind(), FailureKind::kIntegrity);
  const std::vector<std::string> texts = tp->failure_texts();
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(texts[0], "first");
  EXPECT_EQ(texts[1], "second");
}

TEST(InProcTransport, BeatsFeedLightState) {
  auto tp = make_private(2, 2, 2, 64);
  tp->beat(0, /*state=*/2, /*pos=*/9);
  // On a private mapping a rank's wait record lands in its control slot as
  // on a shared one — the stall snapshots read it back through light() —
  // but no beat stamps a lease: there is no other process to watch it.
  WaitRecord w;
  w.object = 1;
  w.version = 4;
  w.retry_attempts = 2;
  tp->beat_wait(1, /*state=*/3, /*pos=*/17, w);
  const LightState l = tp->light(1);
  EXPECT_EQ(l.state, 3);
  EXPECT_EQ(l.pos, 17);
  EXPECT_EQ(l.wait.object, 1);
  EXPECT_EQ(l.wait.version, 4);
  EXPECT_EQ(l.wait.retry_attempts, 2);
  EXPECT_FALSE(l.wait.exhausted);
  EXPECT_EQ(l.lease_ns, 0);
  const LightState l0 = tp->light(0);
  EXPECT_EQ(l0.state, 2);
  EXPECT_EQ(l0.pos, 9);
  EXPECT_EQ(l0.lease_ns, 0);
}

// The monitor's failure text (deadlock, watchdog, exhaustion, cancel, proc
// failure) stays whole in the creating process; only a rank's text is cut
// to its fixed-size control slot.
TEST(OneTransport, MonitorFailureTextStaysWhole) {
  auto tp = make_private(2, 2, 2, 64);
  const std::string monitor(2000, 'm');
  const std::string rank(2000, 'r');
  tp->report_failure(graph::kInvalidProc, FailureKind::kDeadlock, monitor);
  tp->report_failure(1, FailureKind::kTaskError, rank);
  EXPECT_EQ(tp->first_failure_kind(), FailureKind::kDeadlock);
  const std::vector<std::string> texts = tp->failure_texts();
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(texts[0], monitor);
  EXPECT_LT(texts[1].size(), rank.size());
  EXPECT_EQ(texts[1], rank.substr(0, texts[1].size()));
}

// Mailbox slots are sized from the plan: the largest package one reader
// sends one owner. A package that does not fit its slot is refused loudly
// rather than written past the slot.
TEST(OneTransport, MailboxSlotsSizedFromPlan) {
  GridApp app(/*rows=*/5, /*cols=*/4, /*procs=*/4);
  RunConfig config;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).min_mem();
  const ShmTransport::Dims dims = ShmTransport::dims_for(app.plan, config);
  EXPECT_GT(dims.max_pkg_entries, 0);
  EXPECT_LT(dims.max_pkg_entries, dims.num_data);
  auto tp = ShmTransport::create(dims, /*shared=*/false);
  AddrPackage pkg;
  pkg.reader = 0;
  for (std::int64_t i = 0; i < dims.max_pkg_entries; ++i) {
    pkg.entries.emplace_back(static_cast<DataId>(i), 8 * i);
  }
  EXPECT_TRUE(tp->try_send_addr_package(0, 1, pkg, 1, 1));
  pkg.entries.emplace_back(0, 0);
  EXPECT_THROW(tp->try_send_addr_package(0, 2, pkg, 1, 1), Error);
}

// The private mapping is charged against the commit limit, so a capacity
// no machine can map fails at setup with rapid::Error (2 x 2^50 bytes is
// past the x86-64 user address space whatever the overcommit policy).
TEST(OneTransport, AbsurdCapacityFailsAtSetup) {
  EXPECT_THROW(make_private(2, 2, 2, std::int64_t{1} << 50), Error);
}

// A private window is not zero-filled up front: its pages stay unmapped
// until a rank writes them, so a run pays only for the bytes it touches.
TEST(OneTransport, PrivateWindowsAreNotPrefaulted) {
  const std::int64_t heap = 8 << 20;
  auto tp = make_private(2, 2, 2, heap);
  const auto page = static_cast<std::int64_t>(::sysconf(_SC_PAGESIZE));
  std::byte* const begin = tp->window(1).heap;
  const auto first = (reinterpret_cast<std::intptr_t>(begin) + page - 1) /
                     page * page;
  const std::int64_t pages = (heap - page) / page;
  auto resident = [&] {
    std::vector<unsigned char> vec(static_cast<std::size_t>(pages));
    EXPECT_EQ(::mincore(reinterpret_cast<void*>(first),
                        static_cast<std::size_t>(pages * page), vec.data()),
              0);
    std::int64_t n = 0;
    for (const unsigned char v : vec) n += v & 1;
    return n;
  };
  EXPECT_EQ(resident(), 0);
  reinterpret_cast<volatile char*>(first)[3 * page] = 1;
  EXPECT_EQ(resident(), 1);
}

// ---- counter identity ------------------------------------------------------
//
// The refactor's no-regression claim: the in-proc backend is the
// pre-transport data plane. The SimExecutor runs the identical plan as the
// protocol oracle; messages/bytes/flags/tasks must match exactly, and the
// purely plan-determined counters (put batches, address traffic) must be
// identical across repeated threaded runs regardless of interleaving.

void check_counter_identity(const RunPlan& plan, const RunConfig& config,
                            const ObjectInit& init, const TaskBody& body) {
  const RunReport sim = simulate(plan, config);
  ASSERT_TRUE(sim.executable) << sim.failure;
  RunReport first;
  for (int rep = 0; rep < 2; ++rep) {
    ThreadedExecutor exec(plan, config, init, body);
    const RunReport r = exec.run();
    ASSERT_TRUE(r.executable) << r.failure;
    EXPECT_EQ(r.transport, "inproc");
    EXPECT_EQ(r.tasks_executed, sim.tasks_executed);
    EXPECT_EQ(r.content_messages, sim.content_messages);
    EXPECT_EQ(r.content_bytes, sim.content_bytes);
    EXPECT_EQ(r.flag_messages, sim.flag_messages);
    if (rep == 0) {
      first = r;
    } else {
      EXPECT_EQ(r.put_batches, first.put_batches);
      EXPECT_EQ(r.addr_packages, first.addr_packages);
      EXPECT_EQ(r.addr_entries, first.addr_entries);
    }
  }
}

TEST(InProcIdentity, Figure2CounterApp) {
  CounterApp app(4);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  check_counter_identity(app.plan, app.config(liveness.min_mem()),
                         app.make_init(), app.make_body());
}

TEST(InProcIdentity, GridAppMinMemory) {
  GridApp app(/*rows=*/5, /*cols=*/4, /*procs=*/4);
  RunConfig config;
  config.params = machine::MachineParams::cray_t3d(4);
  config.active_memory = true;
  config.capacity_per_proc =
      sched::analyze_liveness(app.graph, app.schedule).min_mem();
  check_counter_identity(app.plan, config, app.make_init(), app.make_body());
}

}  // namespace
}  // namespace rapid::rt
