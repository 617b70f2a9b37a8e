#include "rapid/verify/litmus.hpp"

#include <array>
#include <cstddef>
#include <set>
#include <utility>

#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::verify {
namespace {

constexpr int kNumRegs = 4;

/// One store waiting in a thread's buffer. The vector is kept in program
/// order, so a release store is flush-eligible exactly when it is at the
/// front (every program-earlier store already flushed); a relaxed store can
/// flush from any position (store→store reordering).
struct Pending {
  std::int32_t var = 0;
  std::int32_t val = 0;
  bool release = false;
};

enum class ThreadStatus : std::uint8_t {
  kRunning = 0,
  kParked = 1,    // inside cv wait, mutex released
  kWaitLock = 2,  // notified, waiting to reacquire the cv's mutex
};

struct ThreadState {
  std::int32_t pc = 0;
  std::array<std::int32_t, kNumRegs> regs{};
  std::vector<Pending> buf;
  ThreadStatus status = ThreadStatus::kRunning;
  std::int32_t cv = -1;  // condvar parked on
  std::int32_t mu = -1;  // mutex to reacquire after wake
};

struct Machine {
  std::vector<std::int32_t> mem;
  std::vector<std::int32_t> owner;  // mutex -> thread id, -1 free
  std::vector<ThreadState> threads;
};

struct Step {
  std::string desc;
  Machine next;
};

std::string encode(const Machine& m) {
  std::string k;
  k.reserve(96);
  for (const std::int32_t v : m.mem) k += cat(v, ',');
  k += '|';
  for (const std::int32_t o : m.owner) k += cat(o, ',');
  for (const ThreadState& t : m.threads) {
    k += cat('|', t.pc, ';', static_cast<int>(t.status), ';', t.cv, ';',
             t.mu, ';');
    for (const std::int32_t r : t.regs) k += cat(r, ',');
    for (const Pending& s : t.buf) {
      k += cat('[', s.var, ':', s.val, ':', s.release ? 1 : 0, ']');
    }
  }
  return k;
}

class Explorer {
 public:
  explicit Explorer(const LitmusProgram& program) : p_(program) {}

  LitmusResult run() {
    result_.name = p_.name;
    result_.expect_clean = p_.expect_clean;
    Machine init;
    init.mem.assign(p_.var_names.size(), 0);
    init.owner.assign(static_cast<std::size_t>(p_.num_mutexes), -1);
    init.threads.resize(p_.threads.size());
    dfs(init);
    return std::move(result_);
  }

 private:
  static constexpr std::int64_t kMaxStates = 4'000'000;
  static constexpr std::size_t kMaxViolations = 3;

  const std::string& var(std::int32_t v) const {
    return p_.var_names[static_cast<std::size_t>(v)];
  }
  const std::string& tname(std::size_t t) const {
    return p_.threads[t].name;
  }

  bool terminal(const Machine& m) const {
    for (std::size_t t = 0; t < m.threads.size(); ++t) {
      const ThreadState& th = m.threads[t];
      if (th.status != ThreadStatus::kRunning || !th.buf.empty() ||
          th.pc < static_cast<std::int32_t>(p_.threads[t].code.size())) {
        return false;
      }
    }
    return true;
  }

  /// The value a load by thread `t` observes: its own latest pending store
  /// to the variable (store-to-load forwarding), else shared memory.
  static std::int32_t observe(const Machine& m, std::size_t t,
                              std::int32_t v) {
    const auto& buf = m.threads[t].buf;
    for (auto it = buf.rbegin(); it != buf.rend(); ++it) {
      if (it->var == v) return it->val;
    }
    return m.mem[static_cast<std::size_t>(v)];
  }

  void enumerate(const Machine& m, std::vector<Step>& out) const {
    for (std::size_t t = 0; t < m.threads.size(); ++t) {
      const ThreadState& th = m.threads[t];
      // Flush transitions: relaxed stores from any position, release
      // stores only from the front (all earlier stores already visible).
      for (std::size_t i = 0; i < th.buf.size(); ++i) {
        const Pending& s = th.buf[i];
        if (s.release && i != 0) continue;
        Step step;
        step.desc = cat(tname(t), " flushes ", var(s.var), "=", s.val);
        step.next = m;
        step.next.mem[static_cast<std::size_t>(s.var)] = s.val;
        step.next.threads[t].buf.erase(
            step.next.threads[t].buf.begin() +
            static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(step));
      }
      if (th.status == ThreadStatus::kWaitLock) {
        if (m.owner[static_cast<std::size_t>(th.mu)] == -1) {
          Step step;
          step.desc = cat(tname(t), " wakes and reacquires the mutex");
          step.next = m;
          step.next.owner[static_cast<std::size_t>(th.mu)] =
              static_cast<std::int32_t>(t);
          step.next.threads[t].status = ThreadStatus::kRunning;
          step.next.threads[t].cv = -1;
          step.next.threads[t].mu = -1;
          out.push_back(std::move(step));
        }
        continue;
      }
      if (th.status != ThreadStatus::kRunning ||
          th.pc >= static_cast<std::int32_t>(p_.threads[t].code.size())) {
        continue;
      }
      const LitmusInstr& in =
          p_.threads[t].code[static_cast<std::size_t>(th.pc)];
      const bool buf_empty = th.buf.empty();
      Step step;
      step.next = m;
      ThreadState& nt = step.next.threads[t];
      switch (in.op) {
        case LitmusOp::kLoad: {
          const std::int32_t v = observe(m, t, in.var);
          nt.regs[static_cast<std::size_t>(in.reg)] = v;
          nt.pc++;
          step.desc = cat(tname(t), " loads ", var(in.var), " -> ", v);
          break;
        }
        case LitmusOp::kStore: {
          const std::int32_t v =
              in.value_from_reg
                  ? th.regs[static_cast<std::size_t>(in.reg)] + in.value
                  : in.value;
          if (in.order == MemOrder::kSeqCst) {
            if (!buf_empty) continue;  // full barrier: drain first
            step.next.mem[static_cast<std::size_t>(in.var)] = v;
            step.desc = cat(tname(t), " stores ", var(in.var), "=", v,
                            " (seq_cst)");
          } else {
            nt.buf.push_back(
                {in.var, v, in.order == MemOrder::kRelease});
            step.desc = cat(tname(t), " buffers ", var(in.var), "=", v,
                            in.order == MemOrder::kRelease ? " (release)"
                                                           : " (relaxed)");
          }
          nt.pc++;
          break;
        }
        case LitmusOp::kRmwAdd: {
          if (!buf_empty) continue;  // seq_cst RMW acts on memory directly
          const std::int32_t old =
              m.mem[static_cast<std::size_t>(in.var)];
          nt.regs[static_cast<std::size_t>(in.reg)] = old;
          step.next.mem[static_cast<std::size_t>(in.var)] =
              old + in.value;
          nt.pc++;
          step.desc = cat(tname(t), " fetch_add ", var(in.var), " ",
                          in.value >= 0 ? "+" : "", in.value, " -> ",
                          old + in.value);
          break;
        }
        case LitmusOp::kLock: {
          if (m.owner[static_cast<std::size_t>(in.var)] != -1) continue;
          step.next.owner[static_cast<std::size_t>(in.var)] =
              static_cast<std::int32_t>(t);
          nt.pc++;
          step.desc = cat(tname(t), " locks");
          break;
        }
        case LitmusOp::kUnlock: {
          // Unlock is a release: every buffered store flushes first.
          if (!buf_empty ||
              m.owner[static_cast<std::size_t>(in.var)] !=
                  static_cast<std::int32_t>(t)) {
            continue;
          }
          step.next.owner[static_cast<std::size_t>(in.var)] = -1;
          nt.pc++;
          step.desc = cat(tname(t), " unlocks");
          break;
        }
        case LitmusOp::kCvWait: {
          if (!buf_empty ||
              m.owner[static_cast<std::size_t>(in.value)] !=
                  static_cast<std::int32_t>(t)) {
            continue;
          }
          step.next.owner[static_cast<std::size_t>(in.value)] = -1;
          nt.status = ThreadStatus::kParked;
          nt.cv = in.var;
          nt.mu = in.value;
          nt.pc++;  // resumes past the wait after wake + reacquire
          step.desc = cat(tname(t), " parks on the condvar");
          break;
        }
        case LitmusOp::kNotifyAll: {
          for (std::size_t o = 0; o < step.next.threads.size(); ++o) {
            ThreadState& ot = step.next.threads[o];
            if (ot.status == ThreadStatus::kParked && ot.cv == in.var) {
              ot.status = ThreadStatus::kWaitLock;
            }
          }
          nt.pc++;
          step.desc = cat(tname(t), " notifies all");
          break;
        }
        case LitmusOp::kJumpIfEq:
        case LitmusOp::kJumpIfNe: {
          const bool eq =
              th.regs[static_cast<std::size_t>(in.reg)] == in.value;
          const bool taken = in.op == LitmusOp::kJumpIfEq ? eq : !eq;
          nt.pc = taken ? in.target : th.pc + 1;
          step.desc = cat(tname(t), taken ? " branches" : " falls through");
          break;
        }
      }
      out.push_back(std::move(step));
    }
  }

  void violation(std::string what, const Machine& m) {
    if (result_.violations.size() >= kMaxViolations) return;
    std::string msg = std::move(what);
    msg += "; final memory:";
    for (std::size_t v = 0; v < m.mem.size(); ++v) {
      msg += cat(' ', p_.var_names[v], '=', m.mem[v]);
    }
    msg += "; interleaving: ";
    for (std::size_t i = 0; i < path_.size(); ++i) {
      if (i > 0) msg += " -> ";
      msg += path_[i];
    }
    result_.violations.push_back(std::move(msg));
  }

  void dfs(const Machine& m) {
    if (aborted_) return;
    if (!visited_.insert(encode(m)).second) return;
    if (++result_.states_explored > kMaxStates) {
      aborted_ = true;
      result_.violations.push_back(
          cat("state space exceeded ", kMaxStates,
              " states — the litmus program is too large to enumerate"));
      return;
    }
    std::vector<Step> steps;
    enumerate(m, steps);
    if (steps.empty()) {
      if (terminal(m)) {
        if (p_.final_ok && !p_.final_ok(m.mem)) {
          violation(cat("property violated: ", p_.property), m);
        }
      } else {
        bool parked = false;
        std::string who;
        for (std::size_t t = 0; t < m.threads.size(); ++t) {
          if (m.threads[t].status == ThreadStatus::kParked) {
            parked = true;
            who = tname(t);
          }
        }
        violation(parked ? cat("lost wakeup: thread '", who,
                               "' is parked and every other thread "
                               "finished without notifying")
                         : std::string("deadlock: no thread can step"),
                  m);
      }
      return;
    }
    for (const Step& step : steps) {
      path_.push_back(step.desc);
      dfs(step.next);
      path_.pop_back();
      if (aborted_) return;
    }
  }

  const LitmusProgram& p_;
  LitmusResult result_;
  std::set<std::string> visited_;
  std::vector<std::string> path_;
  bool aborted_ = false;
};

// -- instruction builders ---------------------------------------------------

LitmusInstr ld(std::int32_t v, std::int32_t reg,
               MemOrder o = MemOrder::kSeqCst) {
  return {LitmusOp::kLoad, v, reg, 0, false, o, 0};
}
LitmusInstr st(std::int32_t v, std::int32_t imm, MemOrder o) {
  return {LitmusOp::kStore, v, 0, imm, false, o, 0};
}
LitmusInstr st_reg(std::int32_t v, std::int32_t reg, std::int32_t add,
                   MemOrder o) {
  return {LitmusOp::kStore, v, reg, add, true, o, 0};
}
LitmusInstr rmw(std::int32_t v, std::int32_t add, std::int32_t reg) {
  return {LitmusOp::kRmwAdd, v, reg, add, false, MemOrder::kSeqCst, 0};
}
LitmusInstr lock(std::int32_t m) {
  return {LitmusOp::kLock, m, 0, 0, false, MemOrder::kSeqCst, 0};
}
LitmusInstr unlock(std::int32_t m) {
  return {LitmusOp::kUnlock, m, 0, 0, false, MemOrder::kSeqCst, 0};
}
LitmusInstr cvwait(std::int32_t cv, std::int32_t m) {
  return {LitmusOp::kCvWait, cv, 0, m, false, MemOrder::kSeqCst, 0};
}
LitmusInstr notify(std::int32_t cv) {
  return {LitmusOp::kNotifyAll, cv, 0, 0, false, MemOrder::kSeqCst, 0};
}
LitmusInstr jeq(std::int32_t reg, std::int32_t val, std::int32_t target) {
  return {LitmusOp::kJumpIfEq, 0, reg, val, false, MemOrder::kSeqCst,
          target};
}
LitmusInstr jne(std::int32_t reg, std::int32_t val, std::int32_t target) {
  return {LitmusOp::kJumpIfNe, 0, reg, val, false, MemOrder::kSeqCst,
          target};
}

}  // namespace

LitmusResult run_litmus(const LitmusProgram& program) {
  RAPID_CHECK(!program.threads.empty(), "litmus program has no threads");
  for (const LitmusThread& t : program.threads) {
    for (const LitmusInstr& in : t.code) {
      RAPID_CHECK(in.reg >= 0 && in.reg < kNumRegs,
                  "litmus register out of range");
    }
  }
  return Explorer(program).run();
}

LitmusProgram doorbell_handshake(int weaken) {
  // vars: 0 = count, 1 = sleepers (support/shm.hpp ShmBellState).
  constexpr std::int32_t kCount = 0, kSleepers = 1;
  LitmusProgram p;
  p.var_names = {"count", "sleepers"};
  p.num_mutexes = 1;
  p.num_condvars = 1;
  p.expect_clean = weaken == 0;
  p.final_ok = [](const std::vector<std::int32_t>& mem) {
    return mem[0] == 1 && mem[1] == 0;
  };
  p.property = "count == 1 and sleepers == 0 after both threads finish";

  LitmusThread ringer{"ringer", {}};
  if (weaken == 1) {
    p.name = "doorbell-weak-signal";
    p.description =
        "Bell with the ringer's count++ demoted to a relaxed "
        "load;store — the buffered count store lets the ringer read "
        "sleepers==0 while the waiter reads the stale count (Dekker "
        "store->load reordering): lost wakeup";
    ringer.code = {ld(kCount, 0, MemOrder::kRelaxed),
                   st_reg(kCount, 0, 1, MemOrder::kRelaxed),
                   ld(kSleepers, 1, MemOrder::kSeqCst),
                   jeq(1, 0, 7),
                   lock(0),
                   notify(0),
                   unlock(0)};
  } else {
    ringer.code = {rmw(kCount, 1, 0),
                   ld(kSleepers, 1, MemOrder::kSeqCst),
                   jeq(1, 0, 6),
                   lock(0),
                   notify(0),
                   unlock(0)};
  }

  LitmusThread waiter{"waiter", {}};
  if (weaken == 2) {
    p.name = "doorbell-weak-register";
    p.description =
        "Bell with the waiter's sleepers++ demoted to a relaxed "
        "load;store — the ringer reads sleepers==0 before the waiter's "
        "buffered registration flushes, the waiter re-checks the stale "
        "count and parks: lost wakeup (the symmetric Dekker loss)";
    waiter.code = {ld(kSleepers, 0, MemOrder::kRelaxed),
                   st_reg(kSleepers, 0, 1, MemOrder::kRelaxed),
                   lock(0),
                   ld(kCount, 1, MemOrder::kSeqCst),
                   jne(1, 0, 6),
                   cvwait(0, 0),
                   unlock(0),
                   rmw(kSleepers, -1, 2)};
  } else {
    waiter.code = {rmw(kSleepers, 1, 0),
                   lock(0),
                   ld(kCount, 1, MemOrder::kSeqCst),
                   jne(1, 0, 5),
                   cvwait(0, 0),
                   unlock(0),
                   rmw(kSleepers, -1, 2)};
  }
  if (weaken == 0) {
    p.name = "doorbell-strong";
    p.description =
        "Bell as shipped: seq_cst count++ / sleepers++ on both sides "
        "with the recheck atomic with the park — the ringer sees the "
        "registration or the waiter sees the new count, never neither";
  }
  p.threads = {std::move(ringer), std::move(waiter)};
  return p;
}

LitmusProgram mailbox_handoff(int weaken) {
  // vars: 0 = mailbox occupancy, 1 = mailbox_pending flag
  // (threaded_executor Shared::mailbox / mailbox_pending).
  constexpr std::int32_t kBox = 0, kPending = 1;
  LitmusProgram p;
  p.var_names = {"box", "pending"};
  p.num_mutexes = 1;
  p.expect_clean = weaken == 0;
  p.final_ok = [](const std::vector<std::int32_t>& mem) {
    return !(mem[0] > 0 && mem[1] == 0);
  };
  p.property =
      "an undrained package always leaves the pending flag raised (box > "
      "0 implies pending != 0)";

  const LitmusThread sender1{"sender1",
                             {lock(0), ld(kBox, 0, MemOrder::kRelaxed),
                              st_reg(kBox, 0, 1, MemOrder::kRelaxed),
                              rmw(kPending, 1, 1), unlock(0)}};
  LitmusThread sender2 = sender1;
  sender2.name = "sender2";

  LitmusThread receiver{"receiver", {}};
  if (weaken == 1) {
    p.name = "mailbox-weak-reset";
    p.description =
        "Mailbox drain with the pending reset moved AFTER the unlock — a "
        "sender that pushes between the drain and the reset has its flag "
        "wiped, stranding the package with pending == 0";
    receiver.code = {ld(kPending, 0, MemOrder::kAcquire),
                     jeq(0, 0, 7),
                     lock(0),
                     ld(kBox, 1, MemOrder::kRelaxed),
                     st(kBox, 0, MemOrder::kRelaxed),
                     unlock(0),
                     st(kPending, 0, MemOrder::kRelaxed)};
  } else {
    p.name = "mailbox-strong";
    p.description =
        "Mailbox drain as shipped: the pending flag is reset inside the "
        "critical section that drains the slots, so any later push "
        "re-raises it (service_ra_cq)";
    receiver.code = {ld(kPending, 0, MemOrder::kAcquire),
                     jeq(0, 0, 7),
                     lock(0),
                     ld(kBox, 1, MemOrder::kRelaxed),
                     st(kBox, 0, MemOrder::kRelaxed),
                     st(kPending, 0, MemOrder::kRelaxed),
                     unlock(0)};
  }
  p.threads = {sender1, std::move(sender2), std::move(receiver)};
  return p;
}

LitmusProgram put_publication(int weaken) {
  // vars: 0 = payload (standing in for content+crc), 1 = version,
  // 2 = put_seq, 3..5 = the reader's observations written back so the
  // final-state predicate can see them.
  constexpr std::int32_t kPayload = 0, kVersion = 1, kSeq = 2;
  constexpr std::int32_t kObsSeq = 3, kObsVersion = 4, kObsPayload = 5;
  LitmusProgram p;
  p.var_names = {"payload", "version",     "seq",
                 "obs_seq", "obs_version", "obs_payload"};
  p.expect_clean = weaken == 0;
  p.final_ok = [](const std::vector<std::int32_t>& mem) {
    return mem[3] != 1 || (mem[4] == 1 && mem[5] == 1);
  };
  p.property =
      "a reader that observes put_seq == 1 also observes the payload and "
      "version of that put (no torn publication)";

  LitmusThread owner{"owner",
                     {st(kPayload, 1, MemOrder::kRelaxed),
                      st(kVersion, 1, MemOrder::kRelease),
                      st(kSeq, 1,
                         weaken == 1 ? MemOrder::kRelaxed
                                     : MemOrder::kRelease)}};
  const LitmusThread reader{"reader",
                            {ld(kSeq, 0, MemOrder::kAcquire),
                             ld(kVersion, 1, MemOrder::kAcquire),
                             ld(kPayload, 2, MemOrder::kRelaxed),
                             st_reg(kObsSeq, 0, 0, MemOrder::kSeqCst),
                             st_reg(kObsVersion, 1, 0, MemOrder::kSeqCst),
                             st_reg(kObsPayload, 2, 0, MemOrder::kSeqCst)}};
  if (weaken == 1) {
    p.name = "publication-weak-seq";
    p.description =
        "Content put with the put_seq store demoted to relaxed — the "
        "sequence can flush before the payload/version stores it is "
        "supposed to publish: torn publication";
  } else {
    p.name = "publication-strong";
    p.description =
        "Content put as shipped: crc/payload relaxed, then version "
        "release, then put_seq release — a reader acquiring the sequence "
        "sees the whole put (threaded_executor transmit)";
  }
  p.threads = {std::move(owner), reader};
  return p;
}

std::vector<LitmusProgram> all_litmus_programs() {
  std::vector<LitmusProgram> out;
  out.push_back(doorbell_handshake(0));
  out.push_back(doorbell_handshake(1));
  out.push_back(doorbell_handshake(2));
  out.push_back(mailbox_handoff(0));
  out.push_back(mailbox_handoff(1));
  out.push_back(put_publication(0));
  out.push_back(put_publication(1));
  return out;
}

std::vector<LitmusResult> run_all_litmus() {
  std::vector<LitmusResult> out;
  for (const LitmusProgram& p : all_litmus_programs()) {
    out.push_back(run_litmus(p));
  }
  return out;
}

}  // namespace rapid::verify
