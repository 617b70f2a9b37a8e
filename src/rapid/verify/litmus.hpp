// Bounded model checker for the runtime's lock-free primitives. The
// threaded executor's ordering argument (docs/RUNTIME.md) rests on three
// tiny state machines: the progress bell's signal/wait handshake
// (support/shm.hpp FutexBell), the single-slot address-package mailbox
// with its lock-free pending flag, and the content put's crc → version →
// put_seq release chain. This checker validates those arguments
// mechanically instead of by prose: each primitive is encoded as a litmus
// program over a small shared memory, and a DFS enumerates EVERY
// interleaving under an operational weak-memory model, flagging lost
// wakeups (deadlock with a parked thread) and torn publications (a final
// state violating the program's predicate).
//
// The memory model is a per-thread pending-store set, deliberately weaker
// than TSO where the C++ model is weaker:
//   - a relaxed store becomes a pending store that can flush to shared
//     memory at ANY later point (store→store and store→load reordering);
//   - a release store can flush only after every program-earlier pending
//     store of its thread has flushed (the release fence half);
//   - a seq_cst store or RMW executes only with an empty buffer and writes
//     memory directly (the full-barrier behavior the runtime relies on);
//   - loads forward from the thread's own latest pending store, else read
//     memory (acquire and relaxed loads coincide operationally — all the
//     weakenings under test are on the store side);
//   - mutex lock/unlock and condvar wait/notify are modeled with unlock
//     (and the wait's implicit unlock) flushing the buffer; the weakened
//     behaviors under test all live OUTSIDE critical sections. The bell's
//     futex compare-and-sleep (the kernel re-checks the word under its
//     bucket lock) and the transport's spinlocks are modeled this way.
// Spurious wakeups and the bell's park timeout are not modeled: the
// timeout is the engineering fallback for exactly the lost wakeup this
// checker proves impossible in the strong variants.
//
// Each primitive has a strong variant (the shipped orderings — must verify
// CLEAN) and weakened variants (one ordering dropped — the checker must
// FIND the counterexample, proving the check has teeth and the ordering is
// load-bearing). tests/litmus_test.cpp pins both directions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rapid::verify {

enum class MemOrder : std::uint8_t {
  kRelaxed,
  kRelease,  // stores only
  kAcquire,  // loads only (== relaxed operationally; kept for fidelity)
  kSeqCst,
};

enum class LitmusOp : std::uint8_t {
  kLoad,       // regs[reg] = shared[var] (own pending store forwards)
  kStore,      // shared[var] = value (pending unless seq_cst)
  kRmwAdd,     // regs[reg] = shared[var]; shared[var] += value; seq_cst only
  kLock,       // acquire mutex `var`
  kUnlock,     // release mutex `var` (flushes the store buffer first)
  kCvWait,     // park on condvar `var`, atomically releasing mutex `value`
  kNotifyAll,  // wake every thread parked on condvar `var`
  kJumpIfEq,   // if regs[reg] == value: pc = target
  kJumpIfNe,   // if regs[reg] != value: pc = target
};

struct LitmusInstr {
  LitmusOp op = LitmusOp::kLoad;
  std::int32_t var = 0;    // shared variable / mutex / condvar index
  std::int32_t reg = 0;    // destination (load/rmw) or source (store) reg
  std::int32_t value = 0;  // immediate; for kCvWait the mutex index
  /// When true, a store writes regs[reg] + value instead of the immediate
  /// (the "broken increment" load;store pair of the weakened variants).
  bool value_from_reg = false;
  MemOrder order = MemOrder::kSeqCst;
  std::int32_t target = 0;  // jump destination pc
};

struct LitmusThread {
  std::string name;
  std::vector<LitmusInstr> code;
};

struct LitmusProgram {
  std::string name;
  std::string description;
  std::vector<std::string> var_names;  // shared variables, all initially 0
  std::int32_t num_mutexes = 0;
  std::int32_t num_condvars = 0;
  std::vector<LitmusThread> threads;
  /// Evaluated on every terminal state (all threads done, buffers empty);
  /// returning false is a violation. Null = only deadlock-freedom checked.
  std::function<bool(const std::vector<std::int32_t>& mem)> final_ok;
  std::string property;  // human description of what final_ok asserts
  /// Whether the shipped orderings are under test (true → the checker must
  /// report zero violations) or a deliberately weakened variant (false →
  /// the checker must find the counterexample).
  bool expect_clean = true;
};

struct LitmusResult {
  std::string name;
  bool expect_clean = true;
  std::int64_t states_explored = 0;
  /// One entry per distinct violation class found (bounded), each with the
  /// full interleaving that reaches it.
  std::vector<std::string> violations;

  bool clean() const { return violations.empty(); }
  /// The result agrees with the program's expectation: strong variants
  /// verify clean, weakened variants produce their counterexample.
  bool as_expected() const { return clean() == expect_clean; }
};

/// Exhaustively enumerates every interleaving (with flush transitions) of
/// the program from the all-zero state. Deterministic; state count is
/// bounded by a visited set over full machine states.
LitmusResult run_litmus(const LitmusProgram& program);

/// The bell's signal/wait handshake (support/shm.hpp FutexBell): one
/// ringer (count++; if sleepers != 0 wake) against one waiter (sleepers++;
/// recheck count atomically with the park, as the futex does). `weaken`
/// picks the variant:
///   0  shipped orderings — both increments seq_cst RMWs (expect clean)
///   1  ringer's count++ weakened to a relaxed load;store (expect a lost
///      wakeup: the store→load reorder lets the ringer miss the sleeper)
///   2  waiter's sleepers++ weakened the same way (symmetric Dekker loss)
LitmusProgram doorbell_handshake(int weaken);

/// The single-slot mailbox handoff (threaded_executor service_ra_cq /
/// send_address_package): two senders push under the mutex and fetch_add
/// the lock-free pending flag (release); the receiver drains only when a
/// lock-free pending read is nonzero and resets the flag inside the
/// critical section. weaken=1 moves the reset after the unlock — the
/// checker must find the lost-package state (mailbox nonempty, flag zero).
LitmusProgram mailbox_handoff(int weaken);

/// The content put's publication chain (threaded_executor transmit):
/// payload crc (relaxed) → version (release) → put_seq (release) against a
/// reader gating on an acquire load of put_seq. weaken=1 demotes the
/// put_seq store to relaxed — the checker must find the torn publication
/// (seq visible before payload/version).
LitmusProgram put_publication(int weaken);

/// All variants of all three primitives, strong and weakened.
std::vector<LitmusProgram> all_litmus_programs();

/// Runs every program and returns the results in order. The conformance
/// CLI (rapid_check --litmus) and tests/litmus_test.cpp both drive this.
std::vector<LitmusResult> run_all_litmus();

}  // namespace rapid::verify
