// Tests for the bounded model checker over the runtime's lock-free
// primitives (verify/litmus.hpp). Two directions, both load-bearing:
//
//   1. The STRONG variants — the orderings the threaded executor actually
//      ships (bell seq_cst handshake, mailbox pending-flag reset inside
//      the critical section, crc→version→put_seq release chain) — must
//      verify CLEAN over every interleaving. This replaces the prose-only
//      ordering argument in docs/RUNTIME.md with a mechanical one.
//
//   2. The WEAKENED variants — each with exactly one ordering dropped —
//      must produce their counterexample. A checker that cannot refute the
//      broken versions proves nothing about the shipped ones.
#include <gtest/gtest.h>

#include <string>

#include "rapid/verify/litmus.hpp"

namespace rapid::verify {
namespace {

std::string joined(const LitmusResult& r) {
  std::string out;
  for (const std::string& v : r.violations) out += v + "\n";
  return out;
}

// ---- strong variants: the shipped orderings verify clean -------------------

TEST(Litmus, DoorbellStrongVerifiesClean) {
  const LitmusResult r = run_litmus(doorbell_handshake(0));
  EXPECT_TRUE(r.clean()) << joined(r);
  EXPECT_GT(r.states_explored, 0);
}

TEST(Litmus, MailboxStrongVerifiesClean) {
  const LitmusResult r = run_litmus(mailbox_handoff(0));
  EXPECT_TRUE(r.clean()) << joined(r);
  EXPECT_GT(r.states_explored, 0);
}

TEST(Litmus, PublicationStrongVerifiesClean) {
  const LitmusResult r = run_litmus(put_publication(0));
  EXPECT_TRUE(r.clean()) << joined(r);
  EXPECT_GT(r.states_explored, 0);
}

// ---- weakened variants: the checker must find the counterexample -----------

TEST(Litmus, WeakRingerSignalLosesTheWakeup) {
  const LitmusResult r = run_litmus(doorbell_handshake(1));
  ASSERT_FALSE(r.clean())
      << "a relaxed count++ must produce a lost wakeup";
  EXPECT_NE(r.violations.front().find("lost wakeup"), std::string::npos)
      << r.violations.front();
}

TEST(Litmus, WeakWaiterRegistrationLosesTheWakeup) {
  const LitmusResult r = run_litmus(doorbell_handshake(2));
  ASSERT_FALSE(r.clean())
      << "a relaxed sleepers++ must produce a lost wakeup";
  EXPECT_NE(r.violations.front().find("lost wakeup"), std::string::npos)
      << r.violations.front();
}

TEST(Litmus, WeakMailboxResetStrandsAPackage) {
  const LitmusResult r = run_litmus(mailbox_handoff(1));
  ASSERT_FALSE(r.clean())
      << "resetting the pending flag outside the lock must lose a package";
  EXPECT_NE(r.violations.front().find("property violated"),
            std::string::npos)
      << r.violations.front();
}

TEST(Litmus, WeakPublicationTearsThePut) {
  const LitmusResult r = run_litmus(put_publication(1));
  ASSERT_FALSE(r.clean())
      << "a relaxed put_seq store must produce a torn publication";
  EXPECT_NE(r.violations.front().find("property violated"),
            std::string::npos)
      << r.violations.front();
}

// ---- suite-level invariants ------------------------------------------------

TEST(Litmus, AllVariantsAgreeWithTheirExpectations) {
  for (const LitmusResult& r : run_all_litmus()) {
    EXPECT_TRUE(r.as_expected())
        << r.name << (r.expect_clean ? " was expected to verify clean:\n"
                                     : " was expected to find a "
                                       "counterexample\n")
        << joined(r);
  }
}

TEST(Litmus, EnumerationIsDeterministic) {
  const LitmusResult a = run_litmus(doorbell_handshake(0));
  const LitmusResult b = run_litmus(doorbell_handshake(0));
  EXPECT_EQ(a.states_explored, b.states_explored);
  const LitmusResult c = run_litmus(doorbell_handshake(2));
  const LitmusResult d = run_litmus(doorbell_handshake(2));
  ASSERT_FALSE(c.clean());
  EXPECT_EQ(c.violations, d.violations);
}

}  // namespace
}  // namespace rapid::verify
