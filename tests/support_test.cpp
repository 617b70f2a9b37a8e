#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <latch>
#include <limits>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "rapid/rt/map_engine.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/checksum.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/json.hpp"
#include "rapid/support/log.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/support/str.hpp"
#include "rapid/support/table.hpp"

namespace rapid {
namespace {

TEST(Check, ThrowsWithExpressionAndMessage) {
  try {
    RAPID_CHECK(1 == 2, cat("context ", 42));
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(RAPID_CHECK(true, ""));
}

TEST(Check, FailMacroAlwaysThrows) {
  EXPECT_THROW(RAPID_FAIL("boom"), Error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Str, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-1.0, 0), "-1");
}

TEST(Str, Pct) {
  EXPECT_EQ(pct(0.123), "+12.3%");
  EXPECT_EQ(pct(-0.05), "-5.0%");
}

TEST(Str, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Str, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(1536), "1.50 KB");
}

TEST(Flags, ParsesBothSyntaxes) {
  Flags flags;
  flags.define("n", "1", "count").define("name", "x", "label");
  const char* argv[] = {"prog", "--n=5", "--name", "hello"};
  flags.parse(4, argv);
  EXPECT_EQ(flags.get_int("n"), 5);
  EXPECT_EQ(flags.get("name"), "hello");
}

TEST(Flags, DefaultsApply) {
  Flags flags;
  flags.define("p", "2,4,8", "procs");
  const char* argv[] = {"prog"};
  flags.parse(1, argv);
  const auto list = flags.get_int_list("p");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 8);
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags;
  flags.define("a", "1", "");
  const char* argv[] = {"prog", "--b=2"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(Flags, BadIntegerThrows) {
  Flags flags;
  flags.define("a", "1", "");
  const char* argv[] = {"prog", "--a=xyz"};
  flags.parse(2, argv);
  EXPECT_THROW(flags.get_int("a"), Error);
}

TEST(Flags, BoolParsing) {
  Flags flags;
  flags.define("on", "false", "");
  const char* argv[] = {"prog", "--on=true"};
  flags.parse(2, argv);
  EXPECT_TRUE(flags.get_bool("on"));
}

TEST(Json, EscapesQuotesAndBackslashes) {
  JsonValue v(std::string("say \"hi\" c:\\temp"));
  EXPECT_EQ(v.dump(), "\"say \\\"hi\\\" c:\\\\temp\"\n");
}

TEST(Json, EscapesNamedControlCharacters) {
  JsonValue v(std::string("a\nb\tc\rd\be\ff"));
  EXPECT_EQ(v.dump(), "\"a\\nb\\tc\\rd\\be\\ff\"\n");
}

TEST(Json, EscapesUnnamedControlCharactersAsUnicode) {
  std::string s = "x";
  s += '\x01';
  s += '\x1f';
  s.push_back('\0');  // embedded NUL must not truncate the output
  JsonValue v(s);
  EXPECT_EQ(v.dump(), "\"x\\u0001\\u001f\\u0000\"\n");
}

TEST(Json, HighBytesPassThroughUnharmed) {
  // UTF-8 payload bytes (>= 0x80) must not be mangled into \uffXX by
  // signed-char promotion — they pass through verbatim.
  const std::string snowman = "\xe2\x98\x83";
  JsonValue v(snowman);
  EXPECT_EQ(v.dump(), "\"" + snowman + "\"\n");
}

TEST(Json, AdversarialKeyAndValueRoundTripStructurally) {
  // An object whose key and value both carry every escape class at once:
  // the dump must stay balanced and contain no raw control bytes.
  JsonValue root = JsonValue::object();
  std::string nasty = "\"\\\n\r\t\b\f";
  nasty += '\x02';
  nasty += "\xc3\xa9";  // é
  root[nasty] = nasty;
  const std::string out = root.dump();
  for (const char c : out) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte leaked into output";
  }
  EXPECT_NE(out.find("\\u0002"), std::string::npos);
  EXPECT_NE(out.find("\\\""), std::string::npos);
  EXPECT_NE(out.find("\xc3\xa9"), std::string::npos);
}

TEST(Json, InfAndNanBecomeNull) {
  JsonValue arr = JsonValue::array();
  arr.push_back(std::numeric_limits<double>::infinity());
  arr.push_back(std::numeric_limits<double>::quiet_NaN());
  const std::string out = arr.dump();
  EXPECT_EQ(out.find("inf"), std::string::npos);
  EXPECT_EQ(out.find("nan"), std::string::npos);
  EXPECT_NE(out.find("null"), std::string::npos);
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Json, EmptyObjectAndArrayDumpCompact) {
  EXPECT_EQ(JsonValue::object().dump(), "{}\n");
  EXPECT_EQ(JsonValue::array().dump(), "[]\n");
  // Empty containers nested in a parent stay compact too.
  JsonValue doc = JsonValue::object();
  doc["runs"] = JsonValue::array();
  doc["meta"] = JsonValue::object();
  const std::string out = doc.dump();
  EXPECT_NE(out.find("\"runs\": []"), std::string::npos);
  EXPECT_NE(out.find("\"meta\": {}"), std::string::npos);
}

TEST(Stopwatch, NowNsIsMonotonic) {
  std::int64_t prev = now_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t = now_ns();
    ASSERT_GE(t, prev);
    prev = t;
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::int64_t spin = now_ns();
  while (now_ns() - spin < 1'000'000) {
  }
  EXPECT_GE(sw.nanos(), 1'000'000);
  EXPECT_GT(sw.millis(), 0.9);
  EXPECT_GT(sw.seconds(), 0.0009);
}

TEST(Log, LevelFromEnvParsesNamesAndNumbers) {
  EXPECT_EQ(log_level_from_env("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_env("INFO"), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_env("Warning"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_env("warn"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_env("error"), LogLevel::kError);
  EXPECT_EQ(log_level_from_env("0"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_env("3"), LogLevel::kError);
}

TEST(Log, LevelFromEnvFallsBackOnGarbage) {
  EXPECT_EQ(log_level_from_env(nullptr), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_env("", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(log_level_from_env("loud", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_env("7"), LogLevel::kWarn);
}

TEST(Log, ThreadProcTagIsPerThread) {
  set_log_thread_proc(3);
  EXPECT_EQ(log_thread_proc(), 3);
  set_log_thread_proc(-1);
  EXPECT_EQ(log_thread_proc(), -1);
}

std::span<const std::byte> bytes_of(std::string_view s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_u64());
  return out;
}

TEST(Crc32c, KnownVectors) {
  std::array<std::byte, 32> zeros{};
  std::array<std::byte, 32> ones;
  std::array<std::byte, 32> ascending;
  std::array<std::byte, 32> descending;
  for (std::size_t i = 0; i < 32; ++i) {
    ones[i] = std::byte{0xFF};
    ascending[i] = static_cast<std::byte>(i);
    descending[i] = static_cast<std::byte>(31 - i);
  }
  // The check value of the CRC catalogue, then RFC 3720 section B.4.
  for (auto* crc : {&crc32c, &detail::crc32c_portable}) {
    EXPECT_EQ((*crc)(bytes_of("123456789"), 0), 0xE3069283u);
    EXPECT_EQ((*crc)(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ((*crc)(ones, 0), 0x62A8AB43u);
    EXPECT_EQ((*crc)(ascending, 0), 0x46DD794Eu);
    EXPECT_EQ((*crc)(descending, 0), 0x113FDB5Cu);
    EXPECT_EQ((*crc)({}, 0), 0u);
  }
}

// The dispatched path against the table oracle, bit for bit: every length
// up to 1 KB, both sides of each three-stream round, and seeded random
// (length, start misalignment, seed) cases up to three rounds.
TEST(Crc32c, DispatchedPathMatchesPortableOracle) {
  constexpr std::size_t kLong = 3 * 4096;
  constexpr std::size_t kMax = 3 * kLong + 64;
  Rng rng(0xC3C32u);
  const std::vector<std::byte> buf = random_bytes(rng, 64 + kMax);
  auto check = [&](std::size_t len, std::size_t misalign, std::uint32_t seed) {
    const std::span<const std::byte> b(buf.data() + misalign, len);
    ASSERT_EQ(crc32c(b, seed), detail::crc32c_portable(b, seed))
        << "len " << len << " misalign " << misalign << " seed " << seed;
  };
  for (std::size_t len = 0; len <= 1024; ++len) {
    check(len, len % 64, static_cast<std::uint32_t>(rng.next_u64()));
  }
  for (std::size_t rounds = 1; rounds <= 3; ++rounds) {
    for (std::size_t d = 0; d < 24; ++d) {
      check(rounds * kLong + d - 12, d % 64, 0);
      check(rounds * kLong + kLong / 2 + d - 12, 63 - d, 0xFFFFFFFFu);
    }
  }
  for (int i = 0; i < 2000; ++i) {
    // Every tail length 0-7 and every misalignment 0-63 appears.
    const std::size_t len = rng.next_below(kMax / 8) * 8 + i % 8;
    check(len, (i * 7) % 64, static_cast<std::uint32_t>(rng.next_u64()));
  }
}

TEST(Crc32c, ChainsAcrossRandomSplits) {
  Rng rng(7);
  const std::vector<std::byte> buf = random_bytes(rng, 3 * 3 * 4096 + 100);
  const std::span<const std::byte> all(buf);
  for (int i = 0; i < 500; ++i) {
    const std::size_t len = rng.next_below(all.size() + 1);
    const std::size_t cut = rng.next_below(len + 1);
    const std::span<const std::byte> b = all.first(len);
    const std::uint32_t whole = crc32c(b);
    ASSERT_EQ(whole, crc32c(b.subspan(cut), crc32c(b.first(cut))))
        << "len " << len << " cut " << cut;
    ASSERT_EQ(whole, detail::crc32c_portable(b.subspan(cut),
                                             detail::crc32c_portable(
                                                 b.first(cut))));
  }
}

TEST(Crc32c, U64FoldEqualsByteDigest) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t value = rng.next_u64();
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    std::array<std::byte, 8> bytes;
    std::memcpy(bytes.data(), &value, 8);
    ASSERT_EQ(crc32c_u64(value, seed), detail::crc32c_portable(bytes, seed));
  }
}

// Address packages are folded field by field; their digest must not depend
// on which path computed it, so a package checked by another build verifies.
TEST(Crc32c, AddrPackageDigestMatchesPortableFold) {
  rt::AddrPackage pkg;
  pkg.reader = 3;
  pkg.seq = 42;
  pkg.entries = {{7, 0}, {19, 4096}, {-1, 1 << 20}};
  std::uint32_t oracle = 0;
  auto fold = [&](std::uint64_t value) {
    std::array<std::byte, 8> bytes;
    std::memcpy(bytes.data(), &value, 8);
    oracle = detail::crc32c_portable(bytes, oracle);
  };
  fold(static_cast<std::uint64_t>(pkg.reader));
  fold(pkg.seq);
  for (const auto& [d, offset] : pkg.entries) {
    fold(static_cast<std::uint64_t>(d));
    fold(static_cast<std::uint64_t>(offset));
  }
  EXPECT_EQ(pkg.checksum(), oracle);
  EXPECT_EQ(pkg.checksum(), 0xF126815Bu);
}

// Rank threads make their first checksum call at once; each must see the
// dispatch already settled and get the same digest.
TEST(Crc32c, ConcurrentFirstCallsAgree) {
  constexpr int kThreads = 8;
  Rng rng(99);
  const std::vector<std::byte> buf = random_bytes(rng, 3 * 3 * 4096 + 777);
  const std::uint32_t expected = detail::crc32c_portable(buf);
  std::array<std::uint32_t, kThreads> got{};
  std::array<std::uint32_t, kThreads> folded{};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = crc32c(buf);
      folded[t] = crc32c_u64(0x0123456789ABCDEFull, got[t]);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected);
    EXPECT_EQ(folded[t], folded[0]);
  }
}

}  // namespace
}  // namespace rapid
