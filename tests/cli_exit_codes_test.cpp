// The exit-code contract (support/exit_codes.hpp), enforced on the real
// binaries: 0 = ran and the checked thing is good, 1 = ran and found
// findings (bad trace, failed guard, rejected/failed runs), 2 = the tool
// itself could not run (bad flags, unreadable input). Scripts and CI lanes
// branch on this distinction, so it gets a test that spawns the actual
// executables rather than trusting each main()'s bookkeeping.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "rapid/support/exit_codes.hpp"
#include "rapid/support/str.hpp"

namespace rapid {
namespace {

/// Build-tree root (the directory holding tests/, src/, bench/), resolved
/// from this test binary's own path.
std::string build_root() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string dir(buf);
  const std::size_t slash = dir.rfind('/');
  if (slash == std::string::npos) return {};
  dir.resize(slash);
  return dir + "/..";
}

std::string binary(const std::string& rel) {
  const std::string path = build_root() + "/" + rel;
  return ::access(path.c_str(), X_OK) == 0 ? path : std::string();
}

/// Runs the command with stderr discarded and stdout sent to `out`; returns
/// the exit code, or -1 if the process did not exit normally.
int run(const std::string& cmd, const std::string& out = "/dev/null") {
  const int status =
      std::system((cmd + " >" + out + " 2>/dev/null").c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

const std::vector<std::string> kAllClis = {
    "src/rapid/verify/rapid_check", "src/rapid/obs/rapid_trace",
    "src/rapid/obs/rapid_top",      "src/rapid/svc/rapid_serve",
    "bench/bench_service",
};

TEST(CliExitCodes, HelpExitsOkOnEveryBinary) {
  int tested = 0;
  for (const std::string& rel : kAllClis) {
    const std::string bin = binary(rel);
    if (bin.empty()) continue;  // not built in this tree
    EXPECT_EQ(run(bin + " --help"), kExitOk) << rel;
    ++tested;
  }
  ASSERT_GT(tested, 0) << "no CLI binaries found under " << build_root();
}

TEST(CliExitCodes, UnknownFlagIsInfraErrorOnEveryBinary) {
  int tested = 0;
  for (const std::string& rel : kAllClis) {
    const std::string bin = binary(rel);
    if (bin.empty()) continue;
    // A flag typo means the tool never ran: infrastructure error, not
    // findings — a CI lane must not mistake it for a clean check.
    EXPECT_EQ(run(bin + " --no_such_flag=1"), kExitInfraError) << rel;
    ++tested;
  }
  ASSERT_GT(tested, 0) << "no CLI binaries found under " << build_root();
}

TEST(CliExitCodes, CheckStaticStageAuditsStaticOnlyApps) {
  const std::string bin = binary("src/rapid/verify/rapid_check");
  if (bin.empty()) GTEST_SKIP() << "rapid_check not built";
  // nbody has no traced runs: it gets the plan audit alone, whose
  // MBX-CROSS/REC-CROSS advisories never fail the check.
  EXPECT_EQ(run(bin + " --workload=nbody --stages=static"), kExitOk);
  EXPECT_EQ(run(bin + " --workload=nbody"), kExitOk);
  // An unknown workload or stage, or a selection that checks nothing,
  // is not a clean check.
  EXPECT_EQ(run(bin + " --workload=nosuch"), kExitInfraError);
  EXPECT_EQ(run(bin + " --stages=static,nosuch"), kExitInfraError);
  EXPECT_EQ(run(bin + " --workload=nbody --stages=traced"), kExitInfraError);
}

TEST(CliExitCodes, ServeDistinguishesFindingsFromInfraError) {
  const std::string bin = binary("src/rapid/svc/rapid_serve");
  if (bin.empty()) GTEST_SKIP() << "rapid_serve not built";
  const std::string dir = ::testing::TempDir();

  // All runs complete -> ok.
  const std::string good = dir + "/serve_good.runs";
  std::ofstream(good) << "grid:rows=6,cols=6,procs=4\n";
  EXPECT_EQ(run(bin + " --runs=" + good), kExitOk);

  // A run the service rejects is a finding about the workload, not a tool
  // failure: the report is still produced, the exit code says "look". That
  // holds for malformed spec numbers too (a non-number, trailing
  // characters, out of range, a repeated key): each bad line is rejected on
  // its own and the good lines around it still complete.
  const std::string bad = dir + "/serve_bad.runs";
  std::ofstream(bad) << "grid:rows=6,cols=6,procs=4\n"
                     << "nosuch:app=1\n"
                     << "grid:rows=abc,cols=8,procs=2\n"
                     << "grid:rows=8x,cols=8,procs=2\n"
                     << "grid:rows=99999999999,cols=8,procs=2\n"
                     << "grid:rows=8,cols=8,rows=9,procs=2\n"
                     << "grid:rows=4,cols=4,procs=2\n";
  const std::string records = dir + "/serve_bad.out";
  EXPECT_EQ(run(bin + " --runs=" + bad, records), kExitFindings);
  std::ifstream in(records);
  const std::string out((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto count = [&out](const std::string& needle) {
    int n = 0;
    for (std::size_t at = out.find(needle); at != std::string::npos;
         at = out.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"state\": \"completed\""), 2) << out;
  EXPECT_EQ(count("\"state\": \"rejected\""), 5) << out;

  // An unreadable runs file means the service never saw the work.
  EXPECT_EQ(run(bin + " --runs=" + dir + "/serve_missing.runs"),
            kExitInfraError);
}

TEST(CliExitCodes, ServeRejectsMalformedRequestNumbersBeforeRunning) {
  const std::string bin = binary("src/rapid/svc/rapid_serve");
  if (bin.empty()) GTEST_SKIP() << "rapid_serve not built";
  const std::string dir = ::testing::TempDir();
  // Request-line numbers parse as whole tokens: a trailing character, a
  // word, or an out-of-range value is an infrastructure error that names
  // the line and the key, and so is a key the grammar does not have. No
  // run of the batch is submitted — not even the good line before it.
  const struct {
    const char* tokens;
    const char* names;
  } cases[] = {
      {"capacity=4096x", "run line 2: capacity=4096x is not a number"},
      {"priority=high", "run line 2: priority=high is not a number"},
      {"priority=99999999999", "run line 2: priority=99999999999 is out of "
                               "range"},
      {"active=1.0", "run line 2: active=1.0 is not a number"},
      {"kernel=1", "run line 2: unknown key \"kernel\""},
  };
  for (const auto& c : cases) {
    const std::string runs = dir + "/serve_bad_number.runs";
    const std::string out = dir + "/serve_bad_number.out";
    const std::string err = dir + "/serve_bad_number.err";
    std::ofstream(runs) << "grid:rows=6,cols=6,procs=4\n"
                        << "grid:rows=6,cols=6,procs=4 " << c.tokens << "\n";
    const int status = std::system(
        (bin + " --runs=" + runs + " >" + out + " 2>" + err).c_str());
    ASSERT_TRUE(status != -1 && WIFEXITED(status)) << c.tokens;
    EXPECT_EQ(WEXITSTATUS(status), kExitInfraError) << c.tokens;
    std::ifstream err_in(err);
    const std::string err_text((std::istreambuf_iterator<char>(err_in)),
                               std::istreambuf_iterator<char>());
    EXPECT_NE(err_text.find(c.names), std::string::npos) << err_text;
    std::ifstream out_in(out);
    const std::string out_text((std::istreambuf_iterator<char>(out_in)),
                               std::istreambuf_iterator<char>());
    EXPECT_EQ(out_text, "") << c.tokens;
  }
}

TEST(CliExitCodes, ServeMetricsWriteFailureDegradesNotDies) {
  const std::string bin = binary("src/rapid/svc/rapid_serve");
  if (bin.empty()) GTEST_SKIP() << "rapid_serve not built";
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/serve_metrics_good.runs";
  std::ofstream(good) << "grid:rows=6,cols=6,procs=4\n";

  // An unwritable metrics path disables the sampler with a warning; the
  // service itself still runs every workload and exits by the normal
  // contract — telemetry loss must never take the service down.
  EXPECT_EQ(run(bin + " --runs=" + good +
                " --metrics-file=/nonexistent_rapid_dir/metrics.prom"),
            kExitOk);

  // And a writable one produces the snapshot pair alongside the same exit.
  const std::string prom = dir + "/serve_metrics.prom";
  EXPECT_EQ(run(bin + " --runs=" + good + " --metrics-file=" + prom),
            kExitOk);
  EXPECT_TRUE(std::ifstream(prom).good());
  EXPECT_TRUE(std::ifstream(prom + ".json").good());
}

TEST(CliExitCodes, TopDistinguishesFindingsFromInfraError) {
  const std::string top = binary("src/rapid/obs/rapid_top");
  const std::string serve = binary("src/rapid/svc/rapid_serve");
  if (top.empty()) GTEST_SKIP() << "rapid_top not built";
  const std::string dir = ::testing::TempDir();

  // Missing --file / unreadable snapshot: the tool never rendered.
  EXPECT_EQ(run(top), kExitInfraError);
  EXPECT_EQ(run(top + " --file=" + dir + "/top_missing.prom --frames=1"),
            kExitInfraError);

  // A file that is not exposition text is a finding about the snapshot.
  const std::string bad = dir + "/top_bad.prom";
  std::ofstream(bad) << "this is { not prometheus\n";
  EXPECT_EQ(run(top + " --file=" + bad + " --frames=1"), kExitFindings);

  // A real snapshot from rapid_serve renders clean.
  if (serve.empty()) return;
  const std::string runs = dir + "/top_runs.runs";
  std::ofstream(runs) << "grid:rows=6,cols=6,procs=4\n";
  const std::string prom = dir + "/top_live.prom";
  ASSERT_EQ(run(serve + " --runs=" + runs + " --metrics-file=" + prom),
            kExitOk);
  EXPECT_EQ(run(top + " --file=" + prom + " --frames=1"), kExitOk);
}

}  // namespace
}  // namespace rapid
