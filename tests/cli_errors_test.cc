// Error-path tests for the umicro_cli binary: every misuse prints one
// diagnostic line on stderr and exits non-zero BEFORE any clustering
// work starts. Usage errors (bad flags, bad combinations) exit 2;
// environment errors (missing input, unwritable destinations) exit 1.
// The one misuse that is not fatal is an unrecognized UMICRO_KERNEL
// value: it is named on one stderr line and the run goes on.
//
// These run the real binary (path injected by CMake as UMICRO_CLI_PATH)
// so the exit status the shell sees is exactly what is asserted. One
// wiring check at the end asserts a flag actually reaches the served
// answers.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include <gtest/gtest.h>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

std::string ReadAndRemove(const std::string& path) {
  std::ostringstream buffer;
  buffer << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

/// Runs the CLI with `stdin_text` as its standard input and `env`
/// (`NAME=value` words) added to its environment.
CliResult RunCli(const std::string& args, const std::string& stdin_text = "",
                 const std::string& env = "") {
  const std::string stdin_path = testing::TempDir() + "/cli_stdin.txt";
  const std::string stdout_path = testing::TempDir() + "/cli_stdout.txt";
  const std::string stderr_path = testing::TempDir() + "/cli_stderr.txt";
  std::ofstream(stdin_path) << stdin_text;
  const std::string command = env + " " + UMICRO_CLI_PATH + " " + args +
                              " <" + stdin_path + " >" + stdout_path +
                              " 2>" + stderr_path;
  const int status = std::system(command.c_str());
  CliResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.stdout_text = ReadAndRemove(stdout_path);
  result.stderr_text = ReadAndRemove(stderr_path);
  std::remove(stdin_path.c_str());
  return result;
}

std::size_t LineCount(const std::string& text) {
  std::size_t lines = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

/// The common shape of a usage error: exit 2, a diagnostic mentioning
/// the offending flag, exactly one line of it.
void ExpectUsageError(const std::string& args, const std::string& needle) {
  SCOPED_TRACE(args);
  const CliResult result = RunCli(args);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find(needle), std::string::npos)
      << "stderr was: " << result.stderr_text;
  EXPECT_EQ(LineCount(result.stderr_text), 1u)
      << "stderr was: " << result.stderr_text;
}

void ExpectEnvironmentError(const std::string& args,
                            const std::string& needle) {
  SCOPED_TRACE(args);
  const CliResult result = RunCli(args);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find(needle), std::string::npos)
      << "stderr was: " << result.stderr_text;
  EXPECT_EQ(LineCount(result.stderr_text), 1u)
      << "stderr was: " << result.stderr_text;
}

TEST(CliErrorsTest, MissingInputSelectionPrintsUsage) {
  const CliResult result = RunCli("--nmicro=10");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find(
                "exactly one of --input and --synthetic"),
            std::string::npos);
}

TEST(CliErrorsTest, UnknownFlagPrintsUsage) {
  const CliResult result = RunCli("--synthetic=syndrift --no-such-flag");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(CliErrorsTest, UnknownSyntheticWorkload) {
  ExpectUsageError("--synthetic=bogus --points=100",
                   "unknown synthetic workload");
}

TEST(CliErrorsTest, RecoverRequiresCheckpointDir) {
  ExpectUsageError("--synthetic=syndrift --points=100 --recover",
                   "--recover requires --checkpoint-dir");
}

TEST(CliErrorsTest, CheckpointCadenceRequiresCheckpointDir) {
  ExpectUsageError(
      "--synthetic=syndrift --points=100 --checkpoint-every=50",
      "require --checkpoint-dir");
}

TEST(CliErrorsTest, CheckpointingRefusesBaselineAlgorithms) {
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--algorithm=clustream --checkpoint-dir=" +
                       testing::TempDir() + "/cli_ckpt",
                   "--checkpoint-dir requires --algorithm=umicro");
}

TEST(CliErrorsTest, DegradeRequiresThreads) {
  ExpectUsageError("--synthetic=syndrift --points=100 --degrade",
                   "--degrade requires --threads");
}

TEST(CliErrorsTest, QuarantineOutRequiresPolicy) {
  ExpectUsageError("--synthetic=syndrift --points=100 --quarantine-out=" +
                       testing::TempDir() + "/cli_quarantine.csv",
                   "--quarantine-out requires --bad-record-policy");
}

TEST(CliErrorsTest, InjectFaultsRequiresPolicy) {
  ExpectUsageError(
      "--synthetic=syndrift --points=100 --inject-faults=corrupt=0.1",
      "--inject-faults requires --bad-record-policy");
}

TEST(CliErrorsTest, UnknownBadRecordPolicy) {
  ExpectUsageError(
      "--synthetic=syndrift --points=100 --bad-record-policy=explode",
      "unknown --bad-record-policy");
}

TEST(CliErrorsTest, MalformedFaultSpec) {
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--bad-record-policy=repair "
                   "--inject-faults=corrupt=2.0",
                   "malformed --inject-faults spec");
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--bad-record-policy=repair "
                   "--inject-faults=frobnicate=0.1",
                   "malformed --inject-faults spec");
}

TEST(CliErrorsTest, StandbyRequiresLeafRole) {
  ExpectUsageError("--role=agg --listen=127.0.0.1:0 --dims=4 "
                   "--standby=127.0.0.1:9100",
                   "--standby requires --role=leaf");
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--standby=127.0.0.1:9100",
                   "--standby requires --role=leaf");
}

TEST(CliErrorsTest, LeafOnlyShardingFlagsRejectOtherRoles) {
  ExpectUsageError("--role=agg --listen=127.0.0.1:0 --dims=4 "
                   "--delta-every=100",
                   "require --role=leaf");
  ExpectUsageError("--role=query --connect=127.0.0.1:9100 --stride=2",
                   "require --role=leaf");
  ExpectUsageError("--synthetic=syndrift --points=100 --offset=1",
                   "require --role=leaf");
}

TEST(CliErrorsTest, StartAsStandbyRequiresAggRole) {
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 --start-as-standby",
                   "--start-as-standby requires --role=agg");
}

TEST(CliErrorsTest, StaleAfterRequiresAggRole) {
  ExpectUsageError("--role=query --connect=127.0.0.1:9100 "
                   "--stale-after=2",
                   "--stale-after requires --role=agg");
}

TEST(CliErrorsTest, NegativeStaleAfter) {
  ExpectUsageError("--role=agg --listen=127.0.0.1:0 --dims=4 "
                   "--stale-after=-1",
                   "--stale-after must be >= 0");
}

TEST(CliErrorsTest, NetChaosRequiresDistRole) {
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--net-chaos=drop=0.1",
                   "--net-chaos requires --role=leaf or --role=agg");
  ExpectUsageError("--role=query --connect=127.0.0.1:9100 "
                   "--net-chaos=drop=0.1",
                   "--net-chaos requires --role=leaf or --role=agg");
}

TEST(CliErrorsTest, MalformedNetChaosSpec) {
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 "
                   "--net-chaos=frob=1",
                   "malformed --net-chaos spec");
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 "
                   "--net-chaos=drop=1.5",
                   "malformed --net-chaos spec");
}

TEST(CliErrorsTest, MalformedStandbyList) {
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 "
                   "--standby=nonsense",
                   "malformed --standby list");
  ExpectUsageError("--role=leaf --connect=127.0.0.1:9100 "
                   "--synthetic=syndrift --points=100 "
                   "--standby=127.0.0.1:9100,,127.0.0.1:9101",
                   "malformed --standby list");
}

TEST(CliErrorsTest, UnknownSnapshotStoreMode) {
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--snapshot-store=bogus",
                   "unknown --snapshot-store");
}

TEST(CliErrorsTest, RetiredColdTierInputsAreRefused) {
  // The store keeps only the lossless full and delta encodings: the old
  // tiered mode is an unknown value, and its two flags unknown flags
  // (exit 2 with the usage text).
  ExpectUsageError("--synthetic=syndrift --points=100 "
                   "--snapshot-store=tiered",
                   "unknown --snapshot-store: tiered");
  for (const std::string flag :
       {"--snapshot-budget-mb=8", "--snapshot-spill-dir=spill"}) {
    SCOPED_TRACE(flag);
    const CliResult result =
        RunCli("--synthetic=syndrift --points=100 " + flag);
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.stderr_text.find("unknown argument: " + flag),
              std::string::npos)
        << "stderr was: " << result.stderr_text;
    EXPECT_NE(result.stderr_text.find("usage: umicro_cli"), std::string::npos)
        << "stderr was: " << result.stderr_text;
  }
}

TEST(CliErrorsTest, MissingInputFile) {
  ExpectEnvironmentError("--input=/no/such/file.csv",
                         "input file not found");
}

TEST(CliErrorsTest, UnwritableMetricsOut) {
  ExpectEnvironmentError("--synthetic=syndrift --points=100 "
                         "--metrics-out=/no/such/dir/metrics",
                         "--metrics-out is not writable");
}

TEST(CliErrorsTest, UnwritableCentroidsOut) {
  ExpectEnvironmentError("--synthetic=syndrift --points=100 "
                         "--centroids-out=/no/such/dir/centroids.csv",
                         "--centroids-out is not writable");
}

TEST(CliErrorsTest, UnusableCheckpointDir) {
  // A checkpoint "directory" nested under a regular file can never be
  // created.
  const std::string blocker = testing::TempDir() + "/cli_blocker_file";
  std::ofstream(blocker) << "x";
  ExpectEnvironmentError("--synthetic=syndrift --points=100 "
                         "--checkpoint-dir=" +
                             blocker + "/nested",
                         "--checkpoint-dir is not usable");
  std::remove(blocker.c_str());
}

// ---- Typed flag values -------------------------------------------------
// Every flag value is parsed and range-checked by the flag table before
// any dataset is loaded or generated.

TEST(CliErrorsTest, MalformedCountsAreRejected) {
  ExpectUsageError("--synthetic=syndrift --points=abc", "--points must be");
  ExpectUsageError("--synthetic=syndrift --points=100 --snapshot-every=abc",
                   "--snapshot-every must be");
  ExpectUsageError("--synthetic=syndrift --points=100 --threads=2x",
                   "--threads must be");
}

TEST(CliErrorsTest, OutOfRangeNumbersAreRejected) {
  ExpectUsageError("--synthetic=syndrift --points=100 --nmicro=0",
                   "--nmicro must be");
  ExpectUsageError("--synthetic=syndrift --points=100 --nmicro=abc",
                   "--nmicro must be");
  ExpectUsageError("--synthetic=syndrift --points=100 --boundary=nan",
                   "--boundary must be > 0");
  ExpectUsageError("--synthetic=syndrift --points=100 --decay=-1",
                   "--decay must be >= 0");
  ExpectUsageError("--synthetic=syndrift --points=100 --threads=-1",
                   "--threads must be");
}

TEST(CliErrorsTest, UnknownEnumValuesFailBeforeGeneration) {
  // A long synthetic stream would take seconds to generate; the value
  // errors must fire first, so nothing reaches stdout.
  for (const std::string flag :
       {"--algorithm", "--backpressure", "--similarity", "--assign-index"}) {
    const std::string args =
        "--synthetic=syndrift --points=2000000 " + flag + "=bogus";
    ExpectUsageError(args, "unknown " + flag);
    EXPECT_EQ(RunCli(args).stdout_text, "") << args;
  }
}

TEST(CliErrorsTest, CoarseIndexKindIsUnknown) {
  // Only flat, kdtree and auto name an index; `coarse` is rejected like
  // any other unknown value.
  ExpectUsageError("--synthetic=syndrift --points=100 --similarity=distance "
                   "--assign-index=coarse",
                   "unknown --assign-index");
}

// ---- Environment ----------------------------------------------------------

TEST(CliErrorsTest, UnknownKernelTierWarnsAndKeepsHardwareTier) {
  // sse2 named a tier once; now it is unrecognized like any other value.
  const CliResult result =
      RunCli("--synthetic=syndrift --points=500", "", "UMICRO_KERNEL=sse2");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find(
                "UMICRO_KERNEL=sse2 is not one of scalar|avx2"),
            std::string::npos)
      << "stderr was: " << result.stderr_text;
  EXPECT_EQ(LineCount(result.stderr_text), 1u)
      << "stderr was: " << result.stderr_text;
}

// ---- Flag wiring ----------------------------------------------------------

/// The `boundary=` field of a standalone --serve ANOMALY answer.
double ServedAnomalyBoundary(const std::string& boundary_flag) {
  std::string probe = "ANOMALY";
  for (int i = 0; i < 20; ++i) probe += " 0";  // SynDrift has 20 dims
  const CliResult result =
      RunCli("--synthetic=syndrift --points=3000 --serve " + boundary_flag,
             probe + "\nQUIT\n");
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  const std::size_t at = result.stdout_text.find(" boundary=");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no ANOMALY answer in: " << result.stdout_text;
    return 0.0;
  }
  return std::strtod(result.stdout_text.c_str() + at + 10, nullptr);
}

TEST(CliWiringTest, BoundaryFlagReachesStandaloneAnomalyAnswers) {
  // The answer's boundary is t times the nearest cluster's radius. The
  // two runs cluster slightly differently, so compare with slack: a
  // halved t must roughly halve the boundary.
  const double paper_t = ServedAnomalyBoundary("--boundary=3");
  const double half_t = ServedAnomalyBoundary("--boundary=1.5");
  EXPECT_GT(paper_t, 0.0);
  EXPECT_LT(half_t, 0.75 * paper_t);
  EXPECT_GT(half_t, 0.25 * paper_t);
}

}  // namespace
