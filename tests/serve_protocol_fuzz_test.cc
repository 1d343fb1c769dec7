// Hostile-input tests for the query-serving line protocol
// (serve::ServeLineProtocol). The contract: any byte stream -- oversized
// lines, NUL and control bytes, truncated commands, pipelined garbage --
// yields one well-formed response line per request (OK or ERR), never a
// crash, never unbounded buffering, and never a desynced session (a
// valid request after arbitrary garbage still gets its correct answer).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::serve {
namespace {

/// A broker over a small published state; shared by every session.
class ServeProtocolFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::EngineConfig options;
    options.umicro.num_micro_clusters = 16;
    options.snapshot.snapshot_every = 64;
    engine_ = std::make_unique<core::UMicroEngine>(2, options);
    replica_ = std::make_unique<SnapshotReadReplica>(options.snapshot, 0.0);
    engine_->AttachSnapshotSink(replica_.get());
    util::Rng rng(11);
    for (std::size_t i = 1; i <= 256; ++i) {
      engine_->Process(stream::UncertainPoint(
          {rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)},
          {rng.Uniform(0.0, 0.2), rng.Uniform(0.0, 0.2)},
          static_cast<double>(i)));
    }
    engine_->Flush();
    QueryBrokerOptions broker_options;
    broker_options.num_threads = 2;
    broker_ = std::make_unique<QueryBroker>(replica_.get(), broker_options,
                                            &engine_->metrics());
  }

  std::string Serve(const std::string& input, ServerOptions options = {}) {
    std::istringstream in(input);
    std::ostringstream out;
    ServeLineProtocol(*broker_, in, out, options);
    return out.str();
  }

  std::unique_ptr<core::UMicroEngine> engine_;
  std::unique_ptr<SnapshotReadReplica> replica_;
  std::unique_ptr<QueryBroker> broker_;
};

/// Every response line must be one of the protocol's shapes.
void ExpectWellFormed(const std::string& output) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    const bool ok = line.rfind("OK ", 0) == 0 || line.rfind("ERR ", 0) == 0 ||
                    line.rfind("C ", 0) == 0 || line == "END";
    EXPECT_TRUE(ok) << "unexpected response line: " << line;
    for (const char byte : line) {
      EXPECT_TRUE(static_cast<unsigned char>(byte) >= 0x20)
          << "control byte in response";
    }
  }
}

/// Non-finite numbers parse as doubles but are no horizon, k or
/// coordinate, so they get ERR lines too. The replica holds retained
/// history, so a NaN horizon that got through would reach frame
/// selection and horizon subtraction.
TEST_F(ServeProtocolFuzzTest, TruncatedCommandsGetErrorLines) {
  ASSERT_FALSE(replica_->Acquire()->history.empty());
  const std::string output = Serve(
      "CLUSTER\nNEAREST\nCLUSTER abc\nCLUSTER 100 0\nANOMALY\n"
      "CLUSTER nan 3\nCLUSTER inf 3\nCLUSTER 100 nan\nCLUSTER 100 1e300\n"
      "NEAREST nan 0\nANOMALY 0 inf\nSTATS\nQUIT\n");
  ExpectWellFormed(output);
  std::istringstream lines(output);
  std::string line;
  std::size_t errors = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("ERR ", 0) == 0) ++errors;
  }
  EXPECT_EQ(errors, 11u) << output;
  EXPECT_NE(output.find("OK STATS"), std::string::npos);
  EXPECT_NE(output.find("OK BYE"), std::string::npos);
}

/// A token out of double range is no number: an overflowing or
/// zero-underflowing horizon gets the horizon error, and so does a
/// coordinate. A subnormal coordinate is a number and is answered.
TEST_F(ServeProtocolFuzzTest, OutOfRangeNumbersAreRejectedSubnormalsServed) {
  const std::string output = Serve(
      "CLUSTER 1e400 3\nCLUSTER 1e-400 3\nNEAREST 1e-400 0\n"
      "NEAREST 4.9406564584124654e-324 2.2250738585072009e-308\nQUIT\n");
  ExpectWellFormed(output);
  std::istringstream lines(output);
  std::string line;
  std::vector<std::string> answers;
  while (std::getline(lines, line)) answers.push_back(line);
  ASSERT_EQ(answers.size(), 5u) << output;
  EXPECT_EQ(answers[0], "ERR horizon must be a positive number");
  EXPECT_EQ(answers[1], "ERR horizon must be a positive number");
  EXPECT_EQ(answers[2], "ERR malformed coordinate: 1e-400");
  EXPECT_EQ(answers[3].rfind("OK NEAREST ", 0), 0u) << answers[3];
  EXPECT_EQ(answers[4], "OK BYE");
}

/// QueryBroker::Execute callers bypass the parser; the broker itself
/// refuses a horizon that is not a finite positive number.
TEST_F(ServeProtocolFuzzTest, ExecuteRejectsNonFiniteHorizons) {
  for (const double horizon : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    QueryRequest request;
    request.kind = QueryRequest::Kind::kClusterRecent;
    request.horizon = horizon;
    const QueryResponse response = broker_->Execute(request);
    EXPECT_FALSE(response.ok) << horizon;
    EXPECT_EQ(response.error, "horizon must be positive");
    EXPECT_FALSE(response.clustering.has_value());
  }
}

TEST_F(ServeProtocolFuzzTest, NulAndControlBytesAreSanitized) {
  std::string input = "STATS\n";
  input += std::string("BO\0GUS arg\n", 11);   // NUL inside the verb
  input += "\x01\x02\x03\n";                   // control-byte verb
  input += "NEAREST 0 \x7f\xff\n";             // control bytes in a number
  input += "STATS\nQUIT\n";
  const std::string output = Serve(input);
  ExpectWellFormed(output);
  // The session survived the garbage: both STATS answered.
  std::size_t stats = 0;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("OK STATS", 0) == 0) ++stats;
  }
  EXPECT_EQ(stats, 2u);
}

TEST_F(ServeProtocolFuzzTest, OversizedLineIsRejectedNotBuffered) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  std::string input = "STATS\nSTATS";
  input.append(1 << 16, 'A');  // one 64 KiB line
  input += "\nSTATS\nQUIT\n";
  const std::string output = Serve(input, options);
  ExpectWellFormed(output);
  EXPECT_NE(output.find("ERR request line too long"), std::string::npos);
  std::size_t stats = 0;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("OK STATS", 0) == 0) ++stats;
  }
  EXPECT_EQ(stats, 2u);  // the giant line consumed exactly one request
}

TEST_F(ServeProtocolFuzzTest, CrlfLinesParseAsIfBareLf) {
  const std::string output = Serve("STATS\r\nQUIT\r\n");
  ExpectWellFormed(output);
  EXPECT_NE(output.find("OK STATS"), std::string::npos);
  EXPECT_NE(output.find("OK BYE"), std::string::npos);
}

TEST_F(ServeProtocolFuzzTest, HugeTokenEchoIsCapped) {
  std::string input(4096, 'Z');
  input += "\nQUIT\n";
  const std::string output = Serve(input);
  ExpectWellFormed(output);
  std::istringstream lines(output);
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(lines, line)));
  EXPECT_EQ(line.rfind("ERR ", 0), 0u);
  EXPECT_LT(line.size(), 128u);  // echo capped, not 4 KiB reflected
}

TEST_F(ServeProtocolFuzzTest, RandomByteSoupNeverCrashesOrDesyncs) {
  util::Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    std::string input;
    const std::size_t lines = 1 + rng.NextBounded(20);
    for (std::size_t i = 0; i < lines; ++i) {
      const std::size_t length = rng.NextBounded(200);
      for (std::size_t j = 0; j < length; ++j) {
        input.push_back(static_cast<char>(rng.NextBounded(256)));
      }
      input.push_back('\n');
    }
    // A known-good request after the soup must still be answered.
    input += "STATS\nQUIT\n";
    const std::string output = Serve(input);
    EXPECT_NE(output.find("OK STATS"), std::string::npos)
        << "desynced on round " << round;
    EXPECT_NE(output.find("OK BYE"), std::string::npos);
  }
}

TEST_F(ServeProtocolFuzzTest, PipelinedMixOfValidAndGarbageStaysOrdered) {
  util::Rng rng(99);
  std::string input;
  std::vector<bool> valid;
  for (int i = 0; i < 40; ++i) {
    if (rng.NextBounded(2) == 0) {
      input += "STATS\n";
      valid.push_back(true);
    } else {
      input += "GARBAGE line " + std::to_string(i) + "\n";
      valid.push_back(false);
    }
  }
  input += "QUIT\n";
  const std::string output = Serve(input);
  ExpectWellFormed(output);
  // Responses come back in request order: the i-th response line is OK
  // exactly when the i-th request was valid.
  std::istringstream lines(output);
  std::string line;
  std::size_t index = 0;
  while (std::getline(lines, line) && index < valid.size()) {
    if (line == "OK BYE") break;
    EXPECT_EQ(line.rfind("OK STATS", 0) == 0, valid[index])
        << "response out of order at index " << index;
    ++index;
  }
  EXPECT_EQ(index, valid.size());
}

}  // namespace
}  // namespace umicro::serve
