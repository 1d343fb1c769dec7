// Randomized corruption and hostile-input property tests for the state
// parsers. The contract under test is the one documented in
// io/state_io.h: every parser treats its input as hostile -- truncation,
// bit flips, random splices, and absurd counts yield std::nullopt, never
// a crash, CHECK failure, or unbounded allocation. For the checksummed
// "ucheckpoint 2" format the bar is higher: ANY single corrupted byte is
// detected and rejected.

#include "io/state_io.h"

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/snapshot.h"
#include "core/umicro.h"
#include "io/snapshot_io.h"
#include "stream/dataset.h"
#include "util/random.h"

namespace umicro::io {
namespace {

stream::Dataset RandomStream(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  stream::Dataset dataset(3);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.NextBounded(3));
    dataset.Add(stream::UncertainPoint(
        {cls * 5.0 + rng.Gaussian(0.0, 0.5), rng.Gaussian(0.0, 0.5),
         rng.Gaussian(0.0, 0.5)},
        {rng.Uniform(0.0, 0.3), rng.Uniform(0.0, 0.3),
         rng.Uniform(0.0, 0.3)},
        static_cast<double>(i), cls));
  }
  return dataset;
}

std::string UMicroText() {
  core::UMicroOptions options;
  options.num_micro_clusters = 15;
  core::UMicro algorithm(3, options);
  const stream::Dataset dataset = RandomStream(600, 11);
  for (const auto& point : dataset.points()) algorithm.Process(point);
  return UMicroStateToString(algorithm.ExportState());
}

std::string EngineText() {
  core::EngineConfig options;
  options.umicro.num_micro_clusters = 15;
  options.snapshot.snapshot_every = 128;
  core::UMicroEngine engine(3, options);
  const stream::Dataset dataset = RandomStream(600, 13);
  for (const auto& point : dataset.points()) engine.Process(point);
  return EngineStateToString(engine.ExportEngineState());
}

std::string FlipOneByte(std::string text, std::size_t offset,
                        util::Rng& rng) {
  // XOR with a nonzero mask: the byte always changes.
  text[offset] = static_cast<char>(
      static_cast<unsigned char>(text[offset]) ^
      static_cast<unsigned char>(1 + rng.NextBounded(255)));
  return text;
}

std::string SpliceJunk(std::string text, util::Rng& rng) {
  const std::size_t offset = rng.NextBounded(text.size());
  const std::size_t length = 1 + rng.NextBounded(32);
  std::string junk;
  for (std::size_t i = 0; i < length; ++i) {
    junk.push_back(static_cast<char>(rng.NextBounded(256)));
  }
  text.replace(offset, std::min(length, text.size() - offset), junk);
  return text;
}

/// Parsing must not crash; if the bytes happen to still parse (a digit
/// flipped into another digit, say), the result is simply accepted.
template <typename Parser>
void MustSurvive(const Parser& parse, const std::string& text) {
  (void)parse(text);
}

TEST(StateIoFuzzTest, UMicroParserSurvivesRandomCorruption) {
  const std::string clean = UMicroText();
  ASSERT_TRUE(ParseUMicroState(clean).has_value());
  util::Rng rng(101);
  const auto parse = [](const std::string& t) {
    return ParseUMicroState(t);
  };
  for (int i = 0; i < 200; ++i) {
    MustSurvive(parse, clean.substr(0, rng.NextBounded(clean.size())));
    MustSurvive(parse, FlipOneByte(clean, rng.NextBounded(clean.size()),
                                   rng));
    MustSurvive(parse, SpliceJunk(clean, rng));
  }
}

TEST(StateIoFuzzTest, ChecksumRejectsEverySingleByteFlip) {
  const std::string clean = EngineText();
  ASSERT_TRUE(ParseEngineState(clean).has_value());
  util::Rng rng(103);
  for (int i = 0; i < 400; ++i) {
    const std::size_t offset = rng.NextBounded(clean.size());
    const std::string corrupted = FlipOneByte(clean, offset, rng);
    EXPECT_FALSE(ParseEngineState(corrupted).has_value())
        << "flip at offset " << offset << " went undetected";
  }
}

TEST(StateIoFuzzTest, ChecksumRejectsEveryTruncation) {
  const std::string clean = EngineText();
  util::Rng rng(104);
  for (int i = 0; i < 200; ++i) {
    const std::size_t keep = rng.NextBounded(clean.size());
    EXPECT_FALSE(ParseEngineState(clean.substr(0, keep)).has_value())
        << "truncation to " << keep << " bytes went undetected";
  }
  EXPECT_FALSE(ParseEngineState(clean + "trailing garbage").has_value());
}

TEST(StateIoFuzzTest, EngineParserSurvivesRandomSplices) {
  const std::string clean = EngineText();
  util::Rng rng(105);
  for (int i = 0; i < 200; ++i) {
    // Splices damage the body, so the checksum must reject them too --
    // but the property that matters here is surviving arbitrary bytes.
    EXPECT_FALSE(ParseEngineState(SpliceJunk(clean, rng)).has_value());
  }
}

std::string TieredEngineText(core::SnapshotStoreMode mode) {
  core::EngineConfig options;
  options.umicro.num_micro_clusters = 15;
  options.snapshot.snapshot_every = 16;
  options.snapshot.pyramid_l = 2;
  options.snapshot.tiering.mode = mode;
  if (mode == core::SnapshotStoreMode::kTiered) {
    // A small budget with no codec: cold frames quantize in memory, so
    // the serialized state carries all three frame grammars.
    options.snapshot.tiering.budget_bytes = 2048;
  }
  core::UMicroEngine engine(3, options);
  const stream::Dataset dataset = RandomStream(600, 14);
  for (const auto& point : dataset.points()) engine.Process(point);
  return EngineStateToString(engine.ExportEngineState());
}

TEST(StateIoFuzzTest, ChecksumRejectsCorruptionOfDeltaAndTieredStates) {
  for (const core::SnapshotStoreMode mode :
       {core::SnapshotStoreMode::kDelta, core::SnapshotStoreMode::kTiered}) {
    const std::string clean = TieredEngineText(mode);
    ASSERT_TRUE(ParseEngineState(clean).has_value());
    // The state really exercises the new frame grammars -- otherwise
    // this fuzz pass proves nothing new. In tiered mode the tiny budget
    // demotes every warm frame, so the text carries quantized frames;
    // in delta mode it carries delta frames.
    if (mode == core::SnapshotStoreMode::kTiered) {
      ASSERT_NE(clean.find(" quant "), std::string::npos);
    } else {
      ASSERT_NE(clean.find(" delta "), std::string::npos);
    }
    util::Rng rng(106);
    for (int i = 0; i < 300; ++i) {
      const std::size_t offset = rng.NextBounded(clean.size());
      EXPECT_FALSE(ParseEngineState(FlipOneByte(clean, offset, rng))
                       .has_value())
          << "flip at offset " << offset << " went undetected";
    }
    for (int i = 0; i < 100; ++i) {
      EXPECT_FALSE(
          ParseEngineState(clean.substr(0, rng.NextBounded(clean.size())))
              .has_value());
      EXPECT_FALSE(ParseEngineState(SpliceJunk(clean, rng)).has_value());
    }
  }
}

TEST(StateIoFuzzTest, SpillFrameRejectsEveryByteFlipAndHostileInput) {
  std::vector<core::MicroClusterState> states;
  for (std::uint64_t id = 0; id < 4; ++id) {
    core::MicroClusterState state;
    state.id = id;
    state.creation_time = 1.0;
    state.ecf = core::ErrorClusterFeature::FromPoint(
        stream::UncertainPoint({1.0 + id, 2.0, 3.0}, {0.1, 0.1, 0.1}, 7.0),
        2.0);
    states.push_back(std::move(state));
  }
  const core::Snapshot snapshot = core::Snapshot::FromStates(7.5, states);
  const std::string clean = SpillFrameToString(snapshot);
  ASSERT_TRUE(ParseSpillFrame(clean).has_value());

  util::Rng rng(107);
  for (int i = 0; i < 300; ++i) {
    const std::size_t offset = rng.NextBounded(clean.size());
    EXPECT_FALSE(ParseSpillFrame(FlipOneByte(clean, offset, rng))
                     .has_value())
        << "flip at offset " << offset << " went undetected";
    EXPECT_FALSE(
        ParseSpillFrame(clean.substr(0, rng.NextBounded(clean.size())))
            .has_value());
  }
  for (const std::string& hostile :
       {std::string(""), std::string("usnapf"), std::string("usnapf 1\n"),
        std::string("usnapf 1 zzzz\nusnap 1\n"),
        std::string("usnapf 2 0000000000000000\n"),
        std::string("usnapf 1 0000000000000000\nusnap 1\n")}) {
    EXPECT_FALSE(ParseSpillFrame(hostile).has_value());
  }
}

TEST(StateIoFuzzTest, HostileHandcraftedInputsAreRejected) {
  const std::vector<std::string> hostile = {
      "",
      "\n",
      "ustate",
      "ustate one\n",
      "ustate 1\n",
      "ustate 1\ndims 0\n",
      "ustate 1\ndims -3\n",
      "ucheckpoint 2\n",
      "ucheckpoint 2 zzzz\n",
      "ucheckpoint 2 0000000000000000\n",
      std::string(1 << 16, 'A'),
      std::string("ustate 1\ndims 3\n") + std::string(4096, '\0'),
  };
  for (const std::string& text : hostile) {
    EXPECT_FALSE(ParseUMicroState(text).has_value());
    EXPECT_FALSE(ParseEngineState(text).has_value());
  }
}

TEST(StateIoFuzzTest, HugeCountsFailFastWithoutAllocating) {
  // A corrupted count field must be capped before any reserve/resize:
  // these parses return nullopt quickly instead of attempting to
  // allocate petabytes (an OOM here fails the test run outright).
  const std::vector<std::string> bombs = {
      "ustate 1\ndims 99999999999999999999\n",
      "ustate 1\ndims 3\ncounters 1 0 0 0\ndecay 0 0\n"
      "welford 0 0 0 0 0 0 0\nvariances 1 1 1\n"
      "clusters 18446744073709551615\n",
  };
  for (const std::string& text : bombs) {
    EXPECT_FALSE(ParseUMicroState(text).has_value());
  }

  // A well-formed state announcing exactly kMaxClusters clusters passes
  // the cap; the count must still be checked against the text that
  // could hold the records before the cluster block is reserved. The
  // same state inside a checkpoint is what a leaf DELTA carries.
  const std::string at_cap =
      "ustate 1\ndims 3\ncounters 1 0 0 0 0\ndecay 0 0\n"
      "welford 0 0 0\nwelford 0 0 0\nwelford 0 0 0\nvariances 1 1 1\n"
      "clusters " + std::to_string(kMaxClusters) + "\n";
  EXPECT_FALSE(ParseUMicroState(at_cap).has_value());
  const std::string checkpoint = ChecksummedText(
      "ucheckpoint", 2, [&at_cap](std::ostringstream& out) {
        out << "kind umicro\ndims 3\ningest 0 0\nclock 0 0 0\nshards 1\n"
            << at_cap;
      });
  EXPECT_FALSE(ParseEngineState(checkpoint).has_value());
}

}  // namespace
}  // namespace umicro::io
