// Randomized corruption and hostile-input property tests for the state
// parsers. The contract under test is the one documented in
// io/state_io.h: every parser treats its input as hostile -- truncation,
// bit flips, random splices, and absurd counts yield std::nullopt, never
// a crash, CHECK failure, or unbounded allocation. For the checksummed
// "ucheckpoint 2" format the bar is higher: ANY single corrupted byte is
// detected and rejected. A second pass re-seals mutated bodies with a
// valid checksum, so the body parsers themselves see the damage.

#include "io/state_io.h"

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/snapshot.h"
#include "core/umicro.h"
#include "fleet/engine_fleet.h"
#include "fleet/fleet_checkpoint.h"
#include "io/checkpoint_series.h"
#include "stream/dataset.h"
#include "util/random.h"

namespace {
/// The largest single operator-new request since the last reset, so a
/// fuzz pass can assert that no mutated count drove an allocation past
/// what the parsers' caps allow.
std::atomic<std::size_t> largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
// GCC pairs the free() here with the malloc() of the replacement above
// only at run time, so it flags the pair as mismatched.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
#pragma GCC diagnostic pop

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

std::string DeltaEngineText() {
  core::EngineConfig options;
  options.umicro.num_micro_clusters = 15;
  options.snapshot.snapshot_every = 16;
  options.snapshot.pyramid_l = 2;
  options.snapshot.tiering.mode = core::SnapshotStoreMode::kDelta;
  core::UMicroEngine engine(3, options);
  const stream::Dataset dataset = RandomStream(600, 14);
  for (const auto& point : dataset.points()) engine.Process(point);
  return EngineStateToString(engine.ExportEngineState());
}

TEST(StateIoFuzzTest, ChecksumRejectsCorruptionOfDeltaStates) {
  const std::string clean = DeltaEngineText();
  ASSERT_TRUE(ParseEngineState(clean).has_value());
  // The state really exercises the delta frame grammar -- otherwise this
  // fuzz pass proves nothing beyond the full-store one.
  ASSERT_NE(clean.find(" delta "), std::string::npos);
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

/// Seals `ustate` text as the one shard of a "ucheckpoint 2" envelope
/// whose other sections are valid and empty.
std::string SealedCheckpoint(const std::string& ustate) {
  return ChecksummedText("ucheckpoint", 2, [&ustate](std::ostringstream& out) {
    out << "kind umicro\ndims 1\ningest 0 0\nclock 1 0 0\nshards 1\n"
        << ustate << "global 0\nstore 0 2 2 0\ncounters 0\ngauges 0\n";
  });
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

  // Numeric tokens outside the token rule (io/text_cursor.h), each one
  // edit away from a valid state. Bare, and sealed in a valid envelope
  // so the checksum passes and the body parser must refuse the token.
  const std::string valid =
      "ustate 1\ndims 1\ncounters 1 7 0 0 0\ndecay 0 0\nwelford 0 0 0\n"
      "variances 1\nclusters 1\n5 0 1 0 0.5 0.25 0 labels 1 3 1.5\n";
  ASSERT_TRUE(ParseUMicroState(valid).has_value());
  ASSERT_TRUE(ParseEngineState(SealedCheckpoint(valid)).has_value());
  const auto edit = [&valid](const std::string& from, const std::string& to) {
    std::string text = valid;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  const std::vector<std::string> bad_numbers = {
      // A sign on an unsigned field used to wrap to 2^64 - n.
      edit("counters 1 7", "counters -1 -7"),
      edit("dims 1", "dims -0"),
      edit("labels 1", "labels -1"),
      edit("welford 0", "welford -0"),
      // A leading '+'.
      edit("counters 1", "counters +1"),
      edit("decay 0", "decay +0"),
      edit("labels 1 3", "labels 1 +3"),
      // Glued tokens: a number must end at whitespace.
      edit(" 0 labels", " 1.5labels"),
      edit("counters 1 7", "counters 1 7x"),
      edit("dims 1", "dims 1.0"),
      edit("decay 0 0", "decay 0 0x1"),
      // Non-finite and out-of-range doubles.
      edit("decay 0", "decay inf"),
      edit("welford 0 0", "welford 0 nan"),
      edit("variances 1", "variances 1e400"),
      edit("variances 1", "variances 1e-400"),
      edit("5 0 1", "5 0 1e400"),
      edit("5 0 1", "5 1e-400 1"),
  };
  for (const std::string& text : bad_numbers) {
    EXPECT_FALSE(ParseUMicroState(text).has_value()) << text;
    EXPECT_FALSE(ParseEngineState(SealedCheckpoint(text)).has_value())
        << text;
  }

  // A store whose frames are only "full" and "delta": any other frame
  // tag is refused, including the "quant" and "spill" frames of the
  // retired cold tier. The store is otherwise valid: the control with
  // those two frames written "full" parses.
  const std::string record = "5 0 1 0 0.5 0.25 0\n";
  const auto sealed_store = [&valid](const std::string& store) {
    return ChecksummedText("ucheckpoint", 2, [&](std::ostringstream& out) {
      out << "kind umicro\ndims 1\ningest 0 0\nclock 6 0 5\nshards 1\n"
          << valid << "global 0\n" << store << "counters 0\ngauges 0\n";
    });
  };
  ASSERT_TRUE(ParseEngineState(sealed_store(
                                   "store 5 2 2 1\norder 3\n"
                                   "frame 1 1 full 1 1\n" + record +
                                   "frame 3 3 full 1 1\n" + record +
                                   "frame 5 5 full 1 1\n" + record))
                  .has_value());
  EXPECT_FALSE(ParseEngineState(sealed_store(
                                    "store 5 2 2 1\norder 3\n"
                                    "frame 1 1 quant 1 1\n" + record +
                                    "frame 3 3 spill 1 1\n"
                                    "path spill/frame-1-t3\n"
                                    "frame 5 5 full 1 1\n" + record))
                   .has_value());
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

  // A store order announcing more frames than the rest of the text can
  // hold is refused before its frames are reserved (a million of them,
  // under kMaxSnapshotsPerOrder, would reserve ~288 MB).
  const std::string order_bomb = ChecksummedText(
      "ucheckpoint", 2, [](std::ostringstream& out) {
        out << "kind umicro\ndims 1\ningest 0 0\nclock 1 0 0\nshards 1\n"
               "ustate 1\ndims 1\ncounters 1 7 0 0 0\ndecay 0 0\n"
               "welford 0 0 0\nvariances 1\nclusters 0\nglobal 0\n"
               "store 0 2 2 1\norder 1000000\n";
      });
  largest_allocation.store(0);
  EXPECT_FALSE(ParseEngineState(order_bomb).has_value());
  EXPECT_LT(largest_allocation.load(), std::size_t{1} << 20);

  // Likewise a delta frame announcing more ids than the rest of the
  // text can hold (at kMaxClusters the id list alone is 8 MiB).
  const std::string ids_bomb = ChecksummedText(
      "ucheckpoint", 2, [](std::ostringstream& out) {
        out << "kind umicro\ndims 1\ningest 0 0\nclock 1 0 0\nshards 1\n"
               "ustate 1\ndims 1\ncounters 1 7 0 0 0\ndecay 0 0\n"
               "welford 0 0 0\nvariances 1\nclusters 0\nglobal 0\n"
               "store 1 2 2 1\norder 1\nframe 1 0 delta "
            << kMaxClusters << " 1\nids 1\n";
      });
  largest_allocation.store(0);
  EXPECT_FALSE(ParseEngineState(ids_bomb).has_value());
  EXPECT_LT(largest_allocation.load(), std::size_t{1} << 20);
}

// ---- Past the checksum ------------------------------------------------

/// Replaces a random span with a run of digits, so counts grow into the
/// caps instead of just turning into junk.
std::string SpliceDigits(std::string text, util::Rng& rng) {
  const std::size_t offset = rng.NextBounded(text.size());
  const std::size_t length = 1 + rng.NextBounded(12);
  std::string digits;
  for (std::size_t i = 0; i < length; ++i) {
    digits.push_back(static_cast<char>('0' + rng.NextBounded(10)));
  }
  text.replace(offset, std::min(length, text.size() - offset), digits);
  return text;
}

/// One random truncation, flip or splice of `body`.
std::string MutateBody(const std::string& body, util::Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0: return body.substr(0, rng.NextBounded(body.size()));
    case 1: return FlipOneByte(body, rng.NextBounded(body.size()), rng);
    case 2: return SpliceJunk(body, rng);
    default: return SpliceDigits(body, rng);
  }
}

/// No single allocation while parsing a mutated text of a few dozen KB
/// may exceed this: the largest block the caps admit is the metric-cell
/// reserve (kMaxMetricCells pairs, about 40 MB).
constexpr std::size_t kAllocationCap = std::size_t{64} << 20;

/// Mutates the body of the `magic` envelope `clean` `rounds` times,
/// re-seals it with a valid checksum and parses it with `parse`.
template <typename Parser>
void FuzzSealedBody(const std::string& clean, std::string_view magic,
                    int version, const Parser& parse, int rounds,
                    std::uint64_t seed) {
  const std::optional<std::string_view> body =
      ChecksummedBody(clean, magic, version);
  ASSERT_TRUE(body.has_value());
  const std::string clean_body(*body);
  util::Rng rng(seed);
  for (int i = 0; i < rounds; ++i) {
    const std::string mutated = MutateBody(clean_body, rng);
    const std::string sealed = ChecksummedText(
        magic, version,
        [&mutated](std::ostringstream& out) { out << mutated; });
    largest_allocation.store(0);
    (void)parse(sealed);
    EXPECT_LE(largest_allocation.load(), kAllocationCap)
        << "round " << i << " allocated past the caps";
  }
}

TEST(StateIoFuzzTest, BodyParsersSurviveMutationsPastTheChecksum) {
  const auto parse_engine = [](const std::string& t) {
    return ParseEngineState(t);
  };
  FuzzSealedBody(EngineText(), "ucheckpoint", 2, parse_engine, 400, 201);
  FuzzSealedBody(DeltaEngineText(), "ucheckpoint", 2, parse_engine, 400,
                 202);
}

/// The fleet manifest carries its own checksum (decimal FNV-1a of the
/// body); recovery parses it and then the tenant files it names.
TEST(StateIoFuzzTest, FleetManifestSurvivesMutationsPastTheChecksum) {
  const std::string dir = ::testing::TempDir() + "state_io_fuzz_manifest_" +
                          std::to_string(::getpid());
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 5;
  config.fleet.workers = 1;
  {
    fleet::EngineFleet fleet(3, config);
    const stream::Dataset dataset = RandomStream(120, 15);
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      fleet.Ingest(i % 3, dataset[i]);
    }
    fleet::FleetCheckpointer checkpointer(dir, config.checkpoint);
    ASSERT_TRUE(checkpointer.CheckpointNow(fleet));
  }
  const std::vector<std::string> manifests =
      fleet::ListFleetManifestFiles(dir);
  ASSERT_EQ(manifests.size(), 1u);
  const std::string path = manifests.front();
  const std::optional<std::string> clean = ReadWholeFile(path);
  ASSERT_TRUE(clean.has_value());
  const std::string body = clean->substr(clean->find('\n') + 1);
  ASSERT_EQ(fleet::RecoverOrCreateFleet(dir, 3, config).tenants_restored,
            3u);

  // A tenant count the body cannot hold is refused before the records
  // are reserved (16 million would reserve ~900 MB).
  const std::string count_bomb = "seq 1\ndimensions 3\ntenants 16000000\n";
  ASSERT_TRUE(WriteTextFileAtomic("ufleetmanifest 1 " +
                                      std::to_string(Fnv1a(count_bomb)) +
                                      "\n" + count_bomb,
                                  path));
  largest_allocation.store(0);
  EXPECT_FALSE(fleet::RecoverOrCreateFleet(dir, 3, config).recovered);
  EXPECT_LT(largest_allocation.load(), std::size_t{1} << 20);

  util::Rng rng(205);
  for (int i = 0; i < 200; ++i) {
    const std::string mutated = MutateBody(body, rng);
    ASSERT_TRUE(WriteTextFileAtomic(
        "ufleetmanifest 1 " + std::to_string(Fnv1a(mutated)) + "\n" +
            mutated,
        path));
    largest_allocation.store(0);
    (void)fleet::RecoverOrCreateFleet(dir, 3, config);
    EXPECT_LE(largest_allocation.load(), kAllocationCap)
        << "round " << i << " allocated past the caps";
  }
  for (const std::string& name : DirectoryEntries(dir)) {
    std::remove((dir + "/" + name).c_str());
  }
  std::remove(dir.c_str());
}

}  // namespace
}  // namespace umicro::io
