// Golden-state test: pins UMicro's exported state bit for bit.
//
// For every combination of similarity x decay x variance source x
// distance form, a seeded 20k-point drifting stream is clustered and the
// FNV-1a digest of the full-precision state text
// (io::UMicroStateToString) is compared with a recorded constant. Any
// change to the arithmetic of absorb, create, merge, evict, decay, the
// variance estimate or the distance forms moves a digest, so a refactor
// that claims bit-identity is checked here, and a deliberate behaviour
// change re-baselines the constants in one place.
//
// The constants hold on the scalar kernel tier, the cross-host exactness
// contract (docs/kernels.md section 4); CMake runs this suite with
// UMICRO_KERNEL=scalar.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/umicro.h"
#include "io/state_io.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::core {
namespace {

using stream::UncertainPoint;

constexpr std::size_t kDims = 6;
constexpr std::size_t kPoints = 20000;

/// A drifting, labeled stream: 12 Gaussian sources, of which a sliding
/// window of 5 is active per 4000-point phase, so old clusters go stale
/// (evictions) while the active ones crowd the budget (merges).
std::vector<UncertainPoint> MakeStream() {
  util::Rng rng(20260);
  std::vector<std::vector<double>> centers(12, std::vector<double>(kDims));
  std::vector<std::vector<double>> radii(12, std::vector<double>(kDims));
  for (std::size_t c = 0; c < centers.size(); ++c) {
    for (std::size_t j = 0; j < kDims; ++j) {
      centers[c][j] = rng.Uniform(0.0, 1.0);
      radii[c][j] = rng.Uniform(0.02, 0.15);
    }
  }
  std::vector<UncertainPoint> points;
  points.reserve(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    const std::size_t phase = i / 4000;
    const std::size_t source = (phase * 2 + rng.NextBounded(5)) % 12;
    std::vector<double> values(kDims);
    std::vector<double> errors(kDims);
    for (std::size_t j = 0; j < kDims; ++j) {
      errors[j] = rng.Uniform(0.0, 0.3);
      values[j] = centers[source][j] + rng.Gaussian(0.0, radii[source][j]) +
                  rng.Gaussian(0.0, errors[j]);
    }
    points.emplace_back(std::move(values), std::move(errors),
                        static_cast<double>(i), static_cast<int>(source));
  }
  return points;
}

const std::vector<UncertainPoint>& Stream() {
  static const std::vector<UncertainPoint> points = MakeStream();
  return points;
}

struct GoldenConfig {
  const char* name;
  SimilarityMode similarity;
  double lambda;
  VarianceSource variance;
  DistanceForm form;
  std::uint64_t digest;
};

UMicroOptions OptionsFor(const GoldenConfig& config) {
  UMicroOptions options;
  options.num_micro_clusters = 80;
  options.eviction_horizon = 2000.0;
  options.similarity = config.similarity;
  options.decay_lambda = config.lambda;
  options.variance_source = config.variance;
  options.distance_form = config.form;
  return options;
}

std::uint64_t DigestOf(const UMicro& algorithm) {
  return io::Fnv1a(io::UMicroStateToString(algorithm.ExportState()));
}

constexpr SimilarityMode kCount = SimilarityMode::kDimensionCounting;
constexpr SimilarityMode kDist = SimilarityMode::kExpectedDistance;
constexpr VarianceSource kWelford = VarianceSource::kStreamWelford;
constexpr VarianceSource kAggregate = VarianceSource::kClusterAggregate;
constexpr DistanceForm kPaper = DistanceForm::kPaperExpected;
constexpr DistanceForm kComparable = DistanceForm::kComparable;

// A refactor must leave every digest as it is. Re-record the constants
// only for a deliberate change of UMicro's arithmetic, and state it in
// the change log.
const GoldenConfig kConfigs[] = {
    {"count/l0/welford/paper",
     kCount, 0.0, kWelford, kPaper, 0x399dd10bdfb2b9b3ULL},
    {"count/l0/welford/comparable",
     kCount, 0.0, kWelford, kComparable, 0x4647a9e306ac747bULL},
    {"count/l0/aggregate/paper",
     kCount, 0.0, kAggregate, kPaper, 0x60064f203207f41ULL},
    {"count/l0/aggregate/comparable",
     kCount, 0.0, kAggregate, kComparable, 0x2aa8b819a29100bfULL},
    {"count/decay/welford/paper",
     kCount, 0.0005, kWelford, kPaper, 0x4945871921b7687fULL},
    {"count/decay/welford/comparable",
     kCount, 0.0005, kWelford, kComparable, 0x87b7f24d5297d252ULL},
    {"count/decay/aggregate/paper",
     kCount, 0.0005, kAggregate, kPaper, 0x8982f7d44e9a8ba2ULL},
    {"count/decay/aggregate/comparable",
     kCount, 0.0005, kAggregate, kComparable, 0x9531dfa60f6620eULL},
    {"dist/l0/welford/paper",
     kDist, 0.0, kWelford, kPaper, 0x14f939538a57ea6eULL},
    {"dist/l0/welford/comparable",
     kDist, 0.0, kWelford, kComparable, 0xd6a17aca64f38b4ULL},
    {"dist/l0/aggregate/paper",
     kDist, 0.0, kAggregate, kPaper, 0x4d74de0851777fb4ULL},
    {"dist/l0/aggregate/comparable",
     kDist, 0.0, kAggregate, kComparable, 0xd3d8d70e502a7b1bULL},
    {"dist/decay/welford/paper",
     kDist, 0.0005, kWelford, kPaper, 0xbee681c737ea76dbULL},
    {"dist/decay/welford/comparable",
     kDist, 0.0005, kWelford, kComparable, 0x4d1aa96023c0a3e5ULL},
    {"dist/decay/aggregate/paper",
     kDist, 0.0005, kAggregate, kPaper, 0x11017e9b62c6521cULL},
    {"dist/decay/aggregate/comparable",
     kDist, 0.0005, kAggregate, kComparable, 0xbeace1f7c4b344bdULL},
};

TEST(UMicroGoldenTest, PerPointStateDigests) {
  for (const GoldenConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    UMicro algorithm(kDims, OptionsFor(config));
    for (const auto& point : Stream()) algorithm.Process(point);
    const std::uint64_t digest = DigestOf(algorithm);
    EXPECT_EQ(digest, config.digest)
        << config.name << " digest 0x" << std::hex << digest;
  }
}

TEST(UMicroGoldenTest, BatchedIngestMatchesGolden) {
  for (const std::size_t c : {std::size_t{0}, std::size_t{13}}) {
    const GoldenConfig& config = kConfigs[c];
    SCOPED_TRACE(config.name);
    UMicro algorithm(kDims, OptionsFor(config));
    const std::span<const UncertainPoint> all(Stream());
    for (std::size_t i = 0; i < all.size(); i += 333) {
      algorithm.ProcessBatch(all.subspan(i, std::min<std::size_t>(
                                                333, all.size() - i)));
    }
    EXPECT_EQ(DigestOf(algorithm), config.digest);
  }
}

TEST(UMicroGoldenTest, MidStreamRestoreMatchesGolden) {
  for (const std::size_t c : {std::size_t{6}, std::size_t{9}}) {
    const GoldenConfig& config = kConfigs[c];
    SCOPED_TRACE(config.name);
    UMicro first(kDims, OptionsFor(config));
    const auto& points = Stream();
    for (std::size_t i = 0; i < points.size() / 2; ++i) {
      first.Process(points[i]);
    }
    const auto parsed =
        io::ParseUMicroState(io::UMicroStateToString(first.ExportState()));
    ASSERT_TRUE(parsed.has_value());
    UMicro resumed(kDims, OptionsFor(config));
    resumed.RestoreState(*parsed);
    for (std::size_t i = points.size() / 2; i < points.size(); ++i) {
      resumed.Process(points[i]);
    }
    EXPECT_EQ(DigestOf(resumed), config.digest);
  }
}

}  // namespace
}  // namespace umicro::core
