// Input hardening: a StreamSource decorator that classifies and handles
// malformed records before they reach a clustering engine.
//
// Real uncertain-data feeds carry sensor glitches: NaN/Inf readings,
// negative or NaN error stddevs, records with the wrong dimensionality,
// and clocks that jump backwards. None of those may crash the engine or
// poison the ECF statistics (a single NaN value contaminates CF1/CF2
// forever, since the features are additive and never recomputed). The
// ValidatingStream sits between any source and the engine, classifies
// every defect, and applies a per-class policy:
//
//   kRepair     -- fix the record in place (impute the running mean for
//                  NaN values, clamp infinities to the observed range,
//                  zero bad error stddevs, pad/truncate dimensions,
//                  clamp regressing timestamps) and deliver it;
//   kQuarantine -- append the record to a side CSV file and withhold it;
//   kDrop       -- silently withhold it.
//
// Every decision is counted, both in the returned stats() and in the
// attached MetricsRegistry ("resilience.*"; see docs/resilience.md).

#ifndef UMICRO_RESILIENCE_VALIDATING_STREAM_H_
#define UMICRO_RESILIENCE_VALIDATING_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stream/point.h"
#include "stream/stream_source.h"

namespace umicro::resilience {

/// What to do with a record exhibiting a given defect class.
enum class BadRecordPolicy {
  kRepair,
  kQuarantine,
  kDrop,
};

/// Per-defect-class policies (one record can exhibit several defects;
/// the most severe applicable policy wins: drop > quarantine > repair).
struct ValidationPolicies {
  /// NaN or +-Inf among the value coordinates.
  BadRecordPolicy non_finite_value = BadRecordPolicy::kRepair;
  /// Negative or non-finite error stddev.
  BadRecordPolicy bad_error = BadRecordPolicy::kRepair;
  /// Record dimensionality differs from the stream's.
  BadRecordPolicy dimension_mismatch = BadRecordPolicy::kDrop;
  /// Non-finite timestamp, or a timestamp earlier than the newest one
  /// already delivered (the engine clock must never rewind).
  BadRecordPolicy bad_timestamp = BadRecordPolicy::kRepair;

  /// All four classes set to `policy` (the CLI's --bad-record-policy).
  static ValidationPolicies Uniform(BadRecordPolicy policy);
};

/// Configuration of a ValidatingStream.
struct ValidationOptions {
  ValidationPolicies policies;
  /// Side file receiving quarantined records as CSV lines; empty means
  /// quarantined records are withheld without being persisted (still
  /// counted as quarantined, not as dropped).
  std::string quarantine_path;
};

/// Validation decision counts (also mirrored into the metrics registry
/// when one is attached).
struct ValidationStats {
  std::uint64_t records_seen = 0;
  /// Clean records passed through untouched.
  std::uint64_t records_ok = 0;
  std::uint64_t records_repaired = 0;
  std::uint64_t records_quarantined = 0;
  std::uint64_t records_dropped = 0;
  // Defect-class tallies (one record may count in several).
  std::uint64_t non_finite_values = 0;
  std::uint64_t bad_errors = 0;
  std::uint64_t dimension_mismatches = 0;
  std::uint64_t bad_timestamps = 0;
};

/// StreamSource decorator applying the validation policies. Does not own
/// the wrapped source. Single-threaded, like every StreamSource.
class ValidatingStream : public stream::StreamSource {
 public:
  /// Wraps `source`; `metrics` may be null (stats() still counts).
  /// `dimensions` is the authoritative stream dimensionality the engine
  /// was configured with.
  ValidatingStream(stream::StreamSource* source, std::size_t dimensions,
                   ValidationOptions options,
                   obs::MetricsRegistry* metrics = nullptr);

  /// Next deliverable (clean or repaired) record; quarantined/dropped
  /// records are consumed internally. std::nullopt at end of stream.
  std::optional<stream::UncertainPoint> Next() override;

  std::size_t dimensions() const override { return dimensions_; }

  /// Resets the wrapped source and the validator's running state.
  bool Reset() override;

  /// Decision counts so far.
  const ValidationStats& stats() const { return stats_; }

 private:
  /// Validates/handles one record. Returns true when the (possibly
  /// repaired) record should be delivered.
  bool HandleRecord(stream::UncertainPoint* point);

  void Quarantine(const stream::UncertainPoint& point);

  stream::StreamSource* const source_;
  const std::size_t dimensions_;
  const ValidationOptions options_;

  ValidationStats stats_;
  /// Per-dimension running mean/extremes of valid values (imputation and
  /// clamping sources).
  std::vector<std::uint64_t> value_counts_;
  std::vector<double> value_means_;
  std::vector<double> value_mins_;
  std::vector<double> value_maxes_;
  /// Newest timestamp delivered so far (regression detector).
  double last_timestamp_ = 0.0;
  bool saw_timestamp_ = false;

  std::ofstream quarantine_file_;
  bool quarantine_open_attempted_ = false;

  // Metric handles (null when no registry was attached).
  obs::Counter* ok_metric_ = nullptr;
  obs::Counter* repaired_metric_ = nullptr;
  obs::Counter* quarantined_metric_ = nullptr;
  obs::Counter* dropped_metric_ = nullptr;
  obs::Counter* non_finite_metric_ = nullptr;
  obs::Counter* bad_error_metric_ = nullptr;
  obs::Counter* dim_mismatch_metric_ = nullptr;
  obs::Counter* bad_timestamp_metric_ = nullptr;
};

}  // namespace umicro::resilience

#endif  // UMICRO_RESILIENCE_VALIDATING_STREAM_H_
