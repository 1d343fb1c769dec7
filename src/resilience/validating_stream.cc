#include "resilience/validating_stream.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace umicro::resilience {

namespace {

/// Strictness order used when one record exhibits several defects.
int Severity(BadRecordPolicy policy) {
  switch (policy) {
    case BadRecordPolicy::kRepair:
      return 0;
    case BadRecordPolicy::kQuarantine:
      return 1;
    case BadRecordPolicy::kDrop:
      return 2;
  }
  return 0;
}

void AppendCsvDouble(std::string* out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += buffer;
}

}  // namespace

ValidationPolicies ValidationPolicies::Uniform(BadRecordPolicy policy) {
  ValidationPolicies policies;
  policies.non_finite_value = policy;
  policies.bad_error = policy;
  policies.dimension_mismatch = policy;
  policies.bad_timestamp = policy;
  return policies;
}

ValidatingStream::ValidatingStream(stream::StreamSource* source,
                                   std::size_t dimensions,
                                   ValidationOptions options,
                                   obs::MetricsRegistry* metrics)
    : source_(source),
      dimensions_(dimensions),
      options_(std::move(options)),
      value_counts_(dimensions, 0),
      value_means_(dimensions, 0.0),
      value_mins_(dimensions, 0.0),
      value_maxes_(dimensions, 0.0) {
  if (metrics != nullptr) {
    ok_metric_ = &metrics->GetCounter("resilience.records_ok");
    repaired_metric_ = &metrics->GetCounter("resilience.records_repaired");
    quarantined_metric_ =
        &metrics->GetCounter("resilience.records_quarantined");
    dropped_metric_ = &metrics->GetCounter("resilience.records_dropped");
    non_finite_metric_ =
        &metrics->GetCounter("resilience.bad.non_finite_value");
    bad_error_metric_ = &metrics->GetCounter("resilience.bad.error_stddev");
    dim_mismatch_metric_ =
        &metrics->GetCounter("resilience.bad.dimension_mismatch");
    bad_timestamp_metric_ = &metrics->GetCounter("resilience.bad.timestamp");
  }
}

std::optional<stream::UncertainPoint> ValidatingStream::Next() {
  while (true) {
    std::optional<stream::UncertainPoint> point = source_->Next();
    if (!point.has_value()) return std::nullopt;
    ++stats_.records_seen;
    if (HandleRecord(&*point)) return point;
  }
}

bool ValidatingStream::Reset() {
  if (!source_->Reset()) return false;
  stats_ = ValidationStats{};
  value_counts_.assign(dimensions_, 0);
  value_means_.assign(dimensions_, 0.0);
  value_mins_.assign(dimensions_, 0.0);
  value_maxes_.assign(dimensions_, 0.0);
  last_timestamp_ = 0.0;
  saw_timestamp_ = false;
  return true;
}

bool ValidatingStream::HandleRecord(stream::UncertainPoint* point) {
  const ValidationPolicies& policies = options_.policies;

  // Classify every defect the record exhibits.
  const bool wrong_dims = point->dimensions() != dimensions_ ||
                          (point->has_errors() &&
                           point->errors.size() != point->values.size());
  bool non_finite_value = false;
  for (std::size_t j = 0; j < point->values.size(); ++j) {
    if (!std::isfinite(point->values[j])) {
      non_finite_value = true;
      break;
    }
  }
  bool bad_error = false;
  for (double e : point->errors) {
    if (!std::isfinite(e) || e < 0.0) {
      bad_error = true;
      break;
    }
  }
  const bool bad_timestamp =
      !std::isfinite(point->timestamp) ||
      (saw_timestamp_ && point->timestamp < last_timestamp_);

  if (!wrong_dims && !non_finite_value && !bad_error && !bad_timestamp) {
    ++stats_.records_ok;
    if (ok_metric_ != nullptr) ok_metric_->Increment();
    // Clean record: fold its values into the imputation statistics.
    for (std::size_t j = 0; j < dimensions_; ++j) {
      const double v = point->values[j];
      if (value_counts_[j] == 0) {
        value_mins_[j] = v;
        value_maxes_[j] = v;
      } else {
        value_mins_[j] = std::min(value_mins_[j], v);
        value_maxes_[j] = std::max(value_maxes_[j], v);
      }
      ++value_counts_[j];
      value_means_[j] +=
          (v - value_means_[j]) / static_cast<double>(value_counts_[j]);
    }
    last_timestamp_ = point->timestamp;
    saw_timestamp_ = true;
    return true;
  }

  // Tally the defect classes and pick the strictest applicable policy.
  BadRecordPolicy decision = BadRecordPolicy::kRepair;
  auto apply = [&decision](BadRecordPolicy policy) {
    if (Severity(policy) > Severity(decision)) decision = policy;
  };
  if (wrong_dims) {
    ++stats_.dimension_mismatches;
    if (dim_mismatch_metric_ != nullptr) dim_mismatch_metric_->Increment();
    apply(policies.dimension_mismatch);
  }
  if (non_finite_value) {
    ++stats_.non_finite_values;
    if (non_finite_metric_ != nullptr) non_finite_metric_->Increment();
    apply(policies.non_finite_value);
  }
  if (bad_error) {
    ++stats_.bad_errors;
    if (bad_error_metric_ != nullptr) bad_error_metric_->Increment();
    apply(policies.bad_error);
  }
  if (bad_timestamp) {
    ++stats_.bad_timestamps;
    if (bad_timestamp_metric_ != nullptr) bad_timestamp_metric_->Increment();
    apply(policies.bad_timestamp);
  }

  if (decision == BadRecordPolicy::kDrop) {
    ++stats_.records_dropped;
    if (dropped_metric_ != nullptr) dropped_metric_->Increment();
    return false;
  }
  if (decision == BadRecordPolicy::kQuarantine) {
    ++stats_.records_quarantined;
    if (quarantined_metric_ != nullptr) quarantined_metric_->Increment();
    Quarantine(*point);
    return false;
  }

  // Repair, in defect order: shape, then values, then errors, then time.
  if (wrong_dims) {
    point->values.resize(dimensions_, std::nan(""));
    if (point->has_errors()) point->errors.resize(dimensions_, 0.0);
    non_finite_value = true;  // padding may have introduced NaNs
  }
  if (non_finite_value) {
    for (std::size_t j = 0; j < dimensions_; ++j) {
      double& v = point->values[j];
      if (std::isfinite(v)) continue;
      if (std::isnan(v)) {
        // Impute the running mean of valid observations (0 before any).
        v = value_means_[j];
      } else {
        // Clamp infinities to the observed range of the dimension.
        v = v > 0.0 ? value_maxes_[j] : value_mins_[j];
      }
    }
  }
  if (bad_error) {
    for (double& e : point->errors) {
      if (!std::isfinite(e)) {
        e = 0.0;  // unknown uncertainty -> treat as deterministic
      } else if (e < 0.0) {
        e = -e;  // a stddev's sign carries no information
      }
    }
  }
  if (bad_timestamp) {
    // The engine clock must be monotone; a bad arrival time is clamped
    // to the newest time already delivered.
    point->timestamp = saw_timestamp_ ? last_timestamp_ : 0.0;
  }
  last_timestamp_ = std::max(last_timestamp_, point->timestamp);
  saw_timestamp_ = true;
  ++stats_.records_repaired;
  if (repaired_metric_ != nullptr) repaired_metric_->Increment();
  return true;
}

void ValidatingStream::Quarantine(const stream::UncertainPoint& point) {
  if (options_.quarantine_path.empty()) return;
  if (!quarantine_open_attempted_) {
    quarantine_open_attempted_ = true;
    quarantine_file_.open(options_.quarantine_path,
                          std::ios::out | std::ios::trunc);
  }
  if (!quarantine_file_.is_open()) return;
  std::string line;
  for (std::size_t j = 0; j < point.values.size(); ++j) {
    if (j > 0) line += ',';
    AppendCsvDouble(&line, point.values[j]);
  }
  for (double e : point.errors) {
    line += ',';
    AppendCsvDouble(&line, e);
  }
  line += ',';
  AppendCsvDouble(&line, point.timestamp);
  line += ',';
  line += std::to_string(point.label);
  line += '\n';
  quarantine_file_ << line;
}

}  // namespace umicro::resilience
