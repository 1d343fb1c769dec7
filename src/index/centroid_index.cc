#include "index/centroid_index.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

#include "index/kdtree_index.h"
#include "kernels/kernels.h"
#include "util/check.h"

namespace umicro::index {

namespace {

// Per-event / per-report floating-point slack on centroid positions: the
// table re-derives centroid[j] = CF1_j * (1/n) after every mutation, a
// handful of roundings per coordinate, each relative to the coordinate
// magnitude. 16 ulp comfortably covers the longest such chain.
constexpr double kUlpSlack = 16.0 * DBL_EPSILON;

}  // namespace

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kFlat:
      return "flat";
    case IndexKind::kKdTree:
      return "kdtree";
    case IndexKind::kAuto:
      return "auto";
  }
  return "unknown";
}

std::optional<IndexKind> ParseIndexKind(const std::string& name) {
  if (name == "flat") return IndexKind::kFlat;
  if (name == "kdtree") return IndexKind::kKdTree;
  if (name == "auto") return IndexKind::kAuto;
  return std::nullopt;
}

void CentroidIndex::NoteDrift(std::size_t row, double distance) {
  if (row >= built_rows_) return;  // appended rows are always candidates
  // Inflate the reported (real-arithmetic) move with relative slack and
  // the coordinate-rounding term, so drift_[row] stays a true upper
  // bound on ||live centroid - snapshot centroid||.
  const double inflated =
      distance * (1.0 + kRelMargin) + kUlpSlack * snap_norm_[row];
  drift_[row] += inflated;
  if (drift_[row] > max_drift_) max_drift_ = drift_[row];
  DriftUpdated(row);
}

double CentroidIndex::SnapDist2(std::size_t row, const double* x) const {
  return kernels::RowSquaredDistance(snap_backend_, x, snap_centroid(row),
                                     snap_stride_);
}

bool CentroidIndex::NeedsRebuild(const kernels::ClusterTable& table) const {
  if (dirty_) return true;
  if (table.dims() != dims_) return true;
  if (table.rows() < built_rows_) return true;
  const std::size_t appended_limit =
      std::max(options_.min_appended_rebuild, built_rows_ / 4);
  if (appended_ > appended_limit) return true;
  // Accumulated drift shrinks every lower bound; once it is a material
  // fraction of the data spread the structure stops pruning, so refresh.
  const double drift = max_drift_ + kUlpSlack * static_cast<double>(
                                        scale_events_) * max_norm_;
  return drift > options_.drift_rebuild_fraction * diag_;
}

void CentroidIndex::Rebuild(const kernels::ClusterTable& table) {
  built_rows_ = table.rows();
  dims_ = table.dims();
  snap_stride_ = table.stride();
  snap_backend_ = table.backend();
  snap_.resize(built_rows_ * snap_stride_);
  snap_norm_.resize(built_rows_);
  max_norm_ = 0.0;
  std::vector<double> bbox_min(dims_, std::numeric_limits<double>::infinity());
  std::vector<double> bbox_max(dims_,
                               -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < built_rows_; ++i) {
    const double* row = table.centroid_row(i);
    // Stride copy keeps the zero padding, so the SIMD row reduction runs
    // on snapshot rows exactly as on table rows.
    std::memcpy(&snap_[i * snap_stride_], row, snap_stride_ * sizeof(double));
    double norm2 = 0.0;
    for (std::size_t j = 0; j < dims_; ++j) {
      const double v = row[j];
      norm2 += v * v;
      bbox_min[j] = std::min(bbox_min[j], v);
      bbox_max[j] = std::max(bbox_max[j], v);
    }
    snap_norm_[i] = std::sqrt(norm2) * (1.0 + kRelMargin);
    max_norm_ = std::max(max_norm_, snap_norm_[i]);
  }
  double diag2 = 0.0;
  for (std::size_t j = 0; j < dims_; ++j) {
    const double extent = bbox_max[j] - bbox_min[j];
    diag2 += extent * extent;
  }
  diag_ = std::sqrt(diag2);
  drift_.assign(built_rows_, 0.0);
  max_drift_ = 0.0;
  scale_events_ = 0;
  appended_ = 0;
  dirty_ = false;
  ++stats_.rebuilds;
  BuildStructure();
}

bool CentroidIndex::Collect(const kernels::ClusterTable& table,
                            const double* x, bool include_cluster_error,
                            double point_error2,
                            std::vector<std::uint32_t>* out) {
  const std::size_t q = table.rows();
  if (q < options_.min_rows || table.dims() == 0) {
    ++stats_.fallbacks;
    return false;
  }
  if (NeedsRebuild(table)) Rebuild(table);
  query_scale_ulp_ = kUlpSlack * static_cast<double>(scale_events_);

  // Stage the query padded to the snapshot stride (callers only promise
  // dims() readable entries) so backends run the SIMD row reduction.
  padded_x_.assign(snap_stride_, 0.0);
  std::memcpy(padded_x_.data(), x, dims_ * sizeof(double));
  const double* xp = padded_x_.data();

  out->clear();
  // Rows appended since the snapshot are unconditional candidates; their
  // live centroids also seed the winner's upper bound (a fresh singleton
  // sits close to the arriving point far more often than not).
  double upper = std::numeric_limits<double>::infinity();
  for (std::size_t r = built_rows_; r < q; ++r) {
    const double d2 = kernels::RowSquaredDistance(
        snap_backend_, xp, table.centroid_row(r), snap_stride_);
    const double ub = d2 * (1.0 + kRelMargin) +
                      RowErrorTerm(table, r, include_cluster_error);
    upper = std::min(upper, ub);
  }

  CollectImpl(table, xp, include_cluster_error, point_error2, upper, out);
  for (std::size_t r = built_rows_; r < q; ++r) {
    out->push_back(static_cast<std::uint32_t>(r));
  }
  std::sort(out->begin(), out->end());
  UMICRO_DCHECK(!out->empty());

  ++stats_.queries;
  stats_.candidates += out->size();
  stats_.scanned_rows += q;
  return true;
}

std::unique_ptr<CentroidIndex> MakeCentroidIndex(IndexKind kind) {
  CentroidIndex::Options options;
  switch (kind) {
    case IndexKind::kFlat:
      return nullptr;
    case IndexKind::kKdTree:
      return std::make_unique<KdTreeIndex>(options);
    case IndexKind::kAuto:
      // Below ~64 rows the full SIMD scan beats tree traversal plus
      // gather refinement; gate the index instead of paying overhead.
      options.min_rows = 64;
      return std::make_unique<KdTreeIndex>(options);
  }
  return nullptr;
}

}  // namespace umicro::index
