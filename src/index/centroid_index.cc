#include "index/centroid_index.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

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
  // Bubble the new subtree max toward the root; stop at the first
  // ancestor already dominating it.
  std::int32_t n = static_cast<std::int32_t>(leaf_of_row_[row]);
  while (n >= 0 && node_drift_[static_cast<std::size_t>(n)] < drift_[row]) {
    node_drift_[static_cast<std::size_t>(n)] = drift_[row];
    n = parent_[static_cast<std::size_t>(n)];
  }
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
      std::max(kMinAppendedRebuild, built_rows_ / 4);
  if (appended_ > appended_limit) return true;
  // Accumulated drift shrinks every lower bound; once it is a material
  // fraction of the data spread the structure stops pruning, so refresh.
  const double drift = max_drift_ + kUlpSlack * static_cast<double>(
                                        scale_events_) * max_norm_;
  return drift > kDriftRebuildFraction * diag_;
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
  BuildTree();
}

void CentroidIndex::BuildTree() {
  nodes_.clear();
  bbox_min_.clear();
  bbox_max_.clear();
  parent_.clear();
  node_drift_.clear();
  node_norm_.clear();
  perm_.resize(built_rows_);
  leaf_of_row_.assign(built_rows_, 0);
  std::iota(perm_.begin(), perm_.end(), 0u);
  nodes_.reserve(2 * built_rows_ / kLeafSize + 1);
  if (built_rows_ > 0) {
    BuildNode(0, static_cast<std::uint32_t>(built_rows_), -1);
  }
}

std::int32_t CentroidIndex::BuildNode(std::uint32_t begin, std::uint32_t end,
                                      std::int32_t parent) {
  const std::int32_t id = static_cast<std::int32_t>(nodes_.size());
  Node node;
  node.begin = begin;
  node.end = end;
  nodes_.push_back(node);
  parent_.push_back(parent);
  node_drift_.push_back(0.0);

  // Boxes are stride-padded like the snapshot rows: the min/max sweep
  // over padded rows leaves lo = hi = 0 in the padded lanes, which is
  // exactly what the SIMD box-distance kernel needs.
  const std::size_t stride = snap_stride_;
  const std::size_t box = static_cast<std::size_t>(id) * stride;
  bbox_min_.resize(box + stride, std::numeric_limits<double>::infinity());
  bbox_max_.resize(box + stride, -std::numeric_limits<double>::infinity());
  double norm = 0.0;
  for (std::uint32_t k = begin; k < end; ++k) {
    const double* c = snap_centroid(perm_[k]);
    for (std::size_t j = 0; j < stride; ++j) {
      bbox_min_[box + j] = std::min(bbox_min_[box + j], c[j]);
      bbox_max_[box + j] = std::max(bbox_max_[box + j], c[j]);
    }
    norm = std::max(norm, snap_norm_[perm_[k]]);
  }
  node_norm_.push_back(norm);

  std::size_t split_dim = 0;
  double extent = 0.0;
  for (std::size_t j = 0; j < dims_; ++j) {
    const double e = bbox_max_[box + j] - bbox_min_[box + j];
    if (e > extent) {
      extent = e;
      split_dim = j;
    }
  }
  // Leaf: small enough, or every centroid in the range is identical
  // (extent 0 -- splitting could never separate them).
  if (end - begin <= kLeafSize || extent <= 0.0) {
    for (std::uint32_t k = begin; k < end; ++k) {
      leaf_of_row_[perm_[k]] = static_cast<std::uint32_t>(id);
    }
    return id;
  }

  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(perm_.begin() + begin, perm_.begin() + mid,
                   perm_.begin() + end,
                   [this, split_dim](std::uint32_t a, std::uint32_t b) {
                     const double ca = snap_centroid(a)[split_dim];
                     const double cb = snap_centroid(b)[split_dim];
                     if (ca != cb) return ca < cb;
                     return a < b;  // total order keeps builds deterministic
                   });
  // Children are built after the parent is in nodes_, so index through
  // nodes_[id] (the vector may reallocate during recursion).
  const std::int32_t left = BuildNode(begin, mid, id);
  nodes_[static_cast<std::size_t>(id)].left = left;
  const std::int32_t right = BuildNode(mid, end, id);
  nodes_[static_cast<std::size_t>(id)].right = right;
  return id;
}

double CentroidIndex::NodeDist2(std::size_t n, const double* x) const {
  const std::size_t box = n * snap_stride_;
  return kernels::BoxSquaredDistance(snap_backend_, x, &bbox_min_[box],
                                     &bbox_max_[box], snap_stride_);
}

void CentroidIndex::SeedFromNearestLeaf(const kernels::ClusterTable& table,
                                        const double* x,
                                        bool include_cluster_error,
                                        double* upper) const {
  std::size_t n = 0;
  while (nodes_[n].left >= 0) {
    const std::size_t left = static_cast<std::size_t>(nodes_[n].left);
    const std::size_t right = static_cast<std::size_t>(nodes_[n].right);
    n = NodeDist2(left, x) <= NodeDist2(right, x) ? left : right;
  }
  for (std::uint32_t k = nodes_[n].begin; k < nodes_[n].end; ++k) {
    const std::uint32_t row = perm_[k];
    const double dist = std::sqrt(SnapDist2(row, x));
    const double ub = RowUpper(
        row, dist, RowErrorTerm(table, row, include_cluster_error));
    *upper = std::min(*upper, ub);
  }
}

void CentroidIndex::CollectNode(std::size_t n, double node_dist2,
                                const kernels::ClusterTable& table,
                                const double* x, bool include_cluster_error,
                                double point_error2, double* upper,
                                double* effective,
                                std::vector<std::uint32_t>* out) const {
  // Node-level prune: the box distance, deflated by the margin and the
  // worst drift of any row in this subtree, lower-bounds every member's
  // geometric term (their s_i >= 0 only adds).
  double lo = std::sqrt(node_dist2) * (1.0 - kRelMargin) - NodeQueryDrift(n);
  if (lo < 0.0) lo = 0.0;
  if (lo * lo > *effective) return;

  const Node& node = nodes_[n];
  if (node.left < 0) {
    for (std::uint32_t k = node.begin; k < node.end; ++k) {
      const std::uint32_t row = perm_[k];
      const double dist = std::sqrt(SnapDist2(row, x));
      const double s = RowErrorTerm(table, row, include_cluster_error);
      if (RowLower(row, dist, s) <= *effective) {
        out->push_back(row);
        const double ub = RowUpper(row, dist, s);
        if (ub < *upper) {
          *upper = ub;
          *effective = EffectiveUpper(ub, point_error2);
        }
      }
    }
    return;
  }
  // Nearer child first so the bound tightens before the farther side.
  const std::size_t left = static_cast<std::size_t>(node.left);
  const std::size_t right = static_cast<std::size_t>(node.right);
  const double left_d2 = NodeDist2(left, x);
  const double right_d2 = NodeDist2(right, x);
  if (left_d2 <= right_d2) {
    CollectNode(left, left_d2, table, x, include_cluster_error, point_error2,
                upper, effective, out);
    CollectNode(right, right_d2, table, x, include_cluster_error,
                point_error2, upper, effective, out);
  } else {
    CollectNode(right, right_d2, table, x, include_cluster_error,
                point_error2, upper, effective, out);
    CollectNode(left, left_d2, table, x, include_cluster_error, point_error2,
                upper, effective, out);
  }
}

bool CentroidIndex::Collect(const kernels::ClusterTable& table,
                            const double* x, bool include_cluster_error,
                            double point_error2,
                            std::vector<std::uint32_t>* out) {
  const std::size_t q = table.rows();
  if (q < min_rows_ || table.dims() == 0) {
    ++stats_.fallbacks;
    return false;
  }
  if (NeedsRebuild(table)) Rebuild(table);
  query_scale_ulp_ = kUlpSlack * static_cast<double>(scale_events_);

  // Stage the query padded to the snapshot stride (callers only promise
  // dims() readable entries) so the SIMD row reduction applies.
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

  UMICRO_DCHECK(!nodes_.empty());
  SeedFromNearestLeaf(table, xp, include_cluster_error, &upper);
  double effective = EffectiveUpper(upper, point_error2);
  CollectNode(0, NodeDist2(0, xp), table, xp, include_cluster_error,
              point_error2, &upper, &effective, out);
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
  switch (kind) {
    case IndexKind::kFlat:
      return nullptr;
    case IndexKind::kKdTree:
      return std::make_unique<CentroidIndex>(2);
    case IndexKind::kAuto:
      // Below ~64 rows the full SIMD scan beats tree traversal plus
      // gather refinement; gate the index instead of paying overhead.
      return std::make_unique<CentroidIndex>(64);
  }
  return nullptr;
}

}  // namespace umicro::index
