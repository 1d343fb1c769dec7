#include "kernels/closest_pair_cache.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "kernels/kernels.h"
#include "util/check.h"

namespace umicro::kernels {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

void ClosestPairCache::NoteChanged(std::size_t i) {
  if (!valid_) return;
  UMICRO_DCHECK(i < state_.size());
  state_[i] = kDirty;
}

void ClosestPairCache::NoteAppend() {
  if (!valid_) return;
  nn_.push_back(0);
  d2_.push_back(kInfinity);
  lb_.push_back(0.0);
  state_.push_back(kDirty);
}

void ClosestPairCache::NoteRemove(std::size_t i) {
  if (!valid_) return;
  UMICRO_DCHECK(i < state_.size());
  const auto at = static_cast<std::ptrdiff_t>(i);
  nn_.erase(nn_.begin() + at);
  d2_.erase(d2_.begin() + at);
  lb_.erase(lb_.begin() + at);
  state_.erase(state_.begin() + at);
  for (std::size_t k = 0; k < nn_.size(); ++k) {
    if (nn_[k] == i) {
      // The old distance bounds every remaining row; the best offer is
      // gone with row i.
      if (state_[k] == kClean) {
        state_[k] = kBounded;
        lb_[k] = d2_[k];
      }
      d2_[k] = kInfinity;
    } else if (nn_[k] > i) {
      --nn_[k];
    }
  }
}

void ClosestPairCache::Find(const ClusterTable& table, Backend backend,
                            std::size_t* out_a, std::size_t* out_b,
                            double* out_d2) {
  const std::size_t q = table.rows();
  UMICRO_CHECK(q >= 2);
  if (!valid_) {
    Rebuild(table, backend);
  } else {
    UMICRO_DCHECK(nn_.size() == q);
    pending_.clear();
    for (std::size_t i = 0; i < q; ++i) {
      if (state_[i] == kDirty) {
        pending_.push_back(static_cast<std::uint32_t>(i));
      }
    }
    // A pending row costs q - 1 distances, the rebuild q(q - 1) / 2.
    if (2 * pending_.size() >= q) {
      Rebuild(table, backend);
    } else {
      // Dirty rows first: offering them to the other rows is what
      // uncovers the rows whose neighbour moved away.
      for (const std::uint32_t r : pending_) {
        RecomputeRow(table, backend, r, /*offer=*/true);
      }
      for (const std::uint32_t r : pending_) state_[r] = kClean;
      rows_scanned_ += pending_.size();
      // A bounded row's nearest distance is at least its bound, so it
      // can hold the closest pair only when the bound reaches the best
      // exact distance; at equality it may still win the tie-break.
      double best = kInfinity;
      for (std::size_t i = 0; i < q; ++i) {
        if (state_[i] == kClean && d2_[i] < best) best = d2_[i];
      }
      for (std::size_t i = 0; i < q; ++i) {
        if (state_[i] != kBounded || lb_[i] > best) continue;
        RecomputeRow(table, backend, i, /*offer=*/false);
        state_[i] = kClean;
        ++rows_scanned_;
        if (d2_[i] < best) best = d2_[i];
      }
    }
  }
  UMICRO_DCHECK(CheckInvariants(table, backend).empty());
  ClosestPairFromNeighbors(nn_.data(), d2_.data(), q, out_a, out_b, out_d2);
}

void ClosestPairCache::Rebuild(const ClusterTable& table, Backend backend) {
  const std::size_t q = table.rows();
  nn_.resize(q);
  d2_.resize(q);
  lb_.resize(q);
  state_.assign(q, kClean);
  ClosestCentroidNeighbors(table, backend, nn_.data(), d2_.data());
  rows_scanned_ += q;
  valid_ = true;
}

void ClosestPairCache::RecomputeRow(const ClusterTable& table,
                                    Backend backend, std::size_t i,
                                    bool offer) {
  const std::size_t q = table.rows();
  row_d2_.resize(q);
  RowPairDistances(table, backend, i, row_d2_.data());
  std::size_t best_j = q;
  double best_d2 = kInfinity;
  for (std::size_t j = 0; j < q; ++j) {
    if (j == i) continue;
    const double d2 = row_d2_[j];
    // Ascending j: a strict < keeps the smallest of equal distances,
    // as the rebuild kernel does.
    if (d2 < best_d2) {
      best_d2 = d2;
      best_j = j;
    }
    if (!offer || state_[j] == kDirty) continue;
    if (nn_[j] == i) {
      // i was j's entry, and every other row is at least d2_[j] away
      // from j (or lb_[j], which is no more, for a bounded j). So j
      // keeps i when i moved no farther; otherwise a clean j keeps its
      // old distance as its bound, with i as its best offer.
      if (d2 > d2_[j] && state_[j] == kClean) {
        state_[j] = kBounded;
        lb_[j] = d2_[j];
      }
      d2_[j] = d2;
    } else if (d2 < d2_[j] || (d2 == d2_[j] && i < nn_[j])) {
      nn_[j] = static_cast<std::uint32_t>(i);
      d2_[j] = d2;
    } else {
      continue;
    }
    // Strictly below the bound, no unoffered row can be as near (nor
    // tie with a smaller index): the offer is j's exact neighbour.
    if (state_[j] == kBounded && d2_[j] < lb_[j]) state_[j] = kClean;
  }
  nn_[i] = static_cast<std::uint32_t>(best_j);
  d2_[i] = best_d2;
}

std::string ClosestPairCache::CheckInvariants(const ClusterTable& table,
                                              Backend backend) const {
  if (!valid_) return "";
  const std::size_t q = table.rows();
  if (nn_.size() != q) {
    return "cache holds " + std::to_string(nn_.size()) + " rows, table " +
           std::to_string(q);
  }
  std::vector<double> row(q);
  for (std::size_t k = 0; k < q; ++k) {
    const std::string at = "row " + std::to_string(k) + ": ";
    if (state_[k] == kDirty) return at + "dirty outside a repair";
    RowPairDistances(table, backend, k, row.data());
    std::size_t best_j = q;
    double best_d2 = kInfinity;
    for (std::size_t j = 0; j < q; ++j) {
      if (j != k && row[j] < best_d2) {
        best_d2 = row[j];
        best_j = j;
      }
    }
    if (state_[k] == kClean &&
        (nn_[k] != best_j || !SameBits(d2_[k], best_d2))) {
      return at + "clean entry (" + std::to_string(nn_[k]) + ", " +
             std::to_string(d2_[k]) + ") but nearest is (" +
             std::to_string(best_j) + ", " + std::to_string(best_d2) + ")";
    }
    if (state_[k] == kBounded && !(lb_[k] <= best_d2)) {
      return at + "bound " + std::to_string(lb_[k]) +
             " exceeds nearest distance " + std::to_string(best_d2);
    }
    if (std::isfinite(d2_[k]) &&
        (nn_[k] >= q || nn_[k] == k || !SameBits(d2_[k], row[nn_[k]]))) {
      return at + "distance " + std::to_string(d2_[k]) +
             " is not the distance to row " + std::to_string(nn_[k]);
    }
  }
  return "";
}

}  // namespace umicro::kernels
