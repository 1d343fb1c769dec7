#include "kernels/closest_pair_cache.h"

#include <limits>

#include "kernels/kernels.h"
#include "util/check.h"

namespace umicro::kernels {

void ClosestPairCache::NoteChanged(std::size_t i) {
  if (!valid_) return;
  UMICRO_DCHECK(i < state_.size());
  state_[i] = kDirty;
}

void ClosestPairCache::NoteAppend() {
  if (!valid_) return;
  nn_.push_back(0);
  d2_.push_back(std::numeric_limits<double>::infinity());
  state_.push_back(kDirty);
}

void ClosestPairCache::NoteRemove(std::size_t i) {
  if (!valid_) return;
  UMICRO_DCHECK(i < state_.size());
  const auto at = static_cast<std::ptrdiff_t>(i);
  nn_.erase(nn_.begin() + at);
  d2_.erase(d2_.begin() + at);
  state_.erase(state_.begin() + at);
  for (std::size_t k = 0; k < nn_.size(); ++k) {
    if (nn_[k] == i) {
      if (state_[k] == kClean) state_[k] = kOrphan;
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
    std::size_t orphans = 0;
    for (std::size_t i = 0; i < q; ++i) {
      if (state_[i] == kDirty) {
        pending_.push_back(static_cast<std::uint32_t>(i));
      } else if (state_[i] == kOrphan) {
        ++orphans;
      }
    }
    // A pending row costs q - 1 distances, the rebuild q(q - 1) / 2.
    if (2 * (pending_.size() + orphans) >= q) {
      Rebuild(table, backend);
    } else {
      // Dirty rows first: offering them to the clean rows is what
      // uncovers the clean rows whose neighbour moved away.
      for (const std::uint32_t r : pending_) {
        RecomputeRow(table, backend, r, /*offer_to_clean=*/true);
      }
      for (const std::uint32_t r : pending_) state_[r] = kClean;
      for (std::size_t i = 0; i < q; ++i) {
        if (state_[i] != kOrphan) continue;
        RecomputeRow(table, backend, i, /*offer_to_clean=*/false);
        state_[i] = kClean;
      }
    }
  }
  ClosestPairFromNeighbors(nn_.data(), d2_.data(), q, out_a, out_b, out_d2);
}

void ClosestPairCache::Rebuild(const ClusterTable& table, Backend backend) {
  const std::size_t q = table.rows();
  nn_.resize(q);
  d2_.resize(q);
  state_.assign(q, kClean);
  ClosestCentroidNeighbors(table, backend, nn_.data(), d2_.data());
  valid_ = true;
}

void ClosestPairCache::RecomputeRow(const ClusterTable& table,
                                    Backend backend, std::size_t i,
                                    bool offer_to_clean) {
  const std::size_t q = table.rows();
  row_d2_.resize(q);
  RowPairDistances(table, backend, i, row_d2_.data());
  std::size_t best_j = q;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < q; ++j) {
    if (j == i) continue;
    const double d2 = row_d2_[j];
    // Ascending j: a strict < keeps the smallest of equal distances,
    // as the rebuild kernel does.
    if (d2 < best_d2) {
      best_d2 = d2;
      best_j = j;
    }
    if (!offer_to_clean || state_[j] != kClean) continue;
    if (nn_[j] == i) {
      // j's entry is a lower bound over every unchanged row; if i moved
      // no farther it is still j's nearest, otherwise j must rescan.
      if (d2 <= d2_[j]) {
        d2_[j] = d2;
      } else {
        state_[j] = kOrphan;
      }
    } else if (d2 < d2_[j] || (d2 == d2_[j] && i < nn_[j])) {
      nn_[j] = static_cast<std::uint32_t>(i);
      d2_[j] = d2;
    }
  }
  nn_[i] = static_cast<std::uint32_t>(best_j);
  d2_[i] = best_d2;
}

}  // namespace umicro::kernels
