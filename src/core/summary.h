// Human-readable summaries of a micro-clustering.

#ifndef UMICRO_CORE_SUMMARY_H_
#define UMICRO_CORE_SUMMARY_H_

#include <cstddef>
#include <string>

#include "core/microcluster.h"

namespace umicro::core {

/// Options for the textual cluster summary.
struct SummaryOptions {
  /// Show at most this many clusters (heaviest first); 0 = all.
  std::size_t top = 10;
  /// Show at most this many centroid coordinates per cluster.
  std::size_t max_dims = 6;
};

/// Renders a fixed-width table of the clusters, heaviest first and ties
/// by ascending id: id, weight, uncertain radius, mean per-dimension
/// error, dominant label (when histograms are populated), and the
/// leading centroid coordinates.
std::string SummarizeClusters(const LabeledFrame& clusters,
                              const SummaryOptions& options = {});

}  // namespace umicro::core

#endif  // UMICRO_CORE_SUMMARY_H_
