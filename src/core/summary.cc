#include "core/summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

namespace umicro::core {

std::string SummarizeClusters(const LabeledFrame& clusters,
                              const SummaryOptions& options) {
  // Sort indices by weight, heaviest first; equal weights (the norm
  // without decay, where weights are point counts) by ascending id.
  const Snapshot& frame = clusters.frame;
  std::vector<std::size_t> order(frame.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (frame.weight(a) != frame.weight(b)) {
      return frame.weight(a) > frame.weight(b);
    }
    return frame.id(a) < frame.id(b);
  });
  const std::size_t shown =
      options.top == 0 ? order.size()
                       : std::min(options.top, order.size());

  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%6s %10s %10s %10s %8s  %s\n", "id",
                "weight", "radius", "mean-err", "label", "centroid");
  out << line;
  const std::size_t d = frame.dims();
  for (std::size_t rank = 0; rank < shown; ++rank) {
    const std::size_t i = order[rank];
    const double n = frame.weight(i);
    if (n <= 0.0) continue;
    // Mean per-dimension error stddev from EF2: sqrt(mean EF2_j / n).
    double ef2_sum = 0.0;
    for (std::size_t j = 0; j < d; ++j) ef2_sum += frame.ef2(i)[j];
    const double mean_error =
        std::sqrt(ef2_sum / (static_cast<double>(d) * n));

    int dominant = stream::kUnlabeled;
    double best = 0.0;
    for (const auto& [label, weight] : clusters.labels[i]) {
      if (weight > best) {
        best = weight;
        dominant = label;
      }
    }
    std::string label_text =
        dominant == stream::kUnlabeled ? "-" : std::to_string(dominant);

    const double radius = std::sqrt(UncertainRadiusSquared(
        frame.cf1(i), frame.cf2(i), frame.ef2(i), n, d));
    std::snprintf(line, sizeof(line), "%6llu %10.1f %10.3f %10.3f %8s  ",
                  static_cast<unsigned long long>(frame.id(i)), n, radius,
                  mean_error, label_text.c_str());
    out << line;
    out << '(';
    const std::size_t dims_shown = std::min(options.max_dims, d);
    for (std::size_t j = 0; j < dims_shown; ++j) {
      if (j > 0) out << ", ";
      std::snprintf(line, sizeof(line), "%.3g", frame.cf1(i)[j] / n);
      out << line;
    }
    if (dims_shown < d) out << ", ...";
    out << ")\n";
  }
  if (shown < order.size()) {
    std::snprintf(line, sizeof(line), "... and %zu more clusters\n",
                  order.size() - shown);
    out << line;
  }
  return out.str();
}

}  // namespace umicro::core
