#include "core/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>

#include "util/check.h"

namespace umicro::core {

namespace {
/// Absolute weight floor below which a subtracted cluster is empty.
constexpr double kMinResidualWeight = 1e-9;
/// Relative floor: a residual lighter than this fraction of the weight
/// that was subtracted from it is floating-point cancellation noise,
/// not window mass (its centroid would be noise divided by noise).
constexpr double kMinResidualFraction = 1e-6;

/// Fixed per-frame overhead charged by the byte accounting (container
/// headers, tick/time/encoding metadata).
constexpr std::size_t kFrameOverheadBytes = 64;

/// Per-cluster bookkeeping outside the three statistic rows: the
/// record's id, creation_time, weight and last_update_time slots.
constexpr std::size_t kClusterHeaderBytes = 32;

std::size_t ExactClusterBytes(std::size_t dims) {
  return kClusterHeaderBytes + 3 * dims * sizeof(double);
}

/// Record index of every id in `frame`, as (id, index) pairs sorted in
/// one block. A node-per-record hash map made lookup cost depend on
/// where the allocator placed the nodes: horizon-query latency moved by
/// a third between builds that differed only in an unrelated object's
/// size.
class IdIndex {
 public:
  explicit IdIndex(const Snapshot& frame) {
    sorted_.reserve(frame.size());
    for (std::size_t i = 0; i < frame.size(); ++i) {
      sorted_.emplace_back(frame.id(i), i);
    }
    std::sort(sorted_.begin(), sorted_.end());
  }

  /// Index of the first record with `id`; nullopt when there is none.
  std::optional<std::size_t> Find(std::uint64_t id) const {
    const auto it = std::lower_bound(sorted_.begin(), sorted_.end(),
                                     std::make_pair(id, std::size_t{0}));
    if (it == sorted_.end() || it->first != id) return std::nullopt;
    return it->second;
  }

 private:
  std::vector<std::pair<std::uint64_t, std::size_t>> sorted_;
};

/// Reconstructs a delta frame on top of its materialized parent. nullopt
/// on structural corruption (an id with no donor record anywhere, or a
/// donor of another dimensionality).
std::optional<Snapshot> ApplyDelta(const EncodedFrame& frame,
                                   const Snapshot& parent) {
  // Records are copied whole, so every donor must share the frame's
  // dimensionality.
  if ((!frame.changed.empty() && frame.changed.dims() != frame.dims) ||
      (!parent.empty() && !frame.ids.empty() && parent.dims() != frame.dims)) {
    return std::nullopt;
  }
  const IdIndex changed_by_id(frame.changed);
  const IdIndex parent_by_id(parent);

  Snapshot out(frame.time, frame.dims, frame.ids.size());
  for (std::uint64_t id : frame.ids) {
    if (const auto changed = changed_by_id.Find(id)) {
      out.AppendRecord(frame.changed.record(*changed));
      continue;
    }
    const auto donor = parent_by_id.Find(id);
    if (!donor.has_value()) return std::nullopt;
    out.AppendRecord(parent.record(*donor));
  }
  return out;
}
}  // namespace

Snapshot::Snapshot(double time, std::size_t dims, std::size_t capacity)
    : time(time), dims_(dims) {
  UMICRO_CHECK(dims <= (records_.max_size() - kHeaderSlots) / 3);
  UMICRO_CHECK(capacity <= records_.max_size() / RecordSize(dims));
  records_.reserve(capacity * RecordSize(dims));
}

Snapshot Snapshot::FromStates(double time,
                              std::span<const MicroClusterState> states) {
  const std::size_t d =
      states.empty() ? 0 : states.front().ecf.dimensions();
  Snapshot frame(time, d, states.size());
  for (const MicroClusterState& state : states) {
    UMICRO_CHECK_MSG(state.ecf.dimensions() == d,
                     "mixed dimensionality inside one snapshot frame");
    frame.Append(state.id, state.creation_time, state.ecf.weight(),
                 state.ecf.last_update_time(), state.ecf.cf1().data(),
                 state.ecf.cf2().data(), state.ecf.ef2().data());
  }
  return frame;
}

MicroClusterState Snapshot::State(std::size_t i) const {
  const std::size_t d = dims_;
  return {id(i), creation_time(i),
          ErrorClusterFeature::FromRaw({cf1(i), cf1(i) + d},
                                       {cf2(i), cf2(i) + d},
                                       {ef2(i), ef2(i) + d}, weight(i),
                                       last_update_time(i))};
}

void Snapshot::Append(std::uint64_t id, double creation_time, double weight,
                      double last_update_time, const double* cf1,
                      const double* cf2, const double* ef2) {
  const double header[kHeaderSlots] = {std::bit_cast<double>(id),
                                       creation_time, weight,
                                       last_update_time};
  records_.insert(records_.end(), header, header + kHeaderSlots);
  records_.insert(records_.end(), cf1, cf1 + dims_);
  records_.insert(records_.end(), cf2, cf2 + dims_);
  records_.insert(records_.end(), ef2, ef2 + dims_);
  ++size_;
}

void Snapshot::AppendRecord(const double* record) {
  records_.insert(records_.end(), record, record + RecordSize(dims_));
  ++size_;
}

SnapshotStore::SnapshotStore(std::size_t alpha, std::size_t l)
    : SnapshotStore(alpha, l, SnapshotTiering{}) {}

SnapshotStore::SnapshotStore(std::size_t alpha, std::size_t l,
                             SnapshotTiering tiering)
    : alpha_(alpha), l_(l), tiering_(std::move(tiering)) {
  UMICRO_CHECK(alpha >= 2);
  UMICRO_CHECK(l >= 1);
  double capacity = 1.0;
  for (std::size_t i = 0; i < l; ++i) capacity *= static_cast<double>(alpha);
  UMICRO_CHECK_MSG(capacity <= 1e9, "alpha^l too large to retain");
  capacity_per_order_ = static_cast<std::size_t>(capacity) + 1;
}

std::size_t SnapshotStore::OrderOf(std::uint64_t tick) const {
  UMICRO_CHECK(tick >= 1);
  std::size_t order = 0;
  while (tick % alpha_ == 0) {
    tick /= alpha_;
    ++order;
  }
  return order;
}

bool FrameRank::operator()(const FrameKey& a, const FrameKey& b) const {
  if (pick == FramePick::kNearest) {
    const double da = std::abs(a.time - target);
    const double db = std::abs(b.time - target);
    if (da != db) return da < db;
  }
  // The later time first; equal-time frames (coarse input timestamps)
  // resolve to the newest tick.
  return a.time != b.time ? a.time > b.time : a.tick > b.tick;
}

void SnapshotStore::EncodeDelta(EncodedFrame& frame, const Snapshot& parent) {
  UMICRO_CHECK(frame.encoding == FrameEncoding::kFull);
  const Snapshot& full = *frame.full;
  const IdIndex parent_by_id(parent);
  // Bitwise record equality, not operator== on doubles: -0.0 vs 0.0 and
  // NaN payloads must count as changes for reconstruction to be
  // bit-identical. Records of another dimensionality never match.
  const bool comparable = parent.dims() == full.dims();
  const std::size_t record_bytes =
      Snapshot::RecordSize(full.dims()) * sizeof(double);
  std::vector<std::size_t> changed;
  frame.ids.reserve(full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    frame.ids.push_back(full.id(i));
    const auto donor = parent_by_id.Find(full.id(i));
    if (!donor.has_value() || !comparable ||
        std::memcmp(full.record(i), parent.record(*donor), record_bytes) !=
            0) {
      changed.push_back(i);
    }
  }
  frame.changed = Snapshot(full.time, full.dims(), changed.size());
  for (std::size_t i : changed) frame.changed.AppendRecord(full.record(i));
  frame.full.reset();
  frame.encoding = FrameEncoding::kDelta;
}

std::optional<std::uint64_t> SnapshotStore::Insert(
    std::uint64_t tick, std::shared_ptr<const Snapshot> snapshot) {
  UMICRO_CHECK(snapshot != nullptr);
  UMICRO_CHECK_MSG(tick > last_tick_, "ticks must be strictly increasing");
  last_tick_ = tick;
  const std::size_t order = OrderOf(tick);
  if (order >= orders_.size()) orders_.resize(order + 1);
  auto& ring = orders_[order];

  // The new frame becomes the ring head; in delta mode the previous
  // head turns warm and keeps only what differs from it.
  if (tiering_.mode != SnapshotStoreMode::kFull && !ring.empty() &&
      ring.back().encoding == FrameEncoding::kFull) {
    EncodeDelta(ring.back(), *snapshot);
  }

  EncodedFrame frame;
  frame.tick = tick;
  frame.time = snapshot->time;
  frame.encoding = FrameEncoding::kFull;
  frame.cluster_count = snapshot->size();
  frame.dims = snapshot->dims();
  frame.full = std::move(snapshot);
  ring.push_back(std::move(frame));
  std::optional<std::uint64_t> evicted;
  if (ring.size() > capacity_per_order_) {
    evicted = ring.front().tick;
    ring.pop_front();
  }
  return evicted;
}

std::optional<Snapshot> SnapshotStore::MaterializeIndex(
    const std::deque<EncodedFrame>& ring, std::size_t index) const {
  // Delta chains resolve rightwards: each warm frame's parent is the
  // next-newer frame in the same ring, and the chain ends at the first
  // kFull frame (the ring head at the latest).
  std::size_t base_index = index;
  while (base_index < ring.size() &&
         ring[base_index].encoding == FrameEncoding::kDelta) {
    ++base_index;
  }
  if (base_index >= ring.size()) return std::nullopt;
  std::optional<Snapshot> snapshot = *ring[base_index].full;
  while (snapshot.has_value() && base_index > index) {
    --base_index;
    snapshot = ApplyDelta(ring[base_index], *snapshot);
    ++reconstructions_;
  }
  return snapshot;
}

std::optional<Snapshot> SnapshotStore::MaterializeFrame(
    std::size_t order, std::size_t index) const {
  return MaterializeIndex(orders_[order], index);
}

std::shared_ptr<const Snapshot> SnapshotStore::SharedFrame(
    const std::deque<EncodedFrame>& ring, std::size_t index) const {
  if (ring[index].encoding == FrameEncoding::kFull) return ring[index].full;
  std::optional<Snapshot> snapshot = MaterializeIndex(ring, index);
  if (!snapshot.has_value()) return nullptr;
  return std::make_shared<const Snapshot>(std::move(*snapshot));
}

std::shared_ptr<const Snapshot> SnapshotStore::Find(double target,
                                                    FramePick pick) const {
  struct Candidate {
    FrameKey key;
    std::size_t order;
    std::size_t index;
  };
  const FrameRank rank{target, pick};
  std::vector<Candidate> candidates;
  for (std::size_t order = 0; order < orders_.size(); ++order) {
    for (std::size_t i = 0; i < orders_[order].size(); ++i) {
      const FrameKey key{orders_[order][i].time, orders_[order][i].tick};
      if (rank.Admits(key)) candidates.push_back({key, order, i});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&rank](const Candidate& a, const Candidate& b) {
              return rank(a.key, b.key);
            });
  // Skip-and-degrade: a frame that fails to materialize is not an
  // error, the next-best retained frame answers instead.
  for (const Candidate& c : candidates) {
    auto frame = SharedFrame(orders_[c.order], c.index);
    if (frame != nullptr) return frame;
  }
  return nullptr;
}

std::optional<Snapshot> SnapshotStore::FindAtOrBefore(double time) const {
  auto frame = Find(time, FramePick::kAtOrBefore);
  if (frame == nullptr) return std::nullopt;
  return *frame;
}

std::optional<Snapshot> SnapshotStore::FindNearest(double time) const {
  auto frame = Find(time, FramePick::kNearest);
  if (frame == nullptr) return std::nullopt;
  return *frame;
}

void SnapshotStore::PrimeSink(SnapshotSink& sink) const {
  // Rings interleave in time; a sink inserts ticks in increasing order.
  std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>> by_tick;
  for (std::size_t order = 0; order < orders_.size(); ++order) {
    for (std::size_t i = 0; i < orders_[order].size(); ++i) {
      by_tick.emplace_back(orders_[order][i].tick, order, i);
    }
  }
  std::sort(by_tick.begin(), by_tick.end());
  for (const auto& [tick, order, index] : by_tick) {
    auto frame = SharedFrame(orders_[order], index);
    if (frame != nullptr) sink.PublishSnapshot(tick, std::move(frame));
  }
}

std::size_t SnapshotStore::FrameBytes(const EncodedFrame& frame) {
  std::size_t bytes = kFrameOverheadBytes;
  switch (frame.encoding) {
    case FrameEncoding::kFull:
      bytes += frame.cluster_count * ExactClusterBytes(frame.dims);
      break;
    case FrameEncoding::kDelta:
      bytes += frame.ids.size() * sizeof(std::uint64_t) +
               frame.changed.size() * ExactClusterBytes(frame.dims);
      break;
  }
  return bytes;
}

std::size_t SnapshotStore::FullEquivalentBytes(const EncodedFrame& frame) {
  return kFrameOverheadBytes +
         frame.cluster_count * ExactClusterBytes(frame.dims);
}

SnapshotTierStats SnapshotStore::TierStats() const {
  SnapshotTierStats stats;
  for (const auto& ring : orders_) {
    for (const auto& frame : ring) {
      ++stats.frames;
      stats.delta_frames += frame.encoding == FrameEncoding::kDelta;
      stats.approx_bytes += FrameBytes(frame);
      stats.full_equivalent_bytes += FullEquivalentBytes(frame);
    }
  }
  stats.delta_ratio =
      stats.full_equivalent_bytes == 0
          ? 1.0
          : static_cast<double>(stats.approx_bytes) /
                static_cast<double>(stats.full_equivalent_bytes);
  stats.reconstructions = reconstructions_;
  return stats;
}

SnapshotStoreState SnapshotStore::ExportState() const {
  SnapshotStoreState state;
  state.last_tick = last_tick_;
  state.alpha = alpha_;
  state.l = l_;
  state.orders.reserve(orders_.size());
  for (const auto& ring : orders_) {
    state.orders.emplace_back(ring.begin(), ring.end());
  }
  return state;
}

bool SnapshotStore::RestoreState(const SnapshotStoreState& state,
                                 std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  if (state.alpha != alpha_ || state.l != l_) {
    return fail("snapshot store geometry mismatch: state written under alpha=" +
                std::to_string(state.alpha) + " l=" + std::to_string(state.l) +
                " but store is configured with alpha=" +
                std::to_string(alpha_) + " l=" + std::to_string(l_) +
                "; refusing to restore (order rings would be silently "
                "truncated or overfilled)");
  }
  for (std::size_t order = 0; order < state.orders.size(); ++order) {
    const auto& ring = state.orders[order];
    if (ring.size() > capacity_per_order_) {
      return fail("order " + std::to_string(order) + " ring holds " +
                  std::to_string(ring.size()) + " frames, capacity is " +
                  std::to_string(capacity_per_order_));
    }
    std::uint64_t prev_tick = 0;
    for (const auto& frame : ring) {
      if (frame.tick == 0 || frame.tick <= prev_tick) {
        return fail("order " + std::to_string(order) +
                    " frame ticks are not strictly increasing");
      }
      prev_tick = frame.tick;
      if (frame.tick > state.last_tick) {
        return fail("frame tick " + std::to_string(frame.tick) +
                    " is newer than the store's last tick " +
                    std::to_string(state.last_tick));
      }
      if (OrderOf(frame.tick) != order) {
        return fail("tick " + std::to_string(frame.tick) +
                    " classifies at order " +
                    std::to_string(OrderOf(frame.tick)) +
                    " but was stored in ring " + std::to_string(order));
      }
      switch (frame.encoding) {
        case FrameEncoding::kFull:
          if (frame.full == nullptr ||
              frame.full->size() != frame.cluster_count ||
              (frame.cluster_count > 0 && frame.full->dims() != frame.dims)) {
            return fail("full frame at tick " + std::to_string(frame.tick) +
                        " has inconsistent cluster count or dims");
          }
          break;
        case FrameEncoding::kDelta:
          if (frame.ids.size() != frame.cluster_count ||
              frame.changed.size() > frame.ids.size() ||
              (!frame.changed.empty() && frame.changed.dims() != frame.dims)) {
            return fail("delta frame at tick " + std::to_string(frame.tick) +
                        " has inconsistent id/changed counts");
          }
          break;
      }
    }
    if (!ring.empty() && ring.back().encoding == FrameEncoding::kDelta) {
      return fail("order " + std::to_string(order) +
                  " ring head is a delta frame with no parent to resolve "
                  "against");
    }
  }

  last_tick_ = state.last_tick;
  orders_.clear();
  orders_.resize(state.orders.size());
  for (std::size_t i = 0; i < state.orders.size(); ++i) {
    orders_[i].assign(state.orders[i].begin(), state.orders[i].end());
    // Frames are immutable, so restore shares them; only a frame whose
    // own time disagrees with its header is copied to carry the header's.
    for (EncodedFrame& frame : orders_[i]) {
      if (frame.encoding != FrameEncoding::kFull ||
          frame.full->time == frame.time) {
        continue;
      }
      auto copy = std::make_shared<Snapshot>(*frame.full);
      copy->time = frame.time;
      frame.full = std::move(copy);
    }
  }
  return true;
}

std::size_t SnapshotStore::TotalStored() const {
  std::size_t total = 0;
  for (const auto& ring : orders_) total += ring.size();
  return total;
}

std::vector<MicroClusterState> SubtractSnapshot(const Snapshot& current,
                                                const Snapshot& older,
                                                double decay_lambda) {
  UMICRO_CHECK(older.time <= current.time);
  UMICRO_CHECK(decay_lambda >= 0.0);
  // Live ECFs have been decayed to current.time while the stored ones
  // froze at older.time; bring the older statistics forward to the same
  // reference instant before subtracting.
  double decay_factor =
      decay_lambda > 0.0
          ? std::exp2(-decay_lambda * (current.time - older.time))
          : 1.0;
  // A factor that underflowed to the denormal range carries no usable
  // mass; flush it to zero so the scaled statistics below are exact
  // zeros rather than denormal noise.
  if (decay_factor < std::numeric_limits<double>::min()) decay_factor = 0.0;
  const IdIndex older_by_id(older);
  const std::size_t d = current.dims();

  std::vector<MicroClusterState> result;
  result.reserve(current.size());
  for (std::size_t i = 0; i < current.size(); ++i) {
    const auto found = older_by_id.Find(current.id(i));
    if (!found.has_value()) {
      // Created inside the horizon: keep whole.
      result.push_back(current.State(i));
      continue;
    }
    const std::size_t o = *found;
    // The older record, read in place: ErrorClusterFeature::Scale then
    // ::Subtract, operation for operation, so the residual is what the
    // ECF arithmetic gives.
    const bool scale = decay_factor != 1.0;
    const double subtracted_weight =
        scale ? older.weight(o) * decay_factor : older.weight(o);
    double weight = current.weight(i);
    const bool subtract = subtracted_weight > kMinResidualWeight;
    if (subtract) weight -= subtracted_weight;
    // When the older contribution has fully decayed (zero/denormal
    // weight), nothing is subtracted: whatever mass the live cluster
    // still has is genuine window mass -- but it must itself clear the
    // absolute floor, otherwise the "window" is just the decayed husk of
    // pre-horizon points and belongs to the empty window. An
    // over-subtracted cluster (weight <= 0) is empty and never clears it.
    const double floor = std::max(kMinResidualWeight,
                                  kMinResidualFraction * subtracted_weight);
    if (!(weight > floor)) continue;
    std::vector<double> cf1(current.cf1(i), current.cf1(i) + d);
    std::vector<double> cf2(current.cf2(i), current.cf2(i) + d);
    std::vector<double> ef2(current.ef2(i), current.ef2(i) + d);
    if (subtract) {
      UMICRO_CHECK(older.dims() == d);
      const double* ocf1 = older.cf1(o);
      const double* ocf2 = older.cf2(o);
      const double* oef2 = older.ef2(o);
      for (std::size_t j = 0; j < d; ++j) {
        const double s1 = scale ? ocf1[j] * decay_factor : ocf1[j];
        const double s2 = scale ? ocf2[j] * decay_factor : ocf2[j];
        const double s3 = scale ? oef2[j] * decay_factor : oef2[j];
        cf1[j] -= s1;
        cf2[j] = std::max(0.0, cf2[j] - s2);
        ef2[j] = std::max(0.0, ef2[j] - s3);
      }
    }
    result.push_back({current.id(i), current.creation_time(i),
                      ErrorClusterFeature::FromRaw(
                          std::move(cf1), std::move(cf2), std::move(ef2),
                          weight, current.last_update_time(i))});
  }
  return result;
}

}  // namespace umicro::core
