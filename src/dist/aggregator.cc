#include "dist/aggregator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "io/state_io.h"
#include "net/frame.h"
#include "net/socket_stream.h"
#include "obs/scoped_timer.h"
#include "parallel/shard_merge.h"
#include "serve/server.h"

namespace umicro::dist {

namespace {

/// Poll slice for stop-flag checks inside blocking session reads.
constexpr int kPollSliceMs = 200;
/// Socket send timeout for ACK frames.
constexpr int kAckSendTimeoutMs = 10000;

}  // namespace

Aggregator::Aggregator(AggregatorOptions options,
                       obs::MetricsRegistry* metrics)
    : options_(std::move(options)),
      replica_(options_.snapshot, options_.decay_lambda) {
  primary_.store(!options_.start_as_standby, std::memory_order_relaxed);
  broker_ = std::make_unique<serve::QueryBroker>(&replica_, options_.broker,
                                                 metrics);
  if (metrics != nullptr) {
    deltas_applied_metric_ = &metrics->GetCounter("dist.agg.deltas_applied");
    deltas_duplicate_metric_ =
        &metrics->GetCounter("dist.agg.deltas_duplicate");
    bytes_metric_ = &metrics->GetCounter("dist.agg.bytes");
    merges_metric_ = &metrics->GetCounter("dist.agg.merges");
    merge_micros_ = &metrics->GetHistogram("dist.agg.merge_micros");
    merge_lag_gauge_ = &metrics->GetGauge("dist.agg.merge_lag_points");
    leaves_gauge_ = &metrics->GetGauge("dist.agg.leaves");
    sessions_metric_ = &metrics->GetCounter("dist.agg.sessions");
    query_sessions_metric_ = &metrics->GetCounter("dist.agg.query_sessions");
    protocol_errors_metric_ =
        &metrics->GetCounter("dist.agg.protocol_errors");
    promotions_metric_ = &metrics->GetCounter("dist.agg.promotions");
    stale_gauge_ = &metrics->GetGauge("dist.agg.leaf_stale");
  }
}

Aggregator::~Aggregator() { Stop(); }

bool Aggregator::Start() {
  listener_ = net::TcpListener::Listen(options_.listen);
  if (!listener_.has_value()) return false;
  port_ = listener_->port();
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void Aggregator::Stop() {
  if (stop_.exchange(true)) {
    // Second Stop(): everything below already ran or is running.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Shutdown (fd-read-only) wakes the accept poll; Close must wait
  // until the accept thread is gone or it races the fd read in Accept.
  if (listener_.has_value()) listener_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listener_.has_value()) listener_->Close();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& session : sessions_) session->socket.ShutdownBoth();
  }
  // Session threads observe the shutdown (EOF) or the stop flag within
  // one poll slice; joining outside sessions_mu_ is safe because the
  // vector only grows and the accept thread is already gone.
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
  }
  points_cv_.notify_all();
}

void Aggregator::AcceptLoop() {
  while (!stop_.load()) {
    std::optional<net::Socket> accepted = listener_->Accept(kPollSliceMs);
    ReapFinishedSessions();
    RefreshLiveness();
    if (!accepted.has_value()) continue;
    if (sessions_metric_ != nullptr) sessions_metric_->Increment();
    auto session = std::make_unique<Session>();
    session->socket = std::move(*accepted);
    Session* raw = session.get();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(std::move(session));
    }
    raw->thread = std::thread([this, raw] { RunSession(raw); });
  }
}

void Aggregator::ReapFinishedSessions() {
  std::vector<std::unique_ptr<Session>> finished;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& session : finished) {
    if (session->thread.joinable()) session->thread.join();
  }
}

void Aggregator::RunSession(Session* session) {
  // Sniff the first byte: the frame magic marks a leaf's framed delta
  // session, anything else a text query session. A peer that connects
  // and never sends anything is hung up on after io_timeout_ms -- the
  // slow-loris variant that would otherwise pin a session thread.
  unsigned char first = 0;
  bool sniffed = false;
  const auto sniff_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.io_timeout_ms);
  while (!stop_.load()) {
    bool timed_out = false;
    const long n = session->socket.PeekSome(&first, 1, kPollSliceMs,
                                            &timed_out);
    if (n > 0) {
      sniffed = true;
      break;
    }
    if (n < 0 || !timed_out) break;  // error or orderly close
    if (std::chrono::steady_clock::now() >= sniff_deadline) {
      if (protocol_errors_metric_ != nullptr) {
        protocol_errors_metric_->Increment();
      }
      break;
    }
  }
  if (sniffed && !stop_.load()) {
    if (first == net::kFrameMagic) {
      LeafSession(session->socket);
    } else {
      if (query_sessions_metric_ != nullptr) {
        query_sessions_metric_->Increment();
      }
      QuerySession(session->socket);
    }
  }
  // Prompt EOF toward the peer (a leaf whose session was refused would
  // otherwise sit out its full ACK timeout before retrying). Close is
  // left to the reaper/Stop() -- shutdown only reads the fd, so it
  // cannot race Stop()'s concurrent ShutdownBoth.
  session->socket.ShutdownBoth();
  session->done.store(true);
}

void Aggregator::LeafSession(net::Socket& socket) {
  net::FrameDecoder decoder;
  bool greeted = false;
  std::uint64_t session_leaf_id = 0;
  char buffer[16384];
  while (!stop_.load()) {
    bool timed_out = false;
    const long n = socket.RecvSome(buffer, sizeof(buffer), kPollSliceMs,
                                   &timed_out);
    if (n < 0 || (n == 0 && !timed_out)) return;
    if (n == 0) continue;
    if (bytes_metric_ != nullptr) {
      bytes_metric_->Increment(static_cast<std::uint64_t>(n));
    }
    decoder.Feed(buffer, static_cast<std::size_t>(n));
    if (decoder.corrupted()) {
      if (protocol_errors_metric_ != nullptr) {
        protocol_errors_metric_->Increment();
      }
      return;
    }
    while (std::optional<net::Frame> frame = decoder.Next()) {
      switch (frame->type) {
        case net::FrameType::kHello: {
          const std::optional<HelloMessage> hello =
              ParseHello(frame->payload);
          if (!hello.has_value() ||
              hello->dimensions != options_.dimensions) {
            if (protocol_errors_metric_ != nullptr) {
              protocol_errors_metric_->Increment();
            }
            return;
          }
          greeted = true;
          session_leaf_id = hello->leaf_id;
          break;
        }
        case net::FrameType::kDelta: {
          const std::optional<DeltaMessage> delta =
              ParseDelta(frame->payload);
          if (!greeted || !delta.has_value() || !ApplyDelta(*delta)) {
            if (protocol_errors_metric_ != nullptr) {
              protocol_errors_metric_->Increment();
            }
            return;
          }
          AckMessage ack;
          ack.leaf_id = delta->leaf_id;
          ack.seq = delta->seq;
          const std::string reply =
              net::EncodeFrame(net::FrameType::kAck, EncodeAck(ack));
          if (!socket.SendAll(reply.data(), reply.size(),
                              kAckSendTimeoutMs)) {
            return;
          }
          break;
        }
        case net::FrameType::kBye:
          if (greeted) MarkLeafFinished(session_leaf_id);
          return;
        case net::FrameType::kAck:
          // A leaf never sends ACKs; tolerate and ignore.
          break;
      }
    }
  }
}

void Aggregator::QuerySession(net::Socket& socket) {
  net::SocketStream stream(&socket, options_.io_timeout_ms);
  serve::ServerOptions serve_options;
  serve_options.status = [this] { return StatusSnapshot(); };
  serve::ServeLineProtocol(*broker_, stream, stream, serve_options);
  stream.flush();
  // A slow-loris peer (connected, then silent past io_timeout_ms) ends
  // the session through a read timeout, not an orderly close; count it.
  if (stream.timed_out() && protocol_errors_metric_ != nullptr) {
    protocol_errors_metric_->Increment();
  }
}

bool Aggregator::ApplyDelta(const DeltaMessage& delta) {
  if (delta.leaf_id > kMaxLeafId) return false;
  // A primary-flagged delta is the leaves' failover signal: they now
  // await this node's ACKs, so a standby promotes itself -- even when
  // the delta itself deduplicates (the warm-shipped copy got here
  // first, which is the common case right after a failover).
  if (delta.primary &&
      !primary_.exchange(true, std::memory_order_relaxed)) {
    if (promotions_metric_ != nullptr) promotions_metric_->Increment();
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = leaves_.find(delta.leaf_id);
    if (it != leaves_.end() && delta.seq <= it->second.seq) {
      // Replay of an already-applied delta (leaf retry after a lost
      // ACK, or a restarted leaf catching up): ack it again, apply
      // nothing -- idempotence. It still proves the leaf is alive.
      it->second.last_delta = std::chrono::steady_clock::now();
      if (deltas_duplicate_metric_ != nullptr) {
        deltas_duplicate_metric_->Increment();
      }
      return true;
    }
  }

  // Parse outside the lock: the checkpoint codec re-verifies the state
  // body checksum, so line noise that survived the frame checksum still
  // cannot reach the merge. Leaves run the sequential engine: a delta is
  // its single shard state, and any other state is a protocol error.
  std::optional<core::EngineState> state =
      io::ParseEngineState(delta.state_text);
  if (!state.has_value() || state->dimensions != options_.dimensions ||
      state->engine_kind != "umicro" || state->shard_states.size() != 1) {
    return false;
  }
  LeafEntry entry;
  entry.seq = delta.seq;
  entry.points = delta.points;
  entry.last_timestamp = state->last_timestamp;
  entry.last_delta = std::chrono::steady_clock::now();
  entry.clusters = std::move(state->shard_states[0].clusters);

  std::lock_guard<std::mutex> lock(state_mu_);
  LeafEntry& slot = leaves_[delta.leaf_id];
  if (delta.seq <= slot.seq) {
    // Raced with a newer delta from the same leaf on another session.
    if (deltas_duplicate_metric_ != nullptr) {
      deltas_duplicate_metric_->Increment();
    }
    return true;
  }
  slot = std::move(entry);
  ++deltas_applied_;
  if (deltas_applied_metric_ != nullptr) deltas_applied_metric_->Increment();
  RebuildMergedViewLocked();
  points_cv_.notify_all();
  return true;
}

void Aggregator::MarkLeafFinished(std::uint64_t leaf_id) {
  std::lock_guard<std::mutex> lock(state_mu_);
  const auto it = leaves_.find(leaf_id);
  if (it == leaves_.end()) return;
  it->second.finished = true;
  if (it->second.stale) RebuildMergedViewLocked();  // no longer excluded
}

void Aggregator::RefreshLiveness() {
  if (options_.stale_after_ms <= 0) return;
  std::lock_guard<std::mutex> lock(state_mu_);
  if (leaves_.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.stale_after_ms);
  bool changed = false;
  for (const auto& [leaf_id, entry] : leaves_) {
    const bool stale = !entry.finished && now - entry.last_delta > limit;
    if (stale != entry.stale) {
      changed = true;
      break;
    }
  }
  // The rebuild recomputes every flag and republishes the degraded (or
  // recovered) view; nothing to do while membership is unchanged.
  if (changed) RebuildMergedViewLocked();
}

void Aggregator::RebuildMergedViewLocked() {
  const obs::ScopedTimer timer(merge_micros_);
  // Re-evaluate staleness first: a stale leaf keeps its progress
  // accounting (total_points, merge lag) but is left out of the merged
  // view, so queries answer from the live part of the fleet.
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(
      options_.stale_after_ms > 0 ? options_.stale_after_ms : 0);
  stale_count_ = 0;
  for (auto& [leaf_id, entry] : leaves_) {
    entry.stale = options_.stale_after_ms > 0 && !entry.finished &&
                  now - entry.last_delta > limit;
    if (entry.stale) ++stale_count_;
  }
  if (stale_gauge_ != nullptr) {
    stale_gauge_->Set(static_cast<double>(stale_count_));
  }
  // Shard slot = leaf id (dense ids), so the merged view's id tagging is
  // exactly the in-process sharded engine's regardless of which leaves
  // have reported yet.
  std::uint64_t max_id = 0;
  for (const auto& [leaf_id, entry] : leaves_) {
    max_id = std::max(max_id, leaf_id);
  }
  std::vector<const core::LabeledFrame*> shard_sets(max_id + 1, nullptr);
  double newest = 0.0;
  std::uint64_t min_points = 0, max_points = 0;
  bool first = true;
  for (const auto& [leaf_id, entry] : leaves_) {
    min_points = first ? entry.points : std::min(min_points, entry.points);
    max_points = std::max(max_points, entry.points);
    first = false;
    if (entry.stale) continue;
    shard_sets[leaf_id] = &entry.clusters;
    newest = std::max(newest, entry.last_timestamp);
  }
  parallel::ShardMergeOptions merge_options;
  merge_options.dimensions = options_.dimensions;
  merge_options.dimension_threshold = options_.dimension_threshold;
  merge_options.global_budget = options_.global_budget;
  merged_ = parallel::MergeShardClusterSets(shard_sets, merge_options);
  merged_.frame.time = newest;
  if (merges_metric_ != nullptr) merges_metric_->Increment();
  if (merge_lag_gauge_ != nullptr) {
    merge_lag_gauge_->Set(static_cast<double>(max_points - min_points));
  }
  if (leaves_gauge_ != nullptr) {
    leaves_gauge_->Set(static_cast<double>(leaves_.size()));
  }

  // Publish to the replica the query broker reads, as one history frame
  // per rebuild so horizon queries reach back across applied deltas.
  // state_mu_ serializes every publication, honoring the SnapshotSink
  // single-publisher contract.
  const std::uint64_t tick = ++rebuilds_;
  replica_.PublishSnapshot(tick,
                           std::make_shared<const core::Snapshot>(merged_.frame));
}

std::uint64_t Aggregator::total_points() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::uint64_t total = 0;
  for (const auto& [leaf_id, entry] : leaves_) total += entry.points;
  return total;
}

bool Aggregator::WaitForPoints(std::uint64_t n, int timeout_ms) {
  std::unique_lock<std::mutex> lock(state_mu_);
  return points_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [this, n] {
                               if (stop_.load()) return true;
                               std::uint64_t total = 0;
                               for (const auto& [id, entry] : leaves_) {
                                 total += entry.points;
                               }
                               return total >= n;
                             }) &&
         !stop_.load();
}

core::LabeledFrame Aggregator::MergedClusters() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return merged_;
}

std::size_t Aggregator::leaves_known() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return leaves_.size();
}

std::uint64_t Aggregator::deltas_applied() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return deltas_applied_;
}

std::size_t Aggregator::stale_leaves() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stale_count_;
}

bool Aggregator::degraded() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stale_count_ > 0;
}

serve::ServeStatus Aggregator::StatusSnapshot() const {
  serve::ServeStatus status;
  status.role = role();
  std::lock_guard<std::mutex> lock(state_mu_);
  status.degraded = stale_count_ > 0;
  status.leaves = leaves_.size();
  status.stale_leaves = stale_count_;
  status.deltas_applied = deltas_applied_;
  return status;
}

}  // namespace umicro::dist
