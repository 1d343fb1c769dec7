// LeafShipper: the leaf side of the merge tree's delta plane.
//
// A leaf ingester runs a sequential engine on its substream and, every
// `--delta-every` points, hands the engine's exported state here.
// ShipState() is synchronous and at-least-once: it (re)connects to an
// aggregator with capped exponential backoff, sends HELLO + the framed
// delta through a net::PeerSender, and waits for the matching ACK. A
// straggling aggregator (no ACK within `ack_timeout_ms`) or a dead link
// triggers a reconnect and a re-send of the same delta; replacement
// semantics plus the sequence number make every re-send idempotent on
// the aggregator, so at-least-once delivery yields exactly-once
// application.
//
// Failover (docs/distributed.md): the shipper holds an ordered endpoint
// list -- the primary aggregator first, then `standbys`. Each delta is
// acked by the first endpoint that answers (tried in order), and after
// the ack it is warm-shipped best-effort to the remaining endpoints so
// a standby converges to the same merged view. When the head endpoint
// dies, the first standby that acks is promoted to the front of the
// shipping order; the delta it acked carries the primary flag, which
// tells a standby aggregator to promote itself. State replacement makes
// any warm-ship gap harmless: the next acked delta replaces everything.
//
// Metrics (in the registry passed at construction): dist.leaf.deltas,
// dist.leaf.bytes, dist.leaf.acks, dist.leaf.resends,
// dist.leaf.reconnects, dist.leaf.ship_micros, dist.leaf.backoff_ms,
// dist.leaf.attempts_exhausted, dist.leaf.promotions.

#ifndef UMICRO_DIST_LEAF_H_
#define UMICRO_DIST_LEAF_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/peer.h"
#include "net/reconnect.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace umicro::dist {

/// Shipper configuration.
struct LeafShipperOptions {
  /// This leaf's identity = its shard slot in the merged view (dense,
  /// starting at 0).
  std::uint64_t leaf_id = 0;
  /// Stream dimensionality (announced in HELLO; the aggregator refuses
  /// a mismatch).
  std::size_t dimensions = 0;
  /// Straggler timeout: no ACK within this window tears the link down
  /// and re-sends the delta over a fresh connection.
  int ack_timeout_ms = 5000;
  /// Per-connect timeout.
  int connect_timeout_ms = 2000;
  /// Send attempts per delta; 0 retries until Stop().
  std::size_t max_attempts = 0;
  /// Reconnect backoff ladder (per endpoint).
  net::BackoffOptions backoff;
  /// Outgoing queue bounds.
  net::PeerSenderOptions sender;
  /// Standby aggregator endpoints, tried in order after the primary.
  std::vector<net::SocketAddress> standbys;
};

/// Synchronous, at-least-once delta shipper over a primary + standby
/// aggregator endpoint list.
class LeafShipper {
 public:
  /// `metrics` (optional) receives the dist.leaf.* instruments.
  LeafShipper(net::SocketAddress aggregator, LeafShipperOptions options,
              obs::MetricsRegistry* metrics = nullptr);
  ~LeafShipper();

  LeafShipper(const LeafShipper&) = delete;
  LeafShipper& operator=(const LeafShipper&) = delete;

  /// Ships the state as delta `seq` (per-leaf monotone, 1-based) and
  /// blocks until some endpoint acks it. Returns false only when
  /// stopped or `max_attempts` is exhausted.
  bool ShipState(std::uint64_t seq, std::uint64_t points,
                 const std::string& state_text);

  /// Sends an orderly BYE (best effort) to every connected endpoint and
  /// closes the links.
  void Finish();

  /// Aborts any in-flight ShipState (it returns false) and closes.
  void Stop();

  /// Deltas acked so far.
  std::uint64_t deltas_acked() const {
    return acked_.load(std::memory_order_relaxed);
  }
  /// Successful (re)connections so far, over all endpoints.
  std::uint64_t connects() const {
    return connects_.load(std::memory_order_relaxed);
  }
  /// Straggler-timeout re-sends so far.
  std::uint64_t resends() const {
    return resends_.load(std::memory_order_relaxed);
  }
  /// Shipping-order rotations (a standby took over the front).
  std::uint64_t promotions() const {
    return promotions_.load(std::memory_order_relaxed);
  }
  /// ShipState calls that gave up after `max_attempts`.
  std::uint64_t attempts_exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  /// Address currently first in the shipping order.
  net::SocketAddress current_primary() const;

 private:
  /// One aggregator endpoint's link state. Sockets/senders are guarded
  /// by mu_ for creation/teardown; only the shipping thread reads them.
  struct Endpoint {
    Endpoint(net::SocketAddress a, net::BackoffOptions b)
        : address(std::move(a)), backoff(b) {}
    net::SocketAddress address;
    net::Socket socket;
    std::unique_ptr<net::PeerSender> sender;
    net::Backoff backoff;
    /// Connect attempts are gated until this instant after a failure.
    std::chrono::steady_clock::time_point retry_after{};
  };

  /// True when the endpoint has a live link (connecting + HELLO now if
  /// its backoff gate allows). Never sleeps.
  bool EndpointReady(Endpoint& endpoint);
  /// Tears the endpoint's link down; `gate` additionally arms its
  /// backoff gate so reconnect probes don't hot-loop.
  void TeardownEndpoint(Endpoint& endpoint, bool gate);
  /// Reads frames off the endpoint until the matching ACK, a hiccup, or
  /// the ack deadline.
  bool AwaitAck(Endpoint& endpoint, std::uint64_t seq);
  /// Moves order_[pos] to the front of the shipping order.
  void PromoteToFront(std::size_t pos);
  /// Best-effort delivery of the standby-flagged frame to every
  /// endpoint behind the front one.
  void WarmShipStandbys(const std::string& frame);
  /// Milliseconds until the earliest endpoint's backoff gate opens.
  int NextRetryDelayMs() const;
  /// Sleeps `ms`, waking early on Stop(); false when stopped.
  bool InterruptibleSleep(int ms);

  const LeafShipperOptions options_;

  obs::Counter* deltas_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
  obs::Counter* acks_metric_ = nullptr;
  obs::Counter* resends_metric_ = nullptr;
  obs::Counter* reconnects_metric_ = nullptr;
  obs::Histogram* ship_micros_ = nullptr;
  obs::Gauge* backoff_gauge_ = nullptr;
  obs::Counter* exhausted_metric_ = nullptr;
  obs::Counter* promotions_metric_ = nullptr;

  /// Guards endpoint socket/sender creation + teardown and order_
  /// against Stop()/accessors on other threads.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// Shipping order; order_[0] is the current primary path.
  std::vector<std::size_t> order_;

  std::atomic<bool> stop_{false};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;

  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> resends_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> exhausted_{0};
};

}  // namespace umicro::dist

#endif  // UMICRO_DIST_LEAF_H_
