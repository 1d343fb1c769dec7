// e2ebench: the end-to-end benchmark of the umicro stack.
//
// One process runs one workload (README.md in this directory describes
// the four, the metrics and how to read them):
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It generates the input stream from the seed, warms an engine on its
// prefix, and then replays one timed segment of the stream again and
// again from the same warmed state until --seconds have passed. Every
// timing is computed per replay and reported at the slow-side quartile
// across replays (the 25th percentile of rates, the 75th of latencies
// and times); every replay must end in the same state digest. The
// program is driven only through its public API: core::UMicroEngine,
// parallel::ParallelUMicroEngine, fleet::EngineFleet, serve::QueryBroker
// over serve::SnapshotReadReplica, and io::ParseEngineState.
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 untraced and traced replays alternate, the traced ones
// record a span around every public call, and the last line carries the
// per-layer metrics. Either way the run exits 1 when the correctness
// gate fails.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "core/microcluster.h"
#include "eval/purity.h"
#include "fleet/engine_fleet.h"
#include "index/centroid_index.h"
#include "io/state_io.h"
#include "kernels/dispatch.h"
#include "obs/metrics.h"
#include "parallel/parallel_engine.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "stream/dataset.h"
#include "stream/perturbation.h"
#include "stream/stream_stats.h"
#include "synth/drift_generator.h"
#include "synth/forest_generator.h"
#include "util/random.h"

namespace {

using umicro::core::ClusteringEngine;
using umicro::core::EngineConfig;
using umicro::core::EngineState;
using umicro::serve::QueryBroker;
using umicro::serve::QueryRequest;
using umicro::serve::QueryResponse;
using umicro::serve::SnapshotReadReplica;
using umicro::stream::UncertainPoint;
using Clock = std::chrono::steady_clock;

constexpr double kEta = 0.5;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kMacroK = 5;

const Clock::time_point kProcessStart = Clock::now();

double MicrosSince(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double NowMicros() { return MicrosSince(kProcessStart, Clock::now()); }

// ---- Statistics --------------------------------------------------------

/// Quantile with linear interpolation between order statistics (the
/// definition numpy and Python's statistics module call "inclusive").
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The highest percentile of `n` samples with at least ten beyond it.
double TailPercentile(std::size_t n) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

// ---- Spans -------------------------------------------------------------

/// One timed public call. Times are microseconds since process start.
struct Span {
  const char* name = "";
  int parent = -1;
  int replay = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span log of one thread; disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  int Begin(const char* name, int parent, int replay) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, replay, NowMicros(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = NowMicros();
  }
  /// Appends another thread's spans (their parents are ids of this log).
  void Append(const std::vector<Span>& other) {
    spans_.insert(spans_.end(), other.begin(), other.end());
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Sum of the durations of spans named `name` belonging to `replay`.
double SpanSum(const std::vector<Span>& spans, const char* name, int replay) {
  double sum = 0.0;
  for (const Span& span : spans) {
    if (span.replay == replay && std::strcmp(span.name, name) == 0) {
      sum += span.end_us - span.start_us;
    }
  }
  return sum;
}

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const char* name, int replay) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.replay == replay && std::strcmp(span.name, name) == 0) {
      out.push_back(span.end_us - span.start_us);
    }
  }
  return out;
}

// ---- Registry cells ----------------------------------------------------

/// Flat view of a registry: counters and gauges by name, histograms as
/// "<name>.sum" and "<name>.count".
using Cells = std::map<std::string, double>;

Cells ReadCells(const umicro::obs::MetricsRegistry& registry) {
  Cells cells;
  for (const auto& metric : registry.Collect()) {
    if (metric.type == umicro::obs::MetricSnapshot::Type::kHistogram) {
      cells[metric.name + ".sum"] = metric.histogram.sum;
      cells[metric.name + ".count"] =
          static_cast<double>(metric.histogram.count);
    } else {
      cells[metric.name] = metric.value;
    }
  }
  return cells;
}

double Cell(const Cells& cells, const std::string& name) {
  const auto it = cells.find(name);
  return it == cells.end() ? 0.0 : it->second;
}

double Delta(const Cells& before, const Cells& after,
             const std::string& name) {
  return Cell(after, name) - Cell(before, name);
}

// ---- Memory ------------------------------------------------------------

/// A "Vm*:" line of /proc/self/status in MB; 0 when unreadable.
double ProcStatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtod(line.c_str() + key_len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets the kernel's peak-RSS mark to the current RSS; false when the
/// kernel does not support it.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) return false;
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

// ---- Workloads ---------------------------------------------------------

enum class Kind { kSequential, kSharded, kFleet };

struct Workload {
  std::string name;
  bool forest = false;
  Kind kind = Kind::kSequential;
  bool distance = false;
  /// Points ingested before the checkpoint every replay starts from.
  std::size_t warm_points = 0;
  /// Points in the timed segment of one replay.
  std::size_t segment_points = 0;
  /// Inline queries: points between two horizon queries.
  std::size_t query_every = 0;
  /// Sharded: open-loop query rate of the querier thread (queries/s).
  double query_rate = 0.0;
  /// Horizon of every query, in stream time units.
  double horizon = 0.0;
  /// Fleet: tenants, and how many of them serve queries.
  std::size_t tenants = 0;
  std::size_t served_tenants = 0;
  /// Measured replays (per mode) a run makes at the least.
  std::size_t min_replays = 0;
};

std::optional<Workload> FindWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "syndrift_seq") {
    w.warm_points = smoke ? 3000 : 20000;
    w.segment_points = smoke ? 2048 : 32768;
    w.query_every = smoke ? 256 : 512;
    w.horizon = 1000.0;
  } else if (name == "forest_distance") {
    w.forest = true;
    w.distance = true;
    w.warm_points = smoke ? 3000 : 50000;
    w.segment_points = smoke ? 4096 : 131072;
    w.query_every = smoke ? 512 : 2048;
    w.horizon = 1000.0;
  } else if (name == "syndrift_sharded") {
    w.kind = Kind::kSharded;
    w.warm_points = smoke ? 10000 : 20000;
    w.segment_points = smoke ? 8192 : 32768;
    w.query_rate = 200.0;
    w.horizon = 1000.0;
  } else if (name == "forest_fleet") {
    w.forest = true;
    w.kind = Kind::kFleet;
    w.tenants = smoke ? 50 : 1000;
    w.served_tenants = 16;
    // 512 points per tenant before the segment and 262 during it: every
    // tenant takes its third snapshot (at 768 points) inside the segment,
    // the first whose ring already holds a frame, so the delta store
    // encodes one frame per tenant while the clock runs.
    w.warm_points = w.tenants * 512;
    w.segment_points = smoke ? 8192 : 262144;
    w.query_every = smoke ? 1024 : 4096;
    w.horizon = 1000.0;
  } else {
    return std::nullopt;
  }
  w.min_replays = smoke ? 2 : w.kind == Kind::kFleet ? 6 : 8;
  return w;
}

/// The workload's stream under the paper's noise model. The cluster
/// layout and the per-dimension error scales sigma_i ~ U[0, 2 eta
/// sigma0_i] are those of the default SynDrift / Forest workloads (the
/// figure benches' seeds); `seed` draws the Gaussian noise of every
/// point. The sigma_i set how many points fall outside every cluster
/// boundary, i.e. how much clustering work a point costs, so fixing them
/// keeps that work the same across seeds.
umicro::stream::Dataset MakeStream(const Workload& w, std::size_t points,
                                   std::uint64_t seed) {
  umicro::synth::ForestOptions forest;
  umicro::synth::DriftOptions drift;
  umicro::stream::Dataset data =
      w.forest ? umicro::synth::ForestCoverGenerator(forest).Generate(points)
               : umicro::synth::DriftingGaussianGenerator(drift).Generate(
                     points);
  umicro::stream::StreamStats stats(data.dimensions());
  stats.AddAll(data);
  umicro::stream::PerturbationOptions noise;
  noise.eta = kEta;
  noise.seed = (w.forest ? forest.seed : drift.seed) + 1;
  const std::vector<double> sigmas =
      umicro::stream::Perturber(stats.Stddevs(), noise).dimension_sigmas();
  umicro::util::Rng rng(seed);
  for (std::size_t i = 0; i < data.size(); ++i) {
    UncertainPoint& point = data.at(i);
    for (std::size_t j = 0; j < sigmas.size(); ++j) {
      point.values[j] += rng.Gaussian(0.0, sigmas[j]);
    }
    point.errors = sigmas;
  }
  return data;
}

EngineConfig MakeConfig(const Workload& w) {
  EngineConfig config;
  if (w.distance) {
    config.umicro.similarity = umicro::core::SimilarityMode::kExpectedDistance;
  }
  if (w.kind == Kind::kSharded) {
    config.parallel.threads = 2;
    config.snapshot = umicro::parallel::ParallelEngineOptions{}.snapshot;
  }
  if (w.kind == Kind::kFleet) {
    config.fleet.tenants = w.tenants;
    config.fleet.workers = 2;
  }
  config.serve.threads = 1;
  return config;
}

umicro::parallel::ParallelEngineOptions ShardedOptions(
    const EngineConfig& config) {
  umicro::parallel::ParallelEngineOptions options;
  options.sharded.umicro = config.umicro;
  options.sharded.num_shards = config.parallel.threads;
  options.sharded.merge_every = config.parallel.merge_every;
  options.sharded.queue_capacity = config.parallel.queue_capacity;
  options.sharded.producer_batch = config.parallel.producer_batch;
  options.snapshot = config.snapshot;
  return options;
}

// ---- Faults (the gate's own tests) -------------------------------------

/// A deliberately wrong replay, proving that the gate fails the run.
enum class Fault { kNone, kDigest, kQuery, kClamp, kDrop };

std::optional<Fault> ParseFault(const std::string& text) {
  if (text.empty() || text == "none") return Fault::kNone;
  if (text == "digest") return Fault::kDigest;
  if (text == "query") return Fault::kQuery;
  if (text == "clamp") return Fault::kClamp;
  if (text == "drop") return Fault::kDrop;
  return std::nullopt;
}

// ---- One replay ----------------------------------------------------------

enum class Mode { kUntraced, kTraced, kSequentialBaseline };

struct Replay {
  Mode mode = Mode::kUntraced;
  int id = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Ingest-call latencies (one ProcessBatch, or 64 fleet Ingest calls).
  std::vector<double> ingest_us;
  /// Query latencies (call time inline; due time to answer open-loop).
  std::vector<double> query_us;
  /// Open-loop only: how late each query started, and its call time.
  std::vector<double> lag_us;
  std::vector<double> exec_us;
  std::uint64_t digest = 0;
  double purity = 0.0;
  std::size_t queries = 0;
  std::size_t failed_queries = 0;
  std::size_t dropped_points = 0;
  double clamped = 0.0;
  /// Registry cells around the timed segment.
  Cells before;
  Cells after;
  /// Fleet: layer numbers read through the store / online accessors.
  double merges = 0.0, evictions = 0.0, creates = 0.0;
  double store_bytes = 0.0, store_frames = 0.0, store_full_bytes = 0.0;
  std::uint64_t publishes = 0;
  std::string index_kind;
};

QueryRequest HorizonQuery(const Workload& w, std::uint64_t tenant,
                          Fault fault, bool faulty_replay) {
  QueryRequest request;
  request.kind = QueryRequest::Kind::kClusterRecent;
  request.tenant = tenant;
  request.horizon = w.horizon;
  request.k = kMacroK;
  if (faulty_replay && fault == Fault::kQuery) request.horizon = 0.0;
  if (faulty_replay && fault == Fault::kClamp) request.horizon = 1e12;
  return request;
}

bool QueryOk(const QueryResponse& response) {
  return response.ok && response.clustering.has_value();
}

std::uint64_t StateDigest(EngineState state) {
  // Metric cells hold timing-dependent gauges (queue high-water marks);
  // the digest covers the algorithm state only.
  state.counters.clear();
  state.gauges.clear();
  return umicro::io::Fnv1a(umicro::io::EngineStateToString(state));
}

/// FNV-1a over the exact bits of one fleet tenant's live state: every
/// micro-cluster's identity, statistics and labels, the point count and
/// the snapshot-store shape. (The text checkpoint of 1000 tenants takes
/// seconds to format; the bits carry the same information.)
class BitDigest {
 public:
  void Add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void Add(const T& value) {
    Add(&value, sizeof value);
  }
  void Add(const std::vector<double>& values) {
    Add(values.data(), values.size() * sizeof(double));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddTenant(const umicro::core::EngineCore& core, BitDigest* digest) {
  digest->Add(core.points_processed());
  for (const umicro::core::MicroCluster& cluster : core.online().clusters()) {
    digest->Add(cluster.id);
    digest->Add(cluster.creation_time);
    digest->Add(cluster.ecf.weight());
    digest->Add(cluster.ecf.last_update_time());
    digest->Add(cluster.ecf.cf1());
    digest->Add(cluster.ecf.cf2());
    digest->Add(cluster.ecf.ef2());
    for (const auto& [label, weight] : cluster.labels) {
      digest->Add(label);
      digest->Add(weight);
    }
  }
  const umicro::core::SnapshotTierStats tiers = core.store().TierStats();
  digest->Add(tiers.frames);
  digest->Add(tiers.approx_bytes);
}

/// Everything a run shares across its replays.
struct Context {
  Workload w;
  EngineConfig config;
  std::size_t dims = 0;
  /// The generated stream; the warm prefix and the timed segment are
  /// consecutive slices of it.
  umicro::stream::Dataset data;
  std::span<const UncertainPoint> warm;
  std::span<const UncertainPoint> segment;
  /// Engine workloads: the warmed checkpoint text.
  std::string checkpoint;
  /// Sharded trace runs: the warmed sequential checkpoint (baseline).
  std::string sequential_checkpoint;
  Fault fault = Fault::kNone;
};

std::unique_ptr<ClusteringEngine> MakeEngine(const Context& ctx,
                                             bool sequential) {
  if (sequential) {
    // The sequential baseline of a sharded run is syndrift_seq's engine:
    // same options, the single engine's snapshot cadence.
    EngineConfig config = ctx.config;
    config.snapshot = EngineConfig{}.snapshot;
    return std::make_unique<umicro::core::UMicroEngine>(ctx.dims, config);
  }
  umicro::parallel::ParallelEngineOptions options = ShardedOptions(ctx.config);
  if (ctx.fault == Fault::kDrop) {
    options.sharded.backpressure =
        umicro::parallel::BackpressurePolicy::kDropNewest;
    options.sharded.queue_capacity = 1;
  }
  return std::make_unique<umicro::parallel::ParallelUMicroEngine>(ctx.dims,
                                                                  options);
}

std::string WarmCheckpoint(const Context& ctx, bool sequential) {
  std::unique_ptr<ClusteringEngine> engine = MakeEngine(ctx, sequential);
  for (std::size_t i = 0; i < ctx.warm.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, ctx.warm.size() - i);
    engine->ProcessBatch(ctx.warm.subspan(i, n));
  }
  engine->Flush();
  return umicro::io::EngineStateToString(engine->ExportEngineState());
}

/// Open-loop querier: sends one horizon query every 1/rate seconds from
/// `start` until `stop` is set, timing each from its due time.
struct Querier {
  std::vector<double> latency_us, lag_us, exec_us;
  std::vector<Span> spans;
  std::size_t failed = 0;
};

void RunQuerier(const QueryBroker& broker, const Workload& w,
                const std::atomic<bool>& go, const std::atomic<bool>& stop,
                Clock::time_point* start, bool traced, int replay,
                Fault fault, bool faulty_replay, Querier* out) {
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / w.query_rate));
  // The thread sleeps until shortly before a query is due and spins the
  // rest of the way: a sleep alone wakes 50-500 us late on this kind of
  // host, and that lateness would land in every latency measured from the
  // due time.
  constexpr auto kSpin = std::chrono::microseconds(500);
  Clock::time_point due = *start + interval;
  while (true) {
    std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due && !stop.load(std::memory_order_acquire)) {
    }
    if (stop.load(std::memory_order_acquire)) break;
    const Clock::time_point begin = Clock::now();
    const QueryResponse response =
        broker.Execute(HorizonQuery(w, 0, fault, faulty_replay));
    const Clock::time_point end = Clock::now();
    if (!QueryOk(response)) ++out->failed;
    out->latency_us.push_back(MicrosSince(due, end));
    out->lag_us.push_back(MicrosSince(due, begin));
    out->exec_us.push_back(MicrosSince(begin, end));
    if (traced) {
      out->spans.push_back({"serve.query", -1, replay,
                            MicrosSince(kProcessStart, begin),
                            MicrosSince(kProcessStart, end)});
    }
    due += interval;
  }
}

/// The segment a replay ingests: the stream's, or for the digest fault a
/// copy with one value changed (kept alive in `storage`).
std::span<const UncertainPoint> SegmentOf(
    const Context& ctx, bool faulty, std::vector<UncertainPoint>* storage) {
  if (!faulty || ctx.fault != Fault::kDigest) return ctx.segment;
  storage->assign(ctx.segment.begin(), ctx.segment.end());
  (*storage)[storage->size() / 2].values[0] += 1.0;
  return *storage;
}

/// Runs one query on the ingest thread, timing the call.
void InlineQuery(const QueryBroker& broker, const QueryRequest& request,
                 SpanLog* log, int parent, Replay* r) {
  const int span = log->Begin("serve.query", parent, r->id);
  const Clock::time_point start = Clock::now();
  const QueryResponse response = broker.Execute(request);
  const Clock::time_point end = Clock::now();
  log->End(span);
  r->query_us.push_back(MicrosSince(start, end));
  r->exec_us.push_back(MicrosSince(start, end));
  r->lag_us.push_back(0.0);
  if (!QueryOk(response)) ++r->failed_queries;
}

/// One replay of an engine workload (sequential or sharded).
Replay RunEngineReplay(const Context& ctx, Mode mode, int id, SpanLog* log) {
  const Workload& w = ctx.w;
  const bool sequential =
      w.kind == Kind::kSequential || mode == Mode::kSequentialBaseline;
  const bool faulty = ctx.fault != Fault::kNone && id == 2;
  Replay r;
  r.mode = mode;
  r.id = id;
  const int root = log->Begin("replay", -1, id);

  // Set-up: parse the warmed checkpoint, restore it into a fresh engine,
  // attach a read replica and a broker.
  const Clock::time_point setup_start = Clock::now();
  const int setup_span = log->Begin("setup", root, id);
  int span = log->Begin("io.parse", setup_span, id);
  std::optional<EngineState> state = umicro::io::ParseEngineState(
      mode == Mode::kSequentialBaseline ? ctx.sequential_checkpoint
                                        : ctx.checkpoint);
  log->End(span);
  if (!state) {
    std::fprintf(stderr, "gate failed: checkpoint does not parse\n");
    std::exit(1);
  }
  std::unique_ptr<ClusteringEngine> engine = MakeEngine(ctx, sequential);
  span = log->Begin("core.restore", setup_span, id);
  const bool restored = engine->RestoreEngineState(*state);
  log->End(span);
  if (!restored) {
    std::fprintf(stderr, "gate failed: checkpoint does not restore\n");
    std::exit(1);
  }
  state.reset();
  span = log->Begin("serve.attach", setup_span, id);
  const umicro::core::SnapshotPolicy policy =
      sequential ? EngineConfig{}.snapshot : ctx.config.snapshot;
  auto replica = std::make_unique<SnapshotReadReplica>(
      policy, ctx.config.umicro.decay_lambda);
  engine->AttachSnapshotSink(replica.get());
  umicro::serve::QueryBrokerOptions broker_options =
      umicro::serve::QueryBrokerOptions::FromConfig(ctx.config);
  auto broker = std::make_unique<QueryBroker>(replica.get(), broker_options,
                                              &engine->metrics());
  log->End(span);
  log->End(setup_span);
  r.setup_s = MicrosSince(setup_start, Clock::now()) / 1e6;

  std::vector<UncertainPoint> faulty_segment;
  const std::span<const UncertainPoint> segment =
      SegmentOf(ctx, faulty, &faulty_segment);

  // Timed segment. The sharded engine is queried open-loop from its own
  // thread; the sequential baseline of a sharded run is pure ingest.
  const bool open_loop = !sequential;
  const bool inline_queries = w.kind != Kind::kSharded;
  std::atomic<bool> go{false}, stop{false};
  Clock::time_point start;
  Querier querier;
  std::thread querier_thread;
  if (open_loop) {
    querier_thread = std::thread(RunQuerier, std::cref(*broker), std::cref(w),
                                 std::cref(go), std::cref(stop), &start,
                                 log->enabled(), id, ctx.fault, faulty,
                                 &querier);
  }
  const std::uint64_t publish_before = replica->publish_seq();
  r.before = ReadCells(engine->metrics());
  r.ingest_us.reserve(segment.size() / kBatch + 1);
  const int segment_span = log->Begin("segment", root, id);
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < segment.size(); i += kBatch) {
    if (inline_queries && i % w.query_every == 0) {
      InlineQuery(*broker, HorizonQuery(w, 0, ctx.fault, faulty), log,
                  segment_span, &r);
    }
    const std::size_t n = std::min(kBatch, segment.size() - i);
    span = log->Begin("core.ingest", segment_span, id);
    const Clock::time_point b0 = Clock::now();
    engine->ProcessBatch(segment.subspan(i, n));
    const Clock::time_point b1 = Clock::now();
    log->End(span);
    r.ingest_us.push_back(MicrosSince(b0, b1));
  }
  span = log->Begin(sequential ? "core.flush" : "parallel.flush",
                    segment_span, id);
  engine->Flush();
  log->End(span);
  const Clock::time_point end = Clock::now();
  log->End(segment_span);
  if (open_loop) {
    stop.store(true, std::memory_order_release);
    querier_thread.join();
    r.query_us = std::move(querier.latency_us);
    r.lag_us = std::move(querier.lag_us);
    r.exec_us = std::move(querier.exec_us);
    r.failed_queries = querier.failed;
    if (log->enabled()) {
      for (Span& s : querier.spans) s.parent = segment_span;
      log->Append(querier.spans);
    }
  }
  r.wall_s = MicrosSince(start, end) / 1e6;
  r.after = ReadCells(engine->metrics());
  r.publishes = replica->publish_seq() - publish_before;
  r.queries = r.query_us.size();
  log->End(root);

  // Outputs: the gate's inputs and the quality metric.
  r.clamped = Delta(r.before, r.after, "snapshot.horizon_clamped");
  const double expected = static_cast<double>(ctx.warm.size() +
                                              ctx.segment.size());
  r.dropped_points = static_cast<std::size_t>(std::max(
      expected - static_cast<double>(engine->points_processed()),
      Delta(r.before, r.after, "parallel.points_dropped")));
  r.purity = umicro::eval::ClusterPurity(engine->ClusterLabelHistograms());
  const umicro::core::SnapshotTierStats tiers = engine->store().TierStats();
  r.store_bytes = static_cast<double>(tiers.approx_bytes);
  r.store_frames = static_cast<double>(tiers.frames);
  r.store_full_bytes = static_cast<double>(tiers.full_equivalent_bytes);
  if (auto* seq = dynamic_cast<umicro::core::UMicroEngine*>(engine.get())) {
    const auto* index = seq->online().assign_index();
    r.index_kind = index != nullptr ? index->name() : "flat";
  } else {
    r.index_kind = umicro::index::IndexKindName(ctx.config.umicro.assign_index);
  }
  r.digest = StateDigest(engine->ExportEngineState());
  broker.reset();
  engine.reset();
  replica.reset();
  return r;
}

/// One replay of the fleet workload.
Replay RunFleetReplay(const Context& ctx, Mode mode, int id, SpanLog* log) {
  const Workload& w = ctx.w;
  const bool faulty = ctx.fault != Fault::kNone && id == 2;
  Replay r;
  r.mode = mode;
  r.id = id;
  const int root = log->Begin("replay", -1, id);

  // Set-up: create the tenants, re-ingest the warm prefix, serve.
  const Clock::time_point setup_start = Clock::now();
  const int setup_span = log->Begin("setup", root, id);
  umicro::fleet::EngineFleet fleet(ctx.dims, ctx.config);
  for (std::size_t i = 0; i < ctx.warm.size(); ++i) {
    fleet.Ingest(i % w.tenants, ctx.warm[i]);
  }
  fleet.Flush();
  for (std::size_t t = 0; t < w.served_tenants; ++t) fleet.EnsureServing(t);
  QueryBroker broker(fleet.Resolver(),
                     umicro::serve::QueryBrokerOptions::FromConfig(ctx.config),
                     &fleet.metrics());
  log->End(setup_span);
  r.setup_s = MicrosSince(setup_start, Clock::now()) / 1e6;

  const std::vector<std::uint64_t> tenants = fleet.TenantIds();
  auto accessor_totals = [&](double* merges, double* evictions,
                             double* creates) {
    *merges = *evictions = *creates = 0.0;
    for (std::uint64_t t : tenants) {
      const auto& online = fleet.EnsureTenant(t).core().online();
      *merges += static_cast<double>(online.clusters_merged());
      *evictions += static_cast<double>(online.clusters_evicted());
      *creates += static_cast<double>(online.clusters_created());
    }
  };
  double merges0, evictions0, creates0;
  accessor_totals(&merges0, &evictions0, &creates0);
  std::uint64_t publish_before = 0;
  for (std::size_t t = 0; t < w.served_tenants; ++t) {
    publish_before += fleet.Replica(t)->publish_seq();
  }

  std::vector<UncertainPoint> faulty_segment;
  const std::span<const UncertainPoint> segment =
      SegmentOf(ctx, faulty, &faulty_segment);

  r.before = ReadCells(fleet.metrics());
  r.ingest_us.reserve(segment.size() / kBatch + 1);
  const std::size_t base = ctx.warm.size();
  std::size_t next_query_tenant = 0;
  const int segment_span = log->Begin("segment", root, id);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < segment.size(); i += kBatch) {
    if (i % w.query_every == 0) {
      InlineQuery(broker,
                  HorizonQuery(w, next_query_tenant, ctx.fault, faulty), log,
                  segment_span, &r);
      next_query_tenant = (next_query_tenant + 1) % w.served_tenants;
    }
    const std::size_t n = std::min(kBatch, segment.size() - i);
    const int span = log->Begin("fleet.ingest", segment_span, id);
    const Clock::time_point b0 = Clock::now();
    for (std::size_t j = i; j < i + n; ++j) {
      fleet.Ingest((base + j) % w.tenants, segment[j]);
    }
    const Clock::time_point b1 = Clock::now();
    log->End(span);
    r.ingest_us.push_back(MicrosSince(b0, b1));
  }
  const int flush_span = log->Begin("fleet.flush", segment_span, id);
  fleet.Flush();
  log->End(flush_span);
  const Clock::time_point end = Clock::now();
  log->End(segment_span);
  r.wall_s = MicrosSince(start, end) / 1e6;
  r.after = ReadCells(fleet.metrics());
  r.queries = r.query_us.size();
  log->End(root);

  r.clamped = Delta(r.before, r.after, "snapshot.horizon_clamped");
  accessor_totals(&r.merges, &r.evictions, &r.creates);
  r.merges -= merges0;
  r.evictions -= evictions0;
  r.creates -= creates0;
  for (std::size_t t = 0; t < w.served_tenants; ++t) {
    r.publishes += fleet.Replica(t)->publish_seq();
  }
  r.publishes -= publish_before;

  std::vector<umicro::stream::LabelHistogram> histograms;
  std::uint64_t points = 0;
  BitDigest digest;
  for (std::uint64_t t : tenants) {
    const umicro::core::EngineCore& core = fleet.EnsureTenant(t).core();
    points += core.points_processed();
    for (auto& h : core.online().ClusterLabelHistograms()) {
      histograms.push_back(std::move(h));
    }
    const umicro::core::SnapshotTierStats tiers = core.store().TierStats();
    r.store_bytes += static_cast<double>(tiers.approx_bytes);
    r.store_frames += static_cast<double>(tiers.frames);
    r.store_full_bytes += static_cast<double>(tiers.full_equivalent_bytes);
    AddTenant(core, &digest);
  }
  r.digest = digest.value();
  r.purity = umicro::eval::ClusterPurity(histograms);
  const std::size_t expected = ctx.warm.size() + ctx.segment.size();
  r.dropped_points = points < expected ? expected - points : 0;
  r.index_kind = "flat";
  return r;
}

// ---- Run ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string fault;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--fault") {
      args->fault = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-sha") {
      args->source_sha = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t from = colon + 1;
        while (from < line.size() && line[from] == ' ') ++from;
        return line.substr(from);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string ConfigJson(const Workload& w, const EngineConfig& c) {
  const auto& u = c.umicro;
  std::ostringstream out;
  out.precision(17);
  out << "{\"umicro\": {\"num_micro_clusters\": " << u.num_micro_clusters
      << ", \"boundary_factor\": " << u.boundary_factor
      << ", \"similarity\": "
      << (u.similarity == umicro::core::SimilarityMode::kExpectedDistance
              ? "\"expected_distance\""
              : "\"dimension_counting\"")
      << ", \"dimension_threshold\": " << u.dimension_threshold
      << ", \"distance_form\": "
      << (u.distance_form == umicro::core::DistanceForm::kPaperExpected
              ? "\"paper_expected\""
              : "\"comparable\"")
      << ", \"variance_source\": "
      << (u.variance_source == umicro::core::VarianceSource::kStreamWelford
              ? "\"stream_welford\""
              : "\"cluster_aggregate\"")
      << ", \"variance_refresh_interval\": " << u.variance_refresh_interval
      << ", \"decay_lambda\": " << u.decay_lambda << ", \"assign_index\": "
      << JsonString(umicro::index::IndexKindName(u.assign_index))
      << ", \"eviction_horizon\": " << u.eviction_horizon << "}";
  const umicro::core::SnapshotPolicy& s =
      w.kind == Kind::kFleet ? c.fleet.snapshot : c.snapshot;
  out << ", \"snapshot\": {\"every\": " << s.snapshot_every
      << ", \"alpha\": " << s.pyramid_alpha << ", \"l\": " << s.pyramid_l
      << ", \"store\": "
      << (s.tiering.mode == umicro::core::SnapshotStoreMode::kFull
              ? "\"full\""
              : s.tiering.mode == umicro::core::SnapshotStoreMode::kDelta
                    ? "\"delta\""
                    : "\"tiered\"")
      << "}";
  if (w.kind == Kind::kSharded) {
    out << ", \"parallel\": {\"shards\": " << c.parallel.threads
        << ", \"merge_every\": " << c.parallel.merge_every
        << ", \"queue_capacity\": " << c.parallel.queue_capacity
        << ", \"producer_batch\": " << c.parallel.producer_batch
        << ", \"backpressure\": \"block\", \"partition\": \"round_robin\"}";
  }
  if (w.kind == Kind::kFleet) {
    out << ", \"fleet\": {\"tenants\": " << c.fleet.tenants
        << ", \"workers\": " << c.fleet.workers
        << ", \"queue_capacity\": " << c.fleet.queue_capacity
        << ", \"tenant_batch\": " << c.fleet.tenant_batch
        << ", \"served_tenants\": " << w.served_tenants
        << ", \"routing\": \"round_robin\"}";
  }
  out << ", \"serve\": {\"threads\": " << c.serve.threads
      << ", \"horizon\": " << w.horizon << ", \"k\": " << kMacroK
      << ", \"query_every_points\": " << w.query_every
      << ", \"open_loop_qps\": " << w.query_rate << "}";
  out << ", \"stream\": {\"generator\": "
      << (w.forest ? "\"forest\"" : "\"syndrift\"") << ", \"eta\": " << kEta
      << ", \"warm_points\": " << w.warm_points
      << ", \"segment_points\": " << w.segment_points
      << ", \"ingest_call_points\": " << kBatch << "}}";
  return out.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(10);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(metrics[i].name) << ": {\"value\": " << metrics[i].value
        << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  return out.str() + "}";
}

std::vector<const Replay*> OfMode(const std::vector<Replay>& replays,
                                  Mode mode) {
  std::vector<const Replay*> out;
  for (const Replay& r : replays) {
    if (r.mode == mode) out.push_back(&r);
  }
  return out;
}

/// Slow-side quartile across replays of a per-replay value.
double SlowQuartile(const std::vector<const Replay*>& replays,
                    const std::function<double(const Replay&)>& value,
                    bool higher_is_better) {
  std::vector<double> values;
  for (const Replay* r : replays) values.push_back(value(*r));
  return Quantile(values, higher_is_better ? 0.25 : 0.75);
}

double MedianOf(const std::vector<const Replay*>& replays,
                const std::function<double(const Replay&)>& value) {
  std::vector<double> values;
  for (const Replay* r : replays) values.push_back(value(*r));
  return Median(values);
}

double Pps(const Replay& r, const Workload& w) {
  return static_cast<double>(w.segment_points) / r.wall_s;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--fault digest|query|clamp|drop] "
                 "[--out-dir <dir>] [--git-sha <sha>] [--source-sha <sha>]\n");
    return 2;
  }
  const std::optional<Workload> workload = FindWorkload(args.workload,
                                                        args.smoke);
  const std::optional<Fault> fault = ParseFault(args.fault);
  if (!workload || !fault) {
    std::fprintf(stderr, "unknown workload or fault\n");
    return 2;
  }

  Context ctx;
  ctx.w = *workload;
  ctx.config = MakeConfig(ctx.w);
  ctx.fault = *fault;
  const Workload& w = ctx.w;

  // Input stream, generated from the seed; the warm prefix and the timed
  // segment are consecutive slices of it.
  const double rss_before_input = ProcStatusMb("VmRSS:");
  const std::size_t total = w.warm_points + w.segment_points;
  ctx.data = MakeStream(w, total, args.seed);
  ctx.dims = ctx.data.dimensions();
  ctx.warm = std::span(ctx.data.points()).first(w.warm_points);
  ctx.segment = std::span(ctx.data.points()).subspan(w.warm_points);
  // Hand the generator's freed scratch back to the kernel, so that the
  // program's own allocations cannot hide in it and rss_mb counts them.
  malloc_trim(0);
  const bool peak_reset = ResetPeakRss();
  const double rss_baseline = ProcStatusMb("VmRSS:");
  const double input_mb = rss_baseline - rss_before_input;

  const Clock::time_point setup_start = Clock::now();
  if (w.kind != Kind::kFleet) {
    ctx.checkpoint = WarmCheckpoint(ctx, w.kind == Kind::kSequential);
  }
  if (w.kind == Kind::kSharded && args.trace) {
    ctx.sequential_checkpoint = WarmCheckpoint(ctx, true);
  }
  const double warm_s = MicrosSince(setup_start, Clock::now()) / 1e6;

  // Replays: replay 0 warms caches and the allocator and is discarded;
  // then the modes rotate until the time is up and every mode has its
  // minimum count.
  std::vector<Mode> rotation = {Mode::kUntraced};
  if (args.trace) rotation.push_back(Mode::kTraced);
  if (args.trace && w.kind == Kind::kSharded) {
    rotation.push_back(Mode::kSequentialBaseline);
  }
  SpanLog log(args.trace);
  SpanLog off(false);
  auto run_replay = [&](Mode mode, int id) {
    SpanLog* target = mode == Mode::kTraced ? &log : &off;
    return w.kind == Kind::kFleet ? RunFleetReplay(ctx, mode, id, target)
                                  : RunEngineReplay(ctx, mode, id, target);
  };
  run_replay(Mode::kUntraced, 0);
  std::vector<Replay> replays;
  const Clock::time_point measure_start = Clock::now();
  const double hard_cap_s = std::max(3.0 * args.seconds, args.seconds + 60.0);
  for (int id = 1;; ++id) {
    const double elapsed = MicrosSince(measure_start, Clock::now()) / 1e6;
    std::size_t fewest = SIZE_MAX;
    for (Mode mode : rotation) {
      fewest = std::min(fewest, OfMode(replays, mode).size());
    }
    // Traced runs feed the per-layer metrics, which carry no bound.
    const std::size_t wanted = args.trace ? (w.min_replays + 1) / 2
                                          : w.min_replays;
    if (elapsed >= hard_cap_s || (elapsed >= args.seconds && fewest >= wanted)) {
      break;
    }
    replays.push_back(run_replay(rotation[(id - 1) % rotation.size()], id));
  }
  const double measured_s = MicrosSince(measure_start, Clock::now()) / 1e6;

  // ---- Correctness gate -------------------------------------------------
  std::vector<std::string> gate_failures;
  std::size_t attempted = 0, failed = 0;
  const std::uint64_t digest = replays.empty() ? 0 : replays[0].digest;
  for (const Replay& r : replays) {
    if (r.mode == Mode::kSequentialBaseline) continue;
    attempted += w.segment_points + r.queries;
    failed += r.dropped_points + r.failed_queries;
    if (r.digest != digest) gate_failures.push_back("digest");
    if (r.failed_queries > 0) gate_failures.push_back("query");
    if (r.clamped > 0) gate_failures.push_back("clamp");
    if (r.dropped_points > 0) gate_failures.push_back("drop");
  }
  std::sort(gate_failures.begin(), gate_failures.end());
  gate_failures.erase(std::unique(gate_failures.begin(), gate_failures.end()),
                      gate_failures.end());
  for (const std::string& reason : gate_failures) {
    std::fprintf(stderr, "gate failed: %s\n", reason.c_str());
  }
  const bool correct = gate_failures.empty() && attempted > 0;

  // ---- Metrics -------------------------------------------------------------
  const std::vector<const Replay*> untraced = OfMode(replays, Mode::kUntraced);
  const std::vector<const Replay*> traced = OfMode(replays, Mode::kTraced);
  const std::size_t calls = (w.segment_points + kBatch - 1) / kBatch;
  const double ingest_pct = TailPercentile(calls);
  // A replay sends 64 queries (about 60-90 open-loop); p75 is the highest
  // percentile with ten of them beyond it.
  const double query_pct = 75.0;
  std::size_t fewest_queries = SIZE_MAX;
  for (const Replay* r : untraced) {
    fewest_queries = std::min(fewest_queries, r->queries);
  }
  if (untraced.empty()) fewest_queries = 0;
  const double rss_mb = ProcStatusMb("VmHWM:") - rss_baseline;

  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  if (!peak_reset) {
    notes.push_back("the kernel cannot reset the peak-RSS mark: rss_mb "
                    "includes the input generation");
  }
  if (!args.trace) {
    metrics.push_back(
        {"ingest_pps",
         SlowQuartile(untraced, [&](const Replay& r) { return Pps(r, w); },
                      true),
         "points/s"});
    metrics.push_back(
        {"ingest_p50_us",
         SlowQuartile(untraced,
                      [](const Replay& r) { return Median(r.ingest_us); },
                      false),
         "us"});
    metrics.push_back(
        {"ingest_tail_us",
         SlowQuartile(untraced,
                      [&](const Replay& r) {
                        return Quantile(r.ingest_us, ingest_pct / 100.0);
                      },
                      false),
         "us"});
    metrics.push_back(
        {"query_p50_us",
         SlowQuartile(untraced,
                      [](const Replay& r) { return Median(r.query_us); },
                      false),
         "us"});
    metrics.push_back(
        {"query_tail_us",
         SlowQuartile(untraced,
                      [&](const Replay& r) {
                        return Quantile(r.query_us, query_pct / 100.0);
                      },
                      false),
         "us"});
    metrics.push_back({"purity", untraced.empty() ? 0.0 : untraced[0]->purity,
                       "ratio"});
    metrics.push_back(
        {"setup_s",
         SlowQuartile(untraced, [](const Replay& r) { return r.setup_s; },
                      false),
         "s"});
    metrics.push_back({"rss_mb", rss_mb, "MB"});
    metrics.push_back(
        {"ok_ratio",
         attempted == 0 ? 0.0
                        : 1.0 - static_cast<double>(failed) /
                                    static_cast<double>(attempted),
         "ratio"});
  } else {
    const std::vector<Span>& spans = log.spans();
    const double kpts = static_cast<double>(w.segment_points) / 1000.0;
    auto registry = [&](const std::string& name) {
      return MedianOf(traced, [&](const Replay& r) {
        return Delta(r.before, r.after, name);
      });
    };
    auto gauge = [&](const std::string& name) {
      return MedianOf(traced,
                      [&](const Replay& r) { return Cell(r.after, name); });
    };
    auto per_call = [&](const std::string& hist) {
      return MedianOf(traced, [&](const Replay& r) {
        const double n = Delta(r.before, r.after, hist + ".count");
        return n > 0 ? Delta(r.before, r.after, hist + ".sum") / n : 0.0;
      });
    };
    auto span_median = [&](const char* name) {
      return MedianOf(traced, [&](const Replay& r) {
        return Median(SpanDurations(spans, name, r.id));
      });
    };
    auto span_total = [&](const char* name) {
      return MedianOf(traced, [&](const Replay& r) {
        return SpanSum(spans, name, r.id);
      });
    };
    const bool fleet = w.kind == Kind::kFleet;
    const bool sharded = w.kind == Kind::kSharded;
    const double batch_sum = registry("umicro.batch_micros.sum");
    const double pair_sum = registry("umicro.closest_pair_micros.sum");
    const double take_sum = registry("snapshot.take_micros.sum");
    const double wall_us =
        MedianOf(traced, [](const Replay& r) { return r.wall_s * 1e6; });
    const double index_queries = registry("umicro.index.queries");
    auto per_kpt = [&](const std::function<double(const Replay&)>& f) {
      return MedianOf(traced, f) / kpts;
    };

    metrics.push_back({"core.ingest_us", fleet ? 0.0 : span_median("core.ingest"),
                       "us"});
    metrics.push_back({"core.retire_us", pair_sum / kpts, "us/kpt"});
    metrics.push_back({"core.retire_share",
                       batch_sum > 0 ? pair_sum / batch_sum : 0.0, "ratio"});
    metrics.push_back(
        {"core.merges_per_kpt",
         fleet ? per_kpt([](const Replay& r) { return r.merges; })
               : registry("umicro.merged") / kpts,
         "count/kpt"});
    metrics.push_back(
        {"core.evictions_per_kpt",
         fleet ? per_kpt([](const Replay& r) { return r.evictions; })
               : registry("umicro.evicted") / kpts,
         "count/kpt"});
    metrics.push_back(
        {"core.creates_per_kpt",
         fleet ? per_kpt([](const Replay& r) { return r.creates; })
               : registry("umicro.created") / kpts,
         "count/kpt"});
    metrics.push_back({"core.snapshot_us", take_sum / kpts, "us/kpt"});
    metrics.push_back({"core.snapshot_share",
                       wall_us > 0 ? take_sum / wall_us : 0.0, "ratio"});
    metrics.push_back(
        {"core.snapshot_bytes",
         MedianOf(traced, [](const Replay& r) { return r.store_bytes; }),
         "bytes"});
    metrics.push_back(
        {"core.snapshot_frames",
         MedianOf(traced, [](const Replay& r) { return r.store_frames; }),
         "count"});
    metrics.push_back(
        {"core.delta_ratio", MedianOf(traced, [](const Replay& r) {
           return r.store_full_bytes > 0 ? r.store_bytes / r.store_full_bytes
                                         : 1.0;
         }),
         "ratio"});
    metrics.push_back(
        {"core.subtract_us", per_call("snapshot.subtract_micros"), "us"});
    metrics.push_back({"core.macro_us", per_call("horizon.macro_micros"), "us"});
    metrics.push_back({"core.restore_us",
                       fleet ? 0.0 : span_median("core.restore"), "us"});
    metrics.push_back({"io.parse_us", fleet ? 0.0 : span_median("io.parse"),
                       "us"});
    metrics.push_back({"io.checkpoint_bytes",
                       static_cast<double>(ctx.checkpoint.size()), "bytes"});
    metrics.push_back({"kernels.scans_per_pt",
                       registry("umicro.kernel_scans") /
                           static_cast<double>(w.segment_points),
                       "count"});
    metrics.push_back(
        {"kernels.tier",
         static_cast<double>(umicro::kernels::DetectBackend()), "tier"});
    metrics.push_back({"index.queries", index_queries, "count"});
    metrics.push_back(
        {"index.candidates_per_query",
         index_queries > 0 ? registry("umicro.index.candidates") / index_queries
                           : 0.0,
         "count"});
    metrics.push_back({"index.rebuilds_per_kpt",
                       registry("umicro.index.rebuilds") / kpts, "count/kpt"});
    metrics.push_back({"index.prune_ratio",
                       index_queries > 0 ? gauge("umicro.index.prune_ratio")
                                         : 0.0,
                       "ratio"});
    metrics.push_back({"parallel.enqueue_us",
                       registry("parallel.queue.enqueue_micros.sum"), "us"});
    metrics.push_back({"parallel.merge_us",
                       registry("parallel.merge_micros.sum"), "us"});
    metrics.push_back({"parallel.merges", registry("parallel.merges"),
                       "count"});
    metrics.push_back({"parallel.reconciles",
                       registry("parallel.reconcile_merges"), "count"});
    metrics.push_back({"parallel.flush_us",
                       sharded ? span_total("parallel.flush") : 0.0, "us"});
    double skew = 0.0, high_water = 0.0;
    if (sharded) {
      skew = MedianOf(traced, [&](const Replay& r) {
        double max = 0.0, sum = 0.0;
        for (std::size_t i = 0; i < ctx.config.parallel.threads; ++i) {
          const double v = Delta(r.before, r.after,
                                 "parallel.shard" + std::to_string(i) +
                                     ".points");
          max = std::max(max, v);
          sum += v;
        }
        return sum > 0 ? max * static_cast<double>(
                                   ctx.config.parallel.threads) / sum
                       : 0.0;
      });
      high_water = MedianOf(traced, [&](const Replay& r) {
        double max = 0.0;
        for (std::size_t i = 0; i < ctx.config.parallel.threads; ++i) {
          max = std::max(max, Cell(r.after, "parallel.shard" +
                                                std::to_string(i) +
                                                ".queue_high_water"));
        }
        return max;
      });
    }
    metrics.push_back({"parallel.shard_skew", skew, "ratio"});
    metrics.push_back({"parallel.queue_high_water", high_water, "batches"});
    const double exec_us = per_call("serve.query_micros");
    metrics.push_back({"serve.exec_us", exec_us, "us"});
    metrics.push_back(
        {"serve.wait_us", MedianOf(traced, [](const Replay& r) {
           std::vector<double> waits;
           for (std::size_t i = 0; i < r.query_us.size(); ++i) {
             waits.push_back(r.query_us[i] - r.exec_us[i]);
           }
           return Median(waits);
         }),
         "us"});
    metrics.push_back(
        {"serve.generator_lag_us",
         MedianOf(traced, [](const Replay& r) { return Median(r.lag_us); }),
         "us"});
    metrics.push_back(
        {"serve.generator_lag_max_us", MedianOf(traced, [](const Replay& r) {
           return r.lag_us.empty()
                      ? 0.0
                      : *std::max_element(r.lag_us.begin(), r.lag_us.end());
         }),
         "us"});
    metrics.push_back(
        {"serve.publishes_per_kpt",
         per_kpt([](const Replay& r) {
           return static_cast<double>(r.publishes);
         }),
         "count/kpt"});
    metrics.push_back({"fleet.ingest_us",
                       fleet ? span_median("fleet.ingest") : 0.0, "us"});
    metrics.push_back({"fleet.flush_us",
                       fleet ? span_total("fleet.flush") : 0.0, "us"});
    metrics.push_back({"fleet.tenant_batch_us",
                       per_call("fleet.tenant_batch_micros"), "us"});
    metrics.push_back({"fleet.ingest_skew", gauge("fleet.ingest_skew"),
                       "ratio"});
    const double untraced_pps = SlowQuartile(
        untraced, [&](const Replay& r) { return Pps(r, w); }, true);
    const double traced_pps = SlowQuartile(
        traced, [&](const Replay& r) { return Pps(r, w); }, true);
    metrics.push_back({"obs.trace_overhead",
                       untraced_pps > 0
                           ? (untraced_pps - traced_pps) / untraced_pps
                           : 0.0,
                       "ratio"});
    // The ingest thread's timeline: the spans around public calls cover
    // it except for the benchmark loop's own work.
    metrics.push_back(
        {"unattributed_share", MedianOf(traced, [&](const Replay& r) {
           double covered = SpanSum(spans, "serve.query", r.id) +
                            SpanSum(spans, "core.flush", r.id) +
                            SpanSum(spans, "parallel.flush", r.id) +
                            SpanSum(spans, "fleet.flush", r.id);
           covered += fleet ? SpanSum(spans, "fleet.ingest", r.id)
                            : SpanSum(spans, "core.ingest", r.id);
           if (sharded) covered -= SpanSum(spans, "serve.query", r.id);
           return 1.0 - covered / (r.wall_s * 1e6);
         }),
         "ratio"});

    // Sanity checks against numbers known from earlier profiles; they
    // are printed, not gated (timing shares move with the host).
    auto metric = [&](const char* name) {
      for (const Metric& m : metrics) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    auto sanity = [&](const std::string& what, bool ok) {
      notes.push_back(std::string("sanity ") + (ok ? "ok   " : "OFF  ") + what);
    };
    if (w.name == "syndrift_seq") {
      sanity("core.retire_share > 0.5 on syndrift_seq",
             metric("core.retire_share") > 0.5);
    }
    if (w.name == "forest_distance") {
      sanity("core.retire_share < 0.1 on forest_distance",
             metric("core.retire_share") < 0.1);
    }
    sanity(std::string("index.queries ") +
               (w.name == "forest_distance" ? "> 0" : "== 0"),
           (metric("index.queries") > 0) == (w.name == "forest_distance"));
    sanity(std::string("parallel.merges ") + (sharded ? "> 0" : "== 0"),
           (metric("parallel.merges") > 0) == sharded);
    if (sharded) {
      const std::vector<const Replay*> baseline =
          OfMode(replays, Mode::kSequentialBaseline);
      const double seq_pps = SlowQuartile(
          baseline, [&](const Replay& r) { return Pps(r, w); }, true);
      const double ratio = seq_pps > 0 ? untraced_pps / seq_pps : 0.0;
      char line[160];
      std::snprintf(line, sizeof line,
                    "derived syndrift_sharded/syndrift_seq ingest_pps = "
                    "%.3f (%.0f / %.0f points/s; expected about 1.3-1.4)",
                    ratio, untraced_pps, seq_pps);
      notes.push_back(line);
    }
  }

  // ---- Provenance, detail file, result line -------------------------------
  char summary[512];
  std::snprintf(summary, sizeof summary,
                "replays %zu (untraced %zu, traced %zu) over %.1f s after "
                "%.2f s warm-up; ingest tail = p%.1f of %zu calls per replay; "
                "query tail = p%.0f of at least %zu queries per replay; input "
                "%.1f MB, rss baseline %.1f MB",
                replays.size(), untraced.size(), traced.size(), measured_s,
                warm_s, ingest_pct, calls, query_pct, fewest_queries,
                input_mb, rss_baseline);
  notes.push_back(summary);
  std::ostringstream provenance;
  provenance << "{\"workload\": " << JsonString(w.name)
             << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
             << ", \"smoke\": " << args.smoke
             << ", \"nproc\": " << std::thread::hardware_concurrency()
             << ", \"cpu_model\": " << JsonString(CpuModel())
             << ", \"kernels_tier\": "
             << JsonString(umicro::kernels::BackendName(
                    umicro::kernels::DetectBackend()))
             << ", \"index_kind\": "
             << JsonString(replays.empty() ? "" : replays[0].index_kind)
             << ", \"git_sha\": " << JsonString(args.git_sha)
             << ", \"source_sha256\": " << JsonString(args.source_sha)
             << ", \"ingest_tail_percentile\": " << ingest_pct
             << ", \"ingest_calls_per_replay\": " << calls
             << ", \"query_tail_percentile\": " << query_pct
             << ", \"fewest_queries_per_replay\": " << fewest_queries
             << ", \"input_mb\": " << input_mb
             << ", \"rss_baseline_mb\": " << rss_baseline
             << ", \"replays\": " << replays.size()
             << ", \"digest\": \"" << std::hex << digest << std::dec
             << "\", \"config\": " << ConfigJson(w, ctx.config) << "}";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    std::ofstream detail(stem + ".json");
    detail << "{\"provenance\": " << provenance.str() << ", \"notes\": [";
    for (std::size_t i = 0; i < notes.size(); ++i) {
      detail << (i > 0 ? ", " : "") << JsonString(notes[i]);
    }
    detail << "], \"result\": " << result << "}\n";
    if (args.trace) {
      std::ofstream tsv(stem + ".spans.tsv");
      tsv << std::fixed;
      tsv.precision(3);
      tsv << "id\tparent\treplay\tname\tstart_us\tend_us\n";
      const std::vector<Span>& spans = log.spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        tsv << i << '\t' << spans[i].parent << '\t' << spans[i].replay << '\t'
            << spans[i].name << '\t' << spans[i].start_us << '\t'
            << spans[i].end_us << '\n';
      }
    }
  }
  std::printf("provenance %s\n", provenance.str().c_str());
  for (const std::string& note : notes) std::printf("%s\n", note.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
