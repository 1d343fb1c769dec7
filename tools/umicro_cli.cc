// umicro_cli: cluster a CSV/ARFF file or synthetic workload as a stream.
//
//   umicro_cli --input=connections.csv [--algorithm=umicro]
//              [--nmicro=100] [--boundary=3.0] [--thresh=3.0]
//              [--decay=0.0] [--eta=0.0] [--impute]
//              [--sample-interval=10000] [--max-rows=0]
//              [--centroids-out=clusters.csv] [--no-header]
//   umicro_cli --synthetic=syndrift --points=200000 --threads=4
//              --metrics-out=run_metrics --metrics-every=50000
//
// The input may be headered CSV (columns: values..., optional err_*,
// timestamp, label -- see io/csv_dataset.h), headerless CSV with a
// trailing label column (--no-header), ARFF (by .arff extension), or one
// of the built-in synthetic workloads (--synthetic). --eta applies the
// paper's noise model before clustering; --impute runs the online mean
// imputer over missing (NaN / '?') entries. When ground-truth labels
// exist, a purity series is printed.
//
// The umicro algorithm (sequential or sharded via --threads) runs behind
// the unified ClusteringEngine interface: pyramidal snapshots at the
// --snapshot-every cadence and a metrics registry exported with
// --metrics-out (JSON + CSV; --metrics-every re-exports periodically).
//
// Resilience (docs/resilience.md): --checkpoint-dir enables crash-safe
// checkpoints at the --checkpoint-every / --checkpoint-seconds cadence
// and --recover restores the newest valid one, replaying only the
// remainder of the input. --bad-record-policy runs the input through the
// ValidatingStream hardener (with --quarantine-out as the side file);
// --inject-faults corrupts the stream deterministically first, so the
// hardener has something to catch. --degrade arms the sharded pipeline's
// adaptive load shedding and worker supervision.
//
// Every flag is one FlagTable() entry. Engine-facing flags write into
// one core::EngineConfig, from which every engine, broker and
// checkpointer is built; the table also drives fail-fast validation and
// the usage text (the reference is docs/tools.md).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "baseline/clustream.h"
#include "baseline/stream_kmeans.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/summary.h"
#include "core/umicro.h"
#include "dist/aggregator.h"
#include "dist/leaf.h"
#include "eval/experiment.h"
#include "fleet/engine_fleet.h"
#include "fleet/fleet_checkpoint.h"
#include "index/centroid_index.h"
#include "io/arff_dataset.h"
#include "io/csv_dataset.h"
#include "io/load_stats.h"
#include "io/snapshot_io.h"
#include "io/state_io.h"
#include "net/chaos.h"
#include "net/socket.h"
#include "net/socket_stream.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "parallel/parallel_engine.h"
#include "parallel/sharded_umicro.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_injection.h"
#include "resilience/validating_stream.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "stream/imputation.h"
#include "stream/perturbation.h"
#include "stream/stream_stats.h"
#include "stream/vector_stream.h"
#include "synth/workloads.h"
#include "util/csv_writer.h"
#include "util/paths.h"

namespace {

using umicro::core::EngineConfig;
using umicro::core::QueueFullPolicy;
using umicro::core::SimilarityMode;
using umicro::core::SnapshotStoreMode;
using umicro::index::IndexKind;
using umicro::resilience::BadRecordPolicy;

enum class Algorithm { kUMicro, kCluStream, kStreamKMeans };
enum class Role { kStandalone, kLeaf, kAgg, kQuery };
enum class TenantKey { kRoundRobin, kHash, kLabel };

/// One spelled value of an enum-valued flag.
template <typename T>
struct Named {
  const char* name;
  T value;
};

constexpr Named<Algorithm> kAlgorithms[] = {
    {"umicro", Algorithm::kUMicro}, {"clustream", Algorithm::kCluStream},
    {"stream-kmeans", Algorithm::kStreamKMeans}};
constexpr Named<Role> kRoles[] = {
    {"leaf", Role::kLeaf}, {"agg", Role::kAgg}, {"query", Role::kQuery}};
constexpr Named<TenantKey> kTenantKeys[] = {
    {"round_robin", TenantKey::kRoundRobin}, {"hash", TenantKey::kHash},
    {"label", TenantKey::kLabel}};
constexpr Named<SimilarityMode> kSimilarities[] = {
    {"counting", SimilarityMode::kDimensionCounting},
    {"distance", SimilarityMode::kExpectedDistance}};
constexpr Named<IndexKind> kIndexKinds[] = {
    {"flat", IndexKind::kFlat}, {"kdtree", IndexKind::kKdTree},
    {"coarse", IndexKind::kCoarse}, {"auto", IndexKind::kAuto}};
constexpr Named<QueueFullPolicy> kBackpressures[] = {
    {"block", QueueFullPolicy::kBlock},
    {"drop_oldest", QueueFullPolicy::kDropOldest},
    {"drop_newest", QueueFullPolicy::kDropNewest}};
constexpr Named<SnapshotStoreMode> kStoreModes[] = {
    {"full", SnapshotStoreMode::kFull}, {"delta", SnapshotStoreMode::kDelta},
    {"tiered", SnapshotStoreMode::kTiered}};
constexpr Named<BadRecordPolicy> kBadRecordPolicies[] = {
    {"repair", BadRecordPolicy::kRepair},
    {"quarantine", BadRecordPolicy::kQuarantine},
    {"drop", BadRecordPolicy::kDrop}};

/// The spelling of `value` in `names`; "" when it has none.
template <typename Field, typename T, std::size_t N>
std::string NameOf(const Named<T> (&names)[N], const Field& value) {
  for (const Named<T>& named : names) {
    if (value == named.value) return named.name;
  }
  return "";
}

/// CLI-only inputs: what is read, how it is transformed and where the
/// results go. Everything engine-facing lives in core::EngineConfig.
struct CliInputs {
  std::string input;
  std::string synthetic;
  std::size_t points = 100000;
  Algorithm algorithm = Algorithm::kUMicro;
  double eta = 0.0;
  bool impute = false;
  bool no_header = false;
  bool describe = false;
  std::size_t sample_interval = 10000;
  std::size_t batch = 1;
  std::size_t max_rows = 0;
  std::string centroids_out;
  std::string state_out;
  std::string metrics_out;
  std::size_t metrics_every = 0;
  std::string checkpoint_dir;
  bool recover = false;
  std::optional<BadRecordPolicy> bad_record_policy;
  std::string quarantine_out;
  std::string inject_faults;
  std::uint64_t fault_seed = 0xfa117u;
  bool serve = false;
  TenantKey tenant_key = TenantKey::kRoundRobin;
  // Distributed merge tree (docs/distributed.md).
  Role role = Role::kStandalone;
  std::string connect;
  std::string listen;
  std::size_t dims = 0;
  std::uint64_t leaf_id = 0;
  std::size_t delta_every = 4096;
  std::size_t stride = 1;
  std::size_t offset = 0;
  std::uint64_t expect_points = 0;
  double expect_timeout = 300.0;
  double linger_seconds = 0.0;
  std::string standby;  // comma-separated HOST:PORT list
  bool start_as_standby = false;
  double stale_after = 0.0;  // seconds; 0 disables liveness tracking
  std::string net_chaos;
  std::uint64_t net_chaos_seed = 0xc4a05u;
};

/// The CLI's engine defaults: the library's, except a coarser snapshot
/// cadence and a 64 MiB budget for --snapshot-store=tiered.
EngineConfig CliDefaults() {
  EngineConfig config;
  config.snapshot.snapshot_every = 4096;
  config.snapshot.tiering.budget_bytes = std::size_t{64} << 20;
  return config;
}

/// Where one flag's value lands.
struct Target {
  /// Stores a value; false when `text` is malformed or out of range.
  std::function<bool(const std::string& text)> parse;
  /// The target's current value for the usage text ("" = none shown).
  std::function<std::string()> show;
  /// What a valid value looks like: "a|b|c" for enum-valued flags,
  /// a bound such as ">= 0" for numbers, "" for free text.
  std::string want;
  bool enumerated = false;
};

Target Text(std::string* out) {
  return {[out](const std::string& text) {
            *out = text;
            return true;
          },
          [out] { return *out; }, ""};
}

/// A bare `--flag` switch.
Target Switch(bool* out) {
  return {[out](const std::string&) { return *out = true; },
          [] { return std::string(); }, ""};
}

/// An integer >= `min` (decimal, or hex with a 0x prefix), stored times
/// `scale`.
template <typename T>
Target Count(T* out, std::type_identity_t<T> min = 0, T scale = 1) {
  return {[=](const std::string& text) {
            const bool hex = text.rfind("0x", 0) == 0;
            const char* end = text.data() + text.size();
            T value{};
            const auto [stop, error] = std::from_chars(
                text.data() + (hex ? 2 : 0), end, value, hex ? 16 : 10);
            if (error != std::errc() || stop != end || value < min) {
              return false;
            }
            *out = value * scale;
            return true;
          },
          [=] { return std::to_string(*out / scale); },
          "an integer >= " + std::to_string(min)};
}

/// A finite real >= 0, or > 0 when `positive`.
Target Real(double* out, bool positive = false) {
  return {[=](const std::string& text) {
            char* end = nullptr;
            const double value = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !std::isfinite(value) ||
                value < 0.0 || (positive && value == 0.0)) {
              return false;
            }
            *out = value;
            return true;
          },
          [=] {
            char text[32];
            std::snprintf(text, sizeof text, "%g", *out);
            return std::string(text);
          },
          positive ? "> 0" : ">= 0"};
}

/// One of `names`; `Field` is T or std::optional<T>.
template <typename Field, typename T, std::size_t N>
Target Choice(Field* out, const Named<T> (&names)[N]) {
  const Named<T>(*table)[N] = &names;
  std::string want;
  for (const Named<T>& named : names) {
    if (!want.empty()) want += '|';
    want += named.name;
  }
  return {[=](const std::string& text) {
            for (const Named<T>& named : *table) {
              if (text != named.name) continue;
              *out = named.value;
              return true;
            }
            return false;
          },
          [=] { return NameOf(*table, *out); }, want, true};
}

constexpr unsigned RoleBit(Role role) {
  return 1u << static_cast<unsigned>(role);
}
constexpr unsigned kAnyRole = 0;
constexpr unsigned kLeaf = RoleBit(Role::kLeaf);
constexpr unsigned kAgg = RoleBit(Role::kAgg);

/// "--role=leaf or --role=agg" for a role mask.
std::string RolesText(unsigned roles) {
  std::string text;
  for (const Named<Role>& named : kRoles) {
    if ((roles & RoleBit(named.value)) == 0) continue;
    text += text.empty() ? "--role=" : " or --role=";
    text += named.name;
  }
  return text;
}

/// One command-line flag: `--name=VALUE` (the bare `--name` switch when
/// `value` is null).
struct Flag {
  const char* name;
  const char* value;
  const char* help;
  Target target;
  /// RoleBit mask of the roles that may use the flag; kAnyRole = all.
  unsigned roles = kAnyRole;
};

/// The whole command line, bound to `config` and `cli`.
std::vector<Flag> FlagTable(EngineConfig* config, CliInputs* cli) {
  umicro::core::UMicroOptions& umicro = config->umicro;
  umicro::core::ParallelConfig& parallel = config->parallel;
  umicro::core::SnapshotTiering& tiering = config->snapshot.tiering;
  return {
      {"input", "FILE", "CSV, or ARFF by .arff extension", Text(&cli->input)},
      {"synthetic", "NAME", "built-in workload: syndrift|network|forest",
       Text(&cli->synthetic)},
      {"points", "N", "synthetic stream length", Count(&cli->points)},
      {"algorithm", "A", "algorithm", Choice(&cli->algorithm, kAlgorithms)},
      {"nmicro", "N", "micro-cluster budget (k for stream-kmeans)",
       Count(&umicro.num_micro_clusters, 1)},
      {"boundary", "T", "uncertainty-boundary factor t (also for ANOMALY)",
       Real(&umicro.boundary_factor, true)},
      {"thresh", "T", "dimension-counting threshold",
       Real(&umicro.dimension_threshold, true)},
      {"decay", "L", "exponential decay rate", Real(&umicro.decay_lambda)},
      {"similarity", "S", "closest-cluster criterion",
       Choice(&umicro.similarity, kSimilarities)},
      {"assign-index", "K", "candidate index under distance similarity",
       Choice(&umicro.assign_index, kIndexKinds)},
      {"eta", "E", "perturb with the paper's noise model", Real(&cli->eta)},
      {"impute", nullptr, "impute missing entries", Switch(&cli->impute)},
      {"no-header", nullptr, "headerless CSV, last column is the label",
       Switch(&cli->no_header)},
      {"describe", nullptr, "print the heaviest clusters",
       Switch(&cli->describe)},
      {"sample-interval", "N", "purity sample cadence",
       Count(&cli->sample_interval, 1)},
      {"batch", "N", "ingest batch size", Count(&cli->batch, 1)},
      {"max-rows", "N", "read at most N rows, 0 = all", Count(&cli->max_rows)},
      {"centroids-out", "FILE", "final centroids CSV",
       Text(&cli->centroids_out)},
      {"state-out", "FILE", "canonical micro-cluster dump",
       Text(&cli->state_out)},
      {"threads", "N", "shard (fleet: worker) threads, 0 = sequential",
       Count(&parallel.threads)},
      {"merge-every", "M", "points between global merges",
       Count(&parallel.merge_every)},
      {"backpressure", "P", "full-queue policy",
       Choice(&parallel.backpressure, kBackpressures)},
      {"queue-capacity", "N", "queue capacity in batches",
       Count(&parallel.queue_capacity, 1)},
      {"degrade", nullptr, "load shedding + worker supervision",
       Switch(&parallel.degrade)},
      {"snapshot-every", "N", "snapshot cadence, 0 disables",
       Count(&config->snapshot.snapshot_every)},
      {"snapshot-store", "M", "store encoding (fleet default delta)",
       Choice(&tiering.mode, kStoreModes)},
      {"snapshot-budget-mb", "N", "tiered-store budget",
       Count(&tiering.budget_bytes, 0, std::size_t{1} << 20)},
      {"snapshot-spill-dir", "DIR", "tiered-store spill directory",
       Text(&tiering.spill_dir)},
      {"metrics-out", "STEM", "write STEM.json + STEM.csv",
       Text(&cli->metrics_out)},
      {"metrics-every", "N", "re-export metrics every N points",
       Count(&cli->metrics_every)},
      {"checkpoint-dir", "DIR", "crash-safe checkpoints here",
       Text(&cli->checkpoint_dir)},
      {"checkpoint-every", "N", "checkpoint every N points",
       Count(&config->checkpoint.every_points)},
      {"checkpoint-seconds", "T", "checkpoint every T seconds",
       Real(&config->checkpoint.every_seconds)},
      {"recover", nullptr, "resume from the newest checkpoint",
       Switch(&cli->recover)},
      {"bad-record-policy", "P", "malformed-record handling",
       Choice(&cli->bad_record_policy, kBadRecordPolicies)},
      {"quarantine-out", "FILE", "quarantined-record CSV",
       Text(&cli->quarantine_out)},
      {"inject-faults", "SPEC", "stream faults, e.g. corrupt=0.01,gap=0.001",
       Text(&cli->inject_faults)},
      {"fault-seed", "N", "fault-injection seed", Count(&cli->fault_seed)},
      {"serve", nullptr, "answer queries on stdin/stdout after ingest",
       Switch(&cli->serve)},
      {"serve-threads", "N", "query worker threads",
       Count(&config->serve.threads, 1)},
      {"tenants", "N", "tenant engines in one fleet",
       Count(&config->fleet.tenants)},
      {"tenant-key", "K", "record-to-tenant routing",
       Choice(&cli->tenant_key, kTenantKeys)},
      {"role", "R", "merge-tree role", Choice(&cli->role, kRoles)},
      {"connect", "HOST:PORT", "aggregator address", Text(&cli->connect)},
      {"listen", "HOST:PORT", "aggregator bind address", Text(&cli->listen)},
      {"dims", "D", "stream dimensionality", Count(&cli->dims)},
      {"leaf-id", "N", "this leaf's shard slot", Count(&cli->leaf_id)},
      {"delta-every", "N", "ship a delta every N points",
       Count(&cli->delta_every), kLeaf},
      {"stride", "N", "ingest rows with index % N == K",
       Count(&cli->stride, 1), kLeaf},
      {"offset", "K", "see --stride", Count(&cli->offset), kLeaf},
      {"standby", "H:P[,H:P]", "standby aggregators", Text(&cli->standby),
       kLeaf},
      {"expect-points", "N", "write --state-out after N points",
       Count(&cli->expect_points)},
      {"expect-timeout", "T", "--expect-points timeout, seconds",
       Real(&cli->expect_timeout)},
      {"linger-seconds", "T", "serve T seconds after --state-out",
       Real(&cli->linger_seconds)},
      {"start-as-standby", nullptr, "start as a warm standby",
       Switch(&cli->start_as_standby), kAgg},
      {"stale-after", "T", "drop leaves silent for T seconds",
       Real(&cli->stale_after), kAgg},
      {"net-chaos", "SPEC", "wire faults, e.g. drop=0.05,delay=0.1",
       Text(&cli->net_chaos), kLeaf | kAgg},
      {"net-chaos-seed", "N", "network chaos seed",
       Count(&cli->net_chaos_seed)},
  };
}

/// The usage text, generated from a table over the defaults.
void PrintUsage() {
  EngineConfig config = CliDefaults();
  CliInputs cli;
  std::fprintf(stderr,
               "usage: umicro_cli (--input=FILE | --synthetic=NAME) "
               "[options]; reference: docs/tools.md\n");
  for (const Flag& flag : FlagTable(&config, &cli)) {
    std::string spelled = std::string("--") + flag.name;
    if (flag.value != nullptr) spelled += std::string("=") + flag.value;
    std::string help = flag.help;
    if (flag.target.enumerated) help += ": " + flag.target.want;
    const std::string shown = flag.target.show();
    if (!shown.empty()) help += " (default " + shown + ")";
    if (flag.roles != kAnyRole) help += " [" + RolesText(flag.roles) + "]";
    std::fprintf(stderr, "  %-24s %s\n", spelled.c_str(), help.c_str());
  }
}

/// Parses argv[1..] against `flags`, recording each flag seen in
/// `given`. Returns 0, or 2 after printing one diagnostic line (plus the
/// usage text for an unknown argument).
int ParseCommandLine(int argc, char** argv, const std::vector<Flag>& flags,
                     std::set<std::string>* given) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const Flag* match = nullptr;
    std::string value;
    for (const Flag& flag : flags) {
      const std::string spelled = std::string("--") + flag.name;
      if (flag.value == nullptr ? arg == spelled
                                : arg.rfind(spelled + "=", 0) == 0) {
        match = &flag;
        if (flag.value != nullptr) value = arg.substr(spelled.size() + 1);
        break;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
    const Target& target = match->target;
    if (!target.parse(value)) {
      if (target.enumerated) {
        std::fprintf(stderr, "unknown --%s: %s (want %s)\n", match->name,
                     value.c_str(), target.want.c_str());
      } else {
        std::fprintf(stderr, "--%s must be %s (got '%s')\n", match->name,
                     target.want.c_str(), value.c_str());
      }
      return 2;
    }
    given->insert(match->name);
  }
  return 0;
}

/// Rejects a role-restricted flag given under another role. Role/flag
/// mismatches fail fast (exit 2) before any socket or dataset work: a
/// misconfigured process in a multi-host topology should die at launch,
/// not half-participate.
int CheckRoles(const std::vector<Flag>& flags,
               const std::set<std::string>& given, Role role) {
  for (const Flag& flag : flags) {
    if (flag.roles == kAnyRole || (flag.roles & RoleBit(role)) != 0 ||
        given.count(flag.name) == 0) {
      continue;
    }
    std::string peers;  // every flag under the same restriction
    for (const Flag& other : flags) {
      if (other.roles != flag.roles) continue;
      peers += " --";
      peers += other.name;
    }
    const std::string roles = RolesText(flag.roles);
    std::fprintf(stderr, "--%s requires %s (flags that require %s:%s)\n",
                 flag.name, roles.c_str(), roles.c_str(), peers.c_str());
    return 2;
  }
  return 0;
}

/// Parses the --inject-faults spec ("key=value,..." with keys corrupt,
/// duplicate, reorder, gap, max-gap); std::nullopt on any malformed or
/// out-of-range entry.
std::optional<umicro::resilience::FaultInjectionOptions> ParseFaultSpec(
    const std::string& spec, std::uint64_t seed) {
  umicro::resilience::FaultInjectionOptions options;
  options.seed = seed;
  std::size_t start = 0;
  while (start < spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    const std::string key = item.substr(0, eq);
    char* parse_end = nullptr;
    const double value = std::strtod(item.c_str() + eq + 1, &parse_end);
    if (parse_end != item.c_str() + item.size()) return std::nullopt;
    if (key == "max-gap") {
      if (value < 1.0) return std::nullopt;
      options.max_gap_length = static_cast<std::size_t>(value);
      continue;
    }
    if (value < 0.0 || value > 1.0) return std::nullopt;
    if (key == "corrupt") {
      options.corrupt_probability = value;
    } else if (key == "duplicate") {
      options.duplicate_probability = value;
    } else if (key == "reorder") {
      options.reorder_probability = value;
    } else if (key == "gap") {
      options.gap_probability = value;
    } else {
      return std::nullopt;
    }
  }
  return options;
}

/// Parses the comma-separated --standby endpoint list; std::nullopt on
/// any malformed HOST:PORT entry (or an empty list).
std::optional<std::vector<umicro::net::SocketAddress>> ParseStandbyList(
    const std::string& spec) {
  std::vector<umicro::net::SocketAddress> endpoints;
  std::size_t start = 0;
  while (start < spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::optional<umicro::net::SocketAddress> address =
        umicro::net::ParseHostPort(spec.substr(start, end - start));
    if (!address.has_value()) return std::nullopt;
    endpoints.push_back(*address);
    start = end + 1;
  }
  if (endpoints.empty()) return std::nullopt;
  return endpoints;
}

/// False (after one diagnostic line) when a given output path cannot be
/// written.
bool OutputsWritable(const CliInputs& cli) {
  const std::pair<const char*, std::string> outputs[] = {
      {"metrics-out", cli.metrics_out.empty() ? "" : cli.metrics_out + ".json"},
      {"centroids-out", cli.centroids_out},
      {"quarantine-out", cli.quarantine_out},
      {"state-out", cli.state_out}};
  for (const auto& [flag, path] : outputs) {
    if (path.empty() || umicro::util::PathIsWritable(path)) continue;
    std::fprintf(stderr, "--%s is not writable: %s\n", flag, path.c_str());
    return false;
  }
  return true;
}

/// The end-of-run metrics dump; false (with a diagnostic) on failure.
bool FinalExport(umicro::obs::MetricsExporter& exporter) {
  if (!exporter.ExportNow()) {
    std::fprintf(stderr, "failed to write metrics to %s.{json,csv}\n",
                 exporter.base_path().c_str());
    return false;
  }
  std::printf("metrics written to %s.json / %s.csv\n",
              exporter.base_path().c_str(), exporter.base_path().c_str());
  return true;
}

/// --role=agg: listen, merge leaf deltas, serve queries. No dataset is
/// loaded; everything arrives over the socket.
int RunAggregatorRole(const CliInputs& cli, const EngineConfig& config) {
  const std::optional<umicro::net::SocketAddress> listen =
      umicro::net::ParseHostPort(cli.listen);
  if (!listen.has_value()) {
    std::fprintf(stderr, "malformed --listen address: %s\n",
                 cli.listen.c_str());
    return 2;
  }
  umicro::obs::MetricsRegistry metrics;
  umicro::dist::AggregatorOptions options;
  options.listen = *listen;
  options.dimensions = cli.dims;
  options.dimension_threshold = config.umicro.dimension_threshold;
  options.global_budget = config.umicro.num_micro_clusters;
  options.snapshot = config.snapshot;
  options.decay_lambda = config.umicro.decay_lambda;
  options.broker = umicro::serve::QueryBrokerOptions::FromConfig(config);
  options.start_as_standby = cli.start_as_standby;
  options.stale_after_ms =
      static_cast<int>(cli.stale_after * 1000.0 + 0.5);
  umicro::dist::Aggregator aggregator(options, &metrics);
  if (!aggregator.Start()) {
    std::fprintf(stderr, "failed to listen on %s\n", cli.listen.c_str());
    return 1;
  }
  // The e2e harness scrapes this line for the resolved (ephemeral)
  // port; keep its exact shape.
  std::printf("aggregator listening on %s:%u\n", listen->host.c_str(),
              static_cast<unsigned>(aggregator.port()));
  std::printf("aggregator role: %s\n", aggregator.role().c_str());
  std::fflush(stdout);

  if (cli.expect_points > 0) {
    const int timeout_ms =
        static_cast<int>(std::max(1.0, cli.expect_timeout * 1000.0));
    if (!aggregator.WaitForPoints(cli.expect_points, timeout_ms)) {
      std::fprintf(stderr,
                   "timed out waiting for %llu points (%llu merged from "
                   "%zu leaves)\n",
                   static_cast<unsigned long long>(cli.expect_points),
                   static_cast<unsigned long long>(
                       aggregator.total_points()),
                   aggregator.leaves_known());
      aggregator.Stop();
      return 1;
    }
    std::printf("merged %llu points from %zu leaves (%llu deltas "
                "applied)\n",
                static_cast<unsigned long long>(aggregator.total_points()),
                aggregator.leaves_known(),
                static_cast<unsigned long long>(
                    aggregator.deltas_applied()));
    if (!cli.state_out.empty()) {
      if (!umicro::io::WriteMicroClustersFile(aggregator.MergedClusters(),
                                              cli.dims, cli.state_out)) {
        std::fprintf(stderr, "failed to write %s\n", cli.state_out.c_str());
        aggregator.Stop();
        return 1;
      }
      std::printf("state written to %s\n", cli.state_out.c_str());
    }
    std::fflush(stdout);
    if (cli.linger_seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          cli.linger_seconds));
    }
  } else {
    // No point target: serve until stdin closes (the operator's or the
    // harness's hangup signal).
    std::string line;
    while (std::getline(std::cin, line)) {
    }
  }
  aggregator.Stop();
  if (!cli.metrics_out.empty()) {
    umicro::obs::MetricsExporter exporter(&metrics, cli.metrics_out, 0);
    if (!exporter.ExportNow()) {
      std::fprintf(stderr, "failed to write metrics to %s.{json,csv}\n",
                   cli.metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}

/// --role=query: a line-protocol client. Requests come from stdin, one
/// per line; responses are echoed to stdout in order.
int RunQueryRole(const CliInputs& cli) {
  const std::optional<umicro::net::SocketAddress> address =
      umicro::net::ParseHostPort(cli.connect);
  if (!address.has_value()) {
    std::fprintf(stderr, "malformed --connect address: %s\n",
                 cli.connect.c_str());
    return 2;
  }
  std::optional<umicro::net::Socket> socket =
      umicro::net::TcpConnect(*address, 5000);
  if (!socket.has_value()) {
    std::fprintf(stderr, "failed to connect to %s\n", cli.connect.c_str());
    return 1;
  }
  umicro::net::SocketStream stream(&socket.value(), 30000);
  std::string line;
  bool quit_sent = false;
  while (std::getline(std::cin, line)) {
    stream << line << "\n" << std::flush;
    if (line == "QUIT") {
      quit_sent = true;
      break;
    }
    // One request, one response -- except CLUSTER, whose response runs
    // through the END marker.
    std::string reply;
    if (!std::getline(stream, reply)) break;
    std::printf("%s\n", reply.c_str());
    if (reply.rfind("OK CLUSTER", 0) == 0) {
      while (std::getline(stream, reply)) {
        std::printf("%s\n", reply.c_str());
        if (reply == "END") break;
      }
    }
  }
  if (!quit_sent) stream << "QUIT\n" << std::flush;
  std::string reply;
  while (std::getline(stream, reply)) {
    std::printf("%s\n", reply.c_str());
  }
  return 0;
}

// ---- Fleet mode (docs/fleet.md) --------------------------------------

/// Deterministic record -> tenant routing for --tenants. Every key
/// depends only on the record and its original row index, so a
/// --recover rerun assigns each record to the same tenant and the
/// per-tenant replay offsets line up exactly.
std::uint64_t AssignTenant(const umicro::stream::UncertainPoint& point,
                           std::size_t row, TenantKey key,
                           std::uint64_t tenants) {
  if (key == TenantKey::kHash) {
    // FNV-1a over the value bytes: stable across runs and hosts.
    std::uint64_t hash = 1469598103934665603ull;
    for (double v : point.values) {
      unsigned char bytes[sizeof v];
      std::memcpy(bytes, &v, sizeof v);
      for (unsigned char b : bytes) {
        hash ^= b;
        hash *= 1099511628211ull;
      }
    }
    return hash % tenants;
  }
  if (key == TenantKey::kLabel) {
    const std::uint64_t label =
        point.label < 0 ? 0u : static_cast<std::uint64_t>(point.label);
    return label % tenants;
  }
  return static_cast<std::uint64_t>(row) % tenants;  // round_robin
}

/// The --tenants path: one EngineFleet instead of one engine. The
/// dataset arrives already hardened/imputed/perturbed, so fleet runs
/// see exactly the stream a single-engine run would.
int RunFleetMode(const CliInputs& cli, EngineConfig config,
                 const umicro::stream::Dataset& dataset) {
  // --threads and --queue-capacity size the fleet's shared worker pool.
  if (config.parallel.threads > 0) {
    config.fleet.workers = config.parallel.threads;
  }
  config.fleet.queue_capacity = config.parallel.queue_capacity;

  std::unique_ptr<umicro::fleet::EngineFleet> fleet;
  std::map<std::uint64_t, std::uint64_t> resume_from;
  if (cli.recover) {
    umicro::fleet::RecoveredFleet recovered =
        umicro::fleet::RecoverOrCreateFleet(cli.checkpoint_dir,
                                            dataset.dimensions(), config);
    fleet = std::move(recovered.fleet);
    if (recovered.recovered) {
      resume_from = std::move(recovered.resume_from);
      std::printf("recovered fleet manifest %llu: %zu tenants restored, "
                  "%zu corrupt skipped, %zu manifests passed over\n",
                  static_cast<unsigned long long>(recovered.manifest_seq),
                  recovered.tenants_restored, recovered.corrupt_skipped,
                  recovered.manifests_skipped);
    } else {
      std::printf("no usable fleet manifest in %s; starting fresh\n",
                  cli.checkpoint_dir.c_str());
    }
  } else {
    fleet = std::make_unique<umicro::fleet::EngineFleet>(
        dataset.dimensions(), config);
  }
  std::printf("fleet: %zu tenants on %zu workers (%s routing)\n",
              config.fleet.tenants, config.fleet.workers,
              NameOf(kTenantKeys, cli.tenant_key).c_str());

  std::unique_ptr<umicro::fleet::FleetCheckpointer> checkpointer;
  if (!cli.checkpoint_dir.empty()) {
    checkpointer = std::make_unique<umicro::fleet::FleetCheckpointer>(
        cli.checkpoint_dir, config.checkpoint, &fleet->metrics());
  }
  std::unique_ptr<umicro::obs::MetricsExporter> exporter;
  if (!cli.metrics_out.empty()) {
    exporter = std::make_unique<umicro::obs::MetricsExporter>(
        &fleet->metrics(), cli.metrics_out, cli.metrics_every);
  }
  if (cli.serve) {
    // Attach every tenant's read replica before any point flows, the
    // same ordering the single-engine path uses (docs/serving.md).
    for (std::uint64_t tenant : fleet->TenantIds()) {
      fleet->EnsureServing(tenant);
    }
  }

  // Ingest. Routing is deterministic, so each tenant's substream is
  // reproducible; after recovery the first resume_from[tenant] records
  // of that substream are exactly what its checkpoint already holds.
  const auto started = std::chrono::steady_clock::now();
  std::map<std::uint64_t, std::uint64_t> routed;  // tenant -> seen
  std::uint64_t ingested = 0;
  std::uint64_t skipped = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::uint64_t tenant =
        AssignTenant(dataset[i], i, cli.tenant_key, config.fleet.tenants);
    const std::uint64_t position = routed[tenant]++;
    const auto offset = resume_from.find(tenant);
    if (offset != resume_from.end() && position < offset->second) {
      ++skipped;
      continue;
    }
    fleet->Ingest(tenant, dataset[i]);
    ++ingested;
    // Cadence checks batched: Stats() walks every worker counter.
    if ((ingested & 255u) == 0) {
      if (exporter != nullptr && cli.metrics_every > 0) {
        exporter->TickPoints(static_cast<std::size_t>(ingested));
      }
      if (checkpointer != nullptr) checkpointer->MaybeCheckpoint(*fleet);
    }
  }
  fleet->Flush();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  const umicro::fleet::FleetStats stats = fleet->Stats();
  std::printf("fleet ingested %llu points",
              static_cast<unsigned long long>(ingested));
  if (skipped > 0) {
    std::printf(" (%llu already checkpointed)",
                static_cast<unsigned long long>(skipped));
  }
  std::printf(": skew %.3f, %.0f points/sec\n", stats.ingest_skew,
              elapsed > 0.0 ? static_cast<double>(ingested) / elapsed
                            : 0.0);

  if (checkpointer != nullptr) {
    if (!checkpointer->CheckpointNow(*fleet)) {
      std::fprintf(stderr, "failed to write final fleet checkpoint in "
                   "%s\n",
                   cli.checkpoint_dir.c_str());
      return 1;
    }
    std::printf("fleet checkpoints: %zu passes, last pass rewrote "
                "%zu/%zu tenants (dirty ratio %.3f), manifest seq "
                "%llu\n",
                checkpointer->checkpoints_written(),
                checkpointer->last_dirty_count(), fleet->tenant_count(),
                checkpointer->last_dirty_ratio(),
                static_cast<unsigned long long>(checkpointer->last_seq()));
  }

  if (cli.serve) {
    umicro::serve::QueryBrokerOptions broker_options =
        umicro::serve::QueryBrokerOptions::FromConfig(config);
    umicro::serve::QueryBroker broker(fleet->Resolver(), broker_options,
                                      &fleet->metrics());
    std::printf("serving %zu tenants on stdin/stdout with %zu query "
                "threads (HELLO/TENANT/CLUSTER/NEAREST/ANOMALY/STATS/"
                "QUIT)\n",
                fleet->tenant_count(), config.serve.threads);
    std::fflush(stdout);
    const std::size_t served =
        umicro::serve::ServeLineProtocol(broker, std::cin, std::cout);
    std::printf("served %zu queries\n", served);
  }

  if (exporter != nullptr && !FinalExport(*exporter)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  EngineConfig config = CliDefaults();
  CliInputs cli;
  const std::vector<Flag> flags = FlagTable(&config, &cli);
  std::set<std::string> given;
  if (const int rc = ParseCommandLine(argc, argv, flags, &given)) return rc;
  if (const int rc = CheckRoles(flags, given, cli.role)) return rc;

  // Snapshot-store flags are validated before the role dispatch: every
  // role that owns a pyramidal store honors them.
  umicro::core::SnapshotTiering& tiering = config.snapshot.tiering;
  if ((given.count("snapshot-budget-mb") || !tiering.spill_dir.empty()) &&
      tiering.mode != SnapshotStoreMode::kTiered) {
    std::fprintf(stderr,
                 "--snapshot-budget-mb/--snapshot-spill-dir require "
                 "--snapshot-store=tiered (full and delta stores never "
                 "demote frames)\n");
    return 2;
  }
  if (!tiering.spill_dir.empty()) {
    if (!umicro::util::EnsureDirectory(tiering.spill_dir)) {
      std::fprintf(stderr, "cannot create --snapshot-spill-dir: %s\n",
                   tiering.spill_dir.c_str());
      return 1;
    }
    tiering.codec = umicro::io::MakeSnapshotSpillCodec();
  }
  // The fleet's per-tenant store defaults to delta encoding; an explicit
  // --snapshot-store overrides it (full for debugging, tiered to cap the
  // fleet's snapshot bytes).
  if (given.count("snapshot-store")) config.fleet.snapshot.tiering = tiering;

  // ---- Distributed roles ---------------------------------------------
  // agg and query never load a dataset; they are dispatched before the
  // standalone/leaf validation below.
  if (!cli.net_chaos.empty()) {
    const std::optional<umicro::net::ChaosOptions> chaos_options =
        umicro::net::ParseChaosSpec(cli.net_chaos, cli.net_chaos_seed);
    if (!chaos_options.has_value()) {
      std::fprintf(stderr, "malformed --net-chaos spec: %s\n",
                   cli.net_chaos.c_str());
      return 2;
    }
    umicro::net::ChaosTransport::Instance().Enable(*chaos_options);
    std::fprintf(stderr, "net chaos enabled: %s (seed %llu)\n",
                 cli.net_chaos.c_str(),
                 static_cast<unsigned long long>(cli.net_chaos_seed));
  }
  if (cli.role == Role::kAgg) {
    if (cli.listen.empty() || cli.dims == 0) {
      std::fprintf(stderr, "--role=agg requires --listen and --dims\n");
      return 2;
    }
    if (!OutputsWritable(cli)) return 1;
    return RunAggregatorRole(cli, config);
  }
  if (cli.role == Role::kQuery) {
    if (cli.connect.empty()) {
      std::fprintf(stderr, "--role=query requires --connect\n");
      return 2;
    }
    return RunQueryRole(cli);
  }
  const bool leaf_role = cli.role == Role::kLeaf;
  const bool umicro_algorithm = cli.algorithm == Algorithm::kUMicro;
  const bool fleet_mode = config.fleet.tenants > 0;
  const bool checkpointing = !cli.checkpoint_dir.empty();
  const bool checkpoint_cadence = config.checkpoint.every_points > 0 ||
                                  config.checkpoint.every_seconds > 0.0;
  const bool hardening = cli.bad_record_policy.has_value();
  const std::optional<std::vector<umicro::net::SocketAddress>>
      standby_endpoints = ParseStandbyList(cli.standby);
  const std::optional<umicro::resilience::FaultInjectionOptions>
      fault_options =
          cli.inject_faults.empty()
              ? std::nullopt
              : ParseFaultSpec(cli.inject_faults, cli.fault_seed);
  if (cli.input.empty() == cli.synthetic.empty()) {
    std::fprintf(stderr,
                 "exactly one of --input and --synthetic is required\n");
    PrintUsage();
    return 2;
  }

  // ---- Fail fast: flag combinations ----------------------------------
  // Usage errors exit 2 with the first failing line before any work.
  const std::pair<bool, std::string> usage_errors[] = {
      {leaf_role && cli.connect.empty(), "--role=leaf requires --connect"},
      {leaf_role &&
           (!umicro_algorithm || config.parallel.threads > 0 || cli.serve),
       "--role=leaf requires --algorithm=umicro without --threads or "
       "--serve (the leaf IS one shard; the aggregator serves)"},
      {leaf_role && cli.offset >= cli.stride,
       "--role=leaf needs --offset < --stride"},
      {leaf_role && !umicro::net::ParseHostPort(cli.connect).has_value(),
       "malformed --connect address: " + cli.connect},
      {!cli.standby.empty() && !standby_endpoints.has_value(),
       "malformed --standby list: " + cli.standby},
      {cli.recover && !checkpointing, "--recover requires --checkpoint-dir"},
      {checkpoint_cadence && !checkpointing,
       "--checkpoint-every/--checkpoint-seconds require --checkpoint-dir"},
      {checkpointing && !umicro_algorithm,
       "--checkpoint-dir requires --algorithm=umicro (the baselines have "
       "no serializable engine state)"},
      {!cli.metrics_out.empty() && !umicro_algorithm,
       "--metrics-out requires --algorithm=umicro (the baselines are "
       "uninstrumented)"},
      {config.parallel.degrade && config.parallel.threads == 0,
       "--degrade requires --threads (load shedding lives in the sharded "
       "pipeline)"},
      {!cli.quarantine_out.empty() && !hardening,
       "--quarantine-out requires --bad-record-policy"},
      {!cli.inject_faults.empty() && !hardening,
       "--inject-faults requires --bad-record-policy (an unhardened engine "
       "would abort on corrupt records)"},
      {!cli.inject_faults.empty() && !fault_options.has_value(),
       "malformed --inject-faults spec: " + cli.inject_faults},
      {cli.serve && !umicro_algorithm,
       "--serve requires --algorithm=umicro (the baselines publish no "
       "snapshot replica)"},
      {fleet_mode && !umicro_algorithm,
       "--tenants requires --algorithm=umicro (the fleet hosts umicro "
       "tenant engines)"},
      {fleet_mode && cli.role != Role::kStandalone,
       "--tenants is incompatible with --role (the fleet is a "
       "single-process multi-tenant host)"},
      {fleet_mode && config.parallel.degrade,
       "--degrade applies to the sharded pipeline, not the fleet"},
      {fleet_mode && (!cli.state_out.empty() ||
                      !cli.centroids_out.empty() || cli.describe),
       "--state-out/--centroids-out/--describe are single-engine outputs; "
       "a fleet has one state per tenant (query it via --serve)"},
  };
  for (const auto& [failed, message] : usage_errors) {
    if (!failed) continue;
    std::fprintf(stderr, "%s\n", message.c_str());
    return 2;
  }

  // ---- Fail fast: paths ----------------------------------------------
  // Environment errors (missing input, unwritable destinations) exit 1
  // with one line, before minutes of clustering work.
  if (!cli.input.empty() && !umicro::util::FileExists(cli.input)) {
    std::fprintf(stderr, "input file not found: %s\n", cli.input.c_str());
    return 1;
  }
  if (!OutputsWritable(cli)) return 1;
  if (checkpointing && !umicro::util::EnsureDirectory(cli.checkpoint_dir)) {
    std::fprintf(stderr, "--checkpoint-dir is not usable: %s\n",
                 cli.checkpoint_dir.c_str());
    return 1;
  }

  // ---- Load ----------------------------------------------------------
  umicro::stream::Dataset dataset;
  umicro::io::DatasetLoadStats load_stats;
  if (!cli.synthetic.empty()) {
    // The workloads already carry the eta perturbation; do not perturb
    // a second time below.
    const double eta = cli.eta;
    cli.eta = 0.0;
    std::size_t points = cli.points;
    if (cli.max_rows != 0) points = std::min(points, cli.max_rows);
    if (cli.synthetic == "syndrift") {
      dataset = umicro::synth::MakeSynDriftWorkload(points, eta);
    } else if (cli.synthetic == "network") {
      dataset = umicro::synth::MakeNetworkWorkload(points, eta);
    } else if (cli.synthetic == "forest") {
      dataset = umicro::synth::MakeForestWorkload(points, eta);
    } else {
      std::fprintf(stderr, "unknown synthetic workload: %s\n",
                   cli.synthetic.c_str());
      return 2;
    }
    std::printf("generated %zu records x %zu dimensions (%s, eta=%.2f)\n",
                dataset.size(), dataset.dimensions(), cli.synthetic.c_str(),
                eta);
  } else if (cli.input.ends_with(".arff")) {
    auto loaded = umicro::io::ReadArffDataset(cli.input);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "failed to load ARFF file %s\n",
                   cli.input.c_str());
      return 1;
    }
    dataset = std::move(loaded->dataset);
    load_stats = loaded->stats;
    if (cli.max_rows != 0 && dataset.size() > cli.max_rows) {
      umicro::stream::Dataset truncated(dataset.dimensions());
      for (std::size_t i = 0; i < cli.max_rows; ++i) {
        truncated.Add(dataset[i]);
      }
      dataset = std::move(truncated);
    }
    std::printf("loaded %zu records x %zu dimensions from %s\n",
                dataset.size(), dataset.dimensions(), cli.input.c_str());
  } else {
    umicro::io::CsvReadOptions read_options;
    read_options.has_header = !cli.no_header;
    read_options.max_rows = cli.max_rows;
    auto loaded = umicro::io::ReadCsvDataset(cli.input, read_options);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "failed to load CSV file %s\n",
                   cli.input.c_str());
      return 1;
    }
    dataset = std::move(loaded->dataset);
    load_stats = loaded->stats;
    std::printf("loaded %zu records x %zu dimensions from %s\n",
                dataset.size(), dataset.dimensions(), cli.input.c_str());
  }
  if (load_stats.rows_skipped() > 0) {
    std::printf("skipped %zu malformed rows (%zu wrong arity, %zu bad "
                "numerics)\n",
                load_stats.rows_skipped(), load_stats.short_rows,
                load_stats.bad_numeric_rows);
  }

  // ---- Fault injection + input hardening ------------------------------
  // Both are StreamSource decorators; the CLI applies them as one
  // deterministic pass over the loaded dataset, so a --recover rerun
  // with the same seed replays the identical hardened stream.
  umicro::resilience::FaultInjectionStats fault_stats;
  umicro::resilience::ValidationStats validation_stats;
  const bool validating = cli.bad_record_policy.has_value();
  if (validating) {
    umicro::stream::VectorStream raw(dataset);
    umicro::stream::StreamSource* tail = &raw;
    std::unique_ptr<umicro::resilience::FaultInjectingStream> injector;
    if (fault_options.has_value()) {
      injector = std::make_unique<umicro::resilience::FaultInjectingStream>(
          tail, *fault_options);
      tail = injector.get();
    }
    umicro::resilience::ValidationOptions validation_options;
    validation_options.policies =
        umicro::resilience::ValidationPolicies::Uniform(*cli.bad_record_policy);
    validation_options.quarantine_path = cli.quarantine_out;
    umicro::resilience::ValidatingStream validator(
        tail, dataset.dimensions(), validation_options);
    umicro::stream::Dataset hardened(dataset.dimensions());
    while (std::optional<umicro::stream::UncertainPoint> point =
               validator.Next()) {
      hardened.Add(std::move(*point));
    }
    if (injector != nullptr) {
      fault_stats = injector->stats();
      std::printf("injected faults: %llu corrupted, %llu duplicated, "
                  "%llu reordered, %llu lost to gaps (seed %llu)\n",
                  static_cast<unsigned long long>(
                      fault_stats.records_corrupted),
                  static_cast<unsigned long long>(
                      fault_stats.records_duplicated),
                  static_cast<unsigned long long>(
                      fault_stats.records_reordered),
                  static_cast<unsigned long long>(fault_stats.records_gapped),
                  static_cast<unsigned long long>(cli.fault_seed));
    }
    validation_stats = validator.stats();
    std::printf("validated %llu records: %llu ok, %llu repaired, "
                "%llu quarantined, %llu dropped\n",
                static_cast<unsigned long long>(
                    validation_stats.records_seen),
                static_cast<unsigned long long>(validation_stats.records_ok),
                static_cast<unsigned long long>(
                    validation_stats.records_repaired),
                static_cast<unsigned long long>(
                    validation_stats.records_quarantined),
                static_cast<unsigned long long>(
                    validation_stats.records_dropped));
    dataset = std::move(hardened);
    if (dataset.empty()) {
      std::fprintf(stderr, "no records survived validation\n");
      return 1;
    }
  }

  // ---- Optional imputation -------------------------------------------
  if (cli.impute) {
    umicro::stream::OnlineMeanImputer imputer(dataset.dimensions());
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      dataset.at(i) = imputer.Impute(dataset[i]);
    }
    std::printf("imputed %zu missing entries (%zu before any data)\n",
                imputer.entries_imputed(), imputer.imputed_before_data());
  } else {
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (umicro::stream::HasMissingValues(dataset[i])) {
        std::fprintf(stderr,
                     "record %zu has missing values; rerun with --impute\n",
                     i);
        return 1;
      }
    }
  }

  // ---- Optional perturbation -----------------------------------------
  if (cli.eta > 0.0) {
    umicro::stream::StreamStats stats(dataset.dimensions());
    stats.AddAll(dataset);
    umicro::stream::PerturbationOptions perturb;
    perturb.eta = cli.eta;
    umicro::stream::Perturber perturber(stats.Stddevs(), perturb);
    perturber.PerturbDataset(dataset);
    std::printf("perturbed with eta=%.2f\n", cli.eta);
  }

  // ---- Leaf substream --------------------------------------------------
  // The filter runs after every deterministic transform above, so each
  // leaf sees exactly the rows shard `offset` of a `stride`-way
  // round-robin partition would see -- the bit-identity precondition of
  // the distributed merge (docs/distributed.md).
  if (leaf_role && cli.stride > 1) {
    umicro::stream::Dataset substream(dataset.dimensions());
    for (std::size_t i = cli.offset; i < dataset.size(); i += cli.stride) {
      substream.Add(dataset[i]);
    }
    std::printf("leaf substream: %zu of %zu rows (stride %zu, offset "
                "%zu)\n",
                substream.size(), dataset.size(), cli.stride, cli.offset);
    dataset = std::move(substream);
    if (dataset.empty()) {
      std::fprintf(stderr, "substream is empty\n");
      return 1;
    }
  }

  // ---- Fleet mode -----------------------------------------------------
  // Dispatched after every deterministic input transform, so tenant
  // substreams match what a single-engine run over the same flags would
  // have ingested.
  if (fleet_mode) return RunFleetMode(cli, config, dataset);

  // ---- Build the clusterer --------------------------------------------
  // The umicro algorithm runs behind the unified engine interface --
  // sequential and sharded are interchangeable here. The baselines only
  // implement the plain StreamClusterer contract.
  std::unique_ptr<umicro::core::ClusteringEngine> engine;
  std::unique_ptr<umicro::stream::StreamClusterer> baseline;
  std::uint64_t resume_from = 0;
  const std::size_t dims = dataset.dimensions();
  if (umicro_algorithm) {
    // Recovery needs a factory: RecoverOrCreateEngine builds the engine
    // fresh and restores the newest compatible checkpoint into it.
    std::function<std::unique_ptr<umicro::core::ClusteringEngine>()> factory;
    if (config.parallel.threads > 0) {
      const umicro::parallel::ParallelEngineOptions options =
          umicro::parallel::ParallelEngineOptions::FromConfig(config);
      factory = [dims, options]() {
        return std::make_unique<umicro::parallel::ParallelUMicroEngine>(
            dims, options);
      };
      std::printf("sharded ingest: %zu threads, merge every %zu points, "
                  "%s backpressure%s\n",
                  config.parallel.threads, config.parallel.merge_every,
                  NameOf(kBackpressures, config.parallel.backpressure).c_str(),
                  config.parallel.degrade ? ", adaptive degradation armed"
                                          : "");
    } else {
      factory = [dims, config]() {
        return std::make_unique<umicro::core::UMicroEngine>(dims, config);
      };
    }
    if (cli.recover) {
      umicro::resilience::RecoveredEngine recovered =
          umicro::resilience::RecoverOrCreateEngine(cli.checkpoint_dir,
                                                    factory);
      engine = std::move(recovered.engine);
      if (recovered.recovered) {
        resume_from = recovered.resume_from;
        std::printf("recovered from %s (%llu points already processed",
                    recovered.checkpoint_path.c_str(),
                    static_cast<unsigned long long>(resume_from));
        if (recovered.corrupt_skipped > 0) {
          std::printf(", %zu unusable checkpoints skipped",
                      recovered.corrupt_skipped);
        }
        std::printf(")\n");
      } else {
        std::printf("no usable checkpoint in %s; starting fresh\n",
                    cli.checkpoint_dir.c_str());
      }
    } else {
      engine = factory();
    }
  } else if (cli.algorithm == Algorithm::kCluStream) {
    umicro::baseline::CluStreamOptions options;
    options.num_micro_clusters = config.umicro.num_micro_clusters;
    options.boundary_factor = config.umicro.boundary_factor;
    baseline = std::make_unique<umicro::baseline::CluStream>(dims, options);
  } else {
    umicro::baseline::StreamKMeansOptions options;
    options.k = config.umicro.num_micro_clusters;
    baseline =
        std::make_unique<umicro::baseline::StreamKMeans>(dims, options);
  }
  umicro::stream::StreamClusterer& clusterer =
      engine != nullptr ? static_cast<umicro::stream::StreamClusterer&>(
                              *engine)
                        : *baseline;

  // ---- Query-serving replica ------------------------------------------
  // Attached before any point flows, so every cadence snapshot is
  // mirrored into the read replica as it is taken (docs/serving.md).
  std::unique_ptr<umicro::serve::SnapshotReadReplica> replica;
  if (cli.serve) {
    replica = std::make_unique<umicro::serve::SnapshotReadReplica>(
        config.snapshot, config.umicro.decay_lambda);
    engine->AttachSnapshotSink(replica.get());
  }

  // ---- Route ingest-side counts into the engine registry -------------
  // The loader and the hardening pass ran before the engine existed, so
  // their tallies are folded in here; the exported metrics then carry
  // the full picture of what happened to the raw input.
  if (engine != nullptr) {
    umicro::obs::MetricsRegistry& metrics = engine->metrics();
    if (load_stats.rows_skipped() > 0) {
      metrics.GetCounter("io.rows_short").Increment(load_stats.short_rows);
      metrics.GetCounter("io.rows_bad_numeric")
          .Increment(load_stats.bad_numeric_rows);
    }
    if (validating) {
      metrics.GetCounter("resilience.records_ok")
          .Increment(validation_stats.records_ok);
      metrics.GetCounter("resilience.records_repaired")
          .Increment(validation_stats.records_repaired);
      metrics.GetCounter("resilience.records_quarantined")
          .Increment(validation_stats.records_quarantined);
      metrics.GetCounter("resilience.records_dropped")
          .Increment(validation_stats.records_dropped);
      metrics.GetCounter("resilience.bad.non_finite_value")
          .Increment(validation_stats.non_finite_values);
      metrics.GetCounter("resilience.bad.error_stddev")
          .Increment(validation_stats.bad_errors);
      metrics.GetCounter("resilience.bad.dimension_mismatch")
          .Increment(validation_stats.dimension_mismatches);
      metrics.GetCounter("resilience.bad.timestamp")
          .Increment(validation_stats.bad_timestamps);
    }
    if (fault_options.has_value()) {
      metrics.GetCounter("resilience.fault.corrupted")
          .Increment(fault_stats.records_corrupted);
      metrics.GetCounter("resilience.fault.duplicated")
          .Increment(fault_stats.records_duplicated);
      metrics.GetCounter("resilience.fault.reordered")
          .Increment(fault_stats.records_reordered);
      metrics.GetCounter("resilience.fault.gapped")
          .Increment(fault_stats.records_gapped);
    }
  }

  // ---- Checkpointing --------------------------------------------------
  std::unique_ptr<umicro::resilience::CheckpointManager> checkpointer;
  if (checkpointing) {
    checkpointer = std::make_unique<umicro::resilience::CheckpointManager>(
        cli.checkpoint_dir, config.checkpoint);
  }

  // ---- Replay offset after recovery -----------------------------------
  if (resume_from > 0) {
    umicro::stream::Dataset replay(dataset.dimensions());
    for (std::size_t i = static_cast<std::size_t>(resume_from);
         i < dataset.size(); ++i) {
      replay.Add(dataset[i]);
    }
    std::printf("replaying %zu of %zu records (the rest is in the "
                "checkpoint)\n",
                replay.size(), dataset.size());
    dataset = std::move(replay);
  }

  // ---- Metrics export -------------------------------------------------
  std::unique_ptr<umicro::obs::MetricsExporter> exporter;
  umicro::eval::ProgressFn progress;
  if (!cli.metrics_out.empty()) {
    exporter = std::make_unique<umicro::obs::MetricsExporter>(
        &engine->metrics(), cli.metrics_out, cli.metrics_every);
  }
  {
    umicro::obs::MetricsExporter* exporter_raw =
        cli.metrics_every > 0 ? exporter.get() : nullptr;
    umicro::resilience::CheckpointManager* checkpointer_raw =
        checkpoint_cadence
            ? checkpointer.get()
            : nullptr;
    umicro::core::ClusteringEngine* engine_raw = engine.get();
    if (exporter_raw != nullptr || checkpointer_raw != nullptr) {
      progress = [exporter_raw, checkpointer_raw,
                  engine_raw](std::size_t points) {
        if (exporter_raw != nullptr) exporter_raw->TickPoints(points);
        if (checkpointer_raw != nullptr) {
          checkpointer_raw->MaybeCheckpoint(*engine_raw);
        }
      };
    }
  }

  // ---- Cluster --------------------------------------------------------
  const bool labeled = !dataset.Labels().empty();
  std::optional<umicro::dist::LeafShipper> shipper;
  if (leaf_role) {
    // Leaf ingest: per-point Process (matching the reference sharded
    // run's per-shard sequences) with a state delta shipped to the
    // aggregator every --delta-every points. seq = points_processed, so
    // a restarted leaf replaying the same prefix re-ships deltas the
    // aggregator already holds -- which it acks and ignores.
    umicro::dist::LeafShipperOptions ship_options;
    ship_options.leaf_id = cli.leaf_id;
    ship_options.dimensions = dataset.dimensions();
    ship_options.standbys = standby_endpoints.value_or(
        std::vector<umicro::net::SocketAddress>{});
    shipper.emplace(*umicro::net::ParseHostPort(cli.connect), ship_options,
                    &engine->metrics());
    std::printf("leaf %llu: shipping to %s every %zu points"
                " (%zu standby%s)\n",
                static_cast<unsigned long long>(cli.leaf_id),
                cli.connect.c_str(), cli.delta_every,
                ship_options.standbys.size(),
                ship_options.standbys.size() == 1 ? "" : "s");
    std::fflush(stdout);
    const auto started = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      engine->Process(dataset[i]);
      const std::size_t done = engine->points_processed();
      if (progress) progress(done);
      if (cli.delta_every > 0 && done % cli.delta_every == 0) {
        const std::string text =
            umicro::io::EngineStateToString(engine->ExportEngineState());
        if (!shipper->ShipState(done, done, text)) {
          std::fprintf(stderr, "delta shipping failed at %zu points\n",
                       done);
          return 1;
        }
      }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    std::printf("leaf ingested %zu points (%.0f points/sec)\n",
                dataset.size(),
                elapsed > 0.0 ? dataset.size() / elapsed : 0.0);
  } else if (labeled) {
    const auto series = umicro::eval::RunPurityExperiment(
        clusterer, dataset, cli.sample_interval, progress, cli.batch);
    std::printf("\n%14s %10s %10s %8s\n", "points", "purity", "w-purity",
                "clusters");
    for (const auto& sample : series.samples) {
      std::printf("%14zu %10.4f %10.4f %8zu\n", sample.points_processed,
                  sample.purity, sample.weighted_purity,
                  sample.live_clusters);
    }
    std::printf("mean purity: %.4f (%s)\n", series.MeanPurity(),
                clusterer.name().c_str());
  } else {
    const auto series = umicro::eval::RunThroughputExperiment(
        clusterer, dataset, cli.sample_interval, 2.0, progress, cli.batch);
    std::printf("\nno labels: reporting throughput instead of purity\n");
    std::printf("overall rate: %.0f points/sec (%s)\n",
                series.overall_points_per_second,
                clusterer.name().c_str());
  }

  if (engine != nullptr) {
    engine->Flush();
    std::printf("snapshots stored: %zu\n", engine->store().TotalStored());
  }

  // ---- Final delta ship ------------------------------------------------
  if (leaf_role && shipper.has_value()) {
    const std::uint64_t done = engine->points_processed();
    const std::string text =
        umicro::io::EngineStateToString(engine->ExportEngineState());
    if (!shipper->ShipState(done, done, text)) {
      std::fprintf(stderr, "final delta ship failed\n");
      return 1;
    }
    shipper->Finish();
    std::printf("leaf deltas: %llu acked, %llu resends, %llu connects, "
                "%llu promotions\n",
                static_cast<unsigned long long>(shipper->deltas_acked()),
                static_cast<unsigned long long>(shipper->resends()),
                static_cast<unsigned long long>(shipper->connects()),
                static_cast<unsigned long long>(shipper->promotions()));
  }

  // ---- Canonical state dump --------------------------------------------
  // The merged (sharded) or live (sequential) micro-cluster set in the
  // codec's full-precision text form: the byte-comparable artifact the
  // distributed e2e check diffs against an aggregator's dump.
  const auto final_clusters = [&engine] {
    if (auto* parallel =
            dynamic_cast<umicro::parallel::ParallelUMicroEngine*>(
                engine.get())) {
      return parallel->sharded().GlobalClusters();
    }
    return dynamic_cast<umicro::core::UMicroEngine&>(*engine)
        .online()
        .clusters();
  };
  if (!cli.state_out.empty() && !leaf_role && engine != nullptr) {
    if (!umicro::io::WriteMicroClustersFile(
            final_clusters(), dataset.dimensions(), cli.state_out)) {
      std::fprintf(stderr, "failed to write %s\n", cli.state_out.c_str());
      return 1;
    }
    std::printf("state written to %s\n", cli.state_out.c_str());
  }

  // ---- Final checkpoint + resilience summary --------------------------
  if (checkpointer != nullptr && engine != nullptr) {
    if (!checkpointer->CheckpointNow(*engine)) {
      std::fprintf(stderr, "failed to write final checkpoint in %s\n",
                   cli.checkpoint_dir.c_str());
      return 1;
    }
    std::printf("checkpoints: %zu written (%zu failed), newest %s\n",
                checkpointer->checkpoints_written(),
                checkpointer->write_failures(),
                checkpointer->last_path().c_str());
  }
  if (config.parallel.degrade && engine != nullptr) {
    umicro::obs::MetricsRegistry& metrics = engine->metrics();
    std::printf(
        "degradation: %llu activations, %llu points shed in %llu "
        "batches, %llu worker restarts\n",
        static_cast<unsigned long long>(
            metrics.GetCounter("parallel.degrade.activations").value()),
        static_cast<unsigned long long>(
            metrics.GetCounter("parallel.degrade.points_shed").value()),
        static_cast<unsigned long long>(
            metrics.GetCounter("parallel.degrade.batches_shed").value()),
        static_cast<unsigned long long>(
            metrics.GetCounter("parallel.worker_restarts").value()));
  }

  // ---- Serve queries ---------------------------------------------------
  // Runs after Flush() (which published the freshest current snapshot),
  // so the first query already sees the full ingested stream. Blocks
  // until stdin closes or a QUIT arrives; the final metrics dump below
  // then includes the serve.* instruments.
  if (cli.serve && engine != nullptr) {
    umicro::serve::QueryBroker broker(
        replica.get(), umicro::serve::QueryBrokerOptions::FromConfig(config),
        &engine->metrics());
    std::printf("serving on stdin/stdout with %zu query threads "
                "(CLUSTER/NEAREST/ANOMALY/STATS/QUIT)\n",
                config.serve.threads);
    std::fflush(stdout);
    const std::size_t served =
        umicro::serve::ServeLineProtocol(broker, std::cin, std::cout);
    std::printf("served %zu queries\n", served);
  }

  if (cli.describe && engine != nullptr) {
    std::printf(
        "\n%s", umicro::core::SummarizeClusters(final_clusters()).c_str());
  }

  // ---- Final metrics dump ---------------------------------------------
  if (exporter != nullptr && !FinalExport(*exporter)) return 1;

  // ---- Dump centroids --------------------------------------------------
  const auto centroids = clusterer.ClusterCentroids();
  std::printf("final cluster count: %zu\n", centroids.size());
  if (!cli.centroids_out.empty() && !centroids.empty()) {
    std::vector<std::string> header;
    for (std::size_t j = 0; j < dataset.dimensions(); ++j) {
      header.push_back("c" + std::to_string(j));
    }
    umicro::util::CsvWriter writer(header);
    for (const auto& centroid : centroids) writer.AddRow(centroid);
    if (writer.WriteFile(cli.centroids_out)) {
      std::printf("centroids written to %s\n", cli.centroids_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n",
                   cli.centroids_out.c_str());
      return 1;
    }
  }
  return 0;
}
