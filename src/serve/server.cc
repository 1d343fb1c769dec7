#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/parse.h"

namespace umicro::serve {

namespace {

/// Echoes client input back safely inside an ERR line: non-printable
/// bytes are masked and the length capped, so hostile bytes (NULs,
/// control codes, megabyte tokens) can never desync the line protocol
/// through their own error message.
std::string SanitizeToken(const std::string& token) {
  constexpr std::size_t kEchoCap = 32;
  std::string safe;
  const std::size_t limit = std::min(token.size(), kEchoCap);
  safe.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    const unsigned char byte = static_cast<unsigned char>(token[i]);
    safe.push_back(byte >= 0x20 && byte < 0x7F ? static_cast<char>(byte)
                                               : '?');
  }
  if (token.size() > kEchoCap) safe += "...";
  return safe;
}

/// Reads one '\n'-terminated line of at most `limit` bytes (a trailing
/// '\r' is stripped for CRLF clients). Returns false at EOF with
/// nothing read. A longer line sets *overflow and is discarded through
/// its newline without ever being buffered whole.
bool ReadLineBounded(std::istream& in, std::string* line,
                     std::size_t limit, bool* overflow) {
  line->clear();
  *overflow = false;
  int ch;
  bool any = false;
  while ((ch = in.get()) != std::char_traits<char>::eof()) {
    any = true;
    if (ch == '\n') break;
    if (line->size() >= limit) {
      *overflow = true;
      while ((ch = in.get()) != std::char_traits<char>::eof() &&
             ch != '\n') {
      }
      break;
    }
    line->push_back(static_cast<char>(ch));
  }
  if (!any) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) tokens.push_back(std::move(token));
  return tokens;
}

/// Parses a strict decimal tenant id; false on sign, trailing garbage,
/// or overflow.
bool ParseTenantId(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string FormatClusterResponse(const QueryResponse& response) {
  std::ostringstream out;
  if (!response.clustering.has_value()) {
    out << "OK CLUSTER seq=" << response.publish_seq
        << " centroids=0 empty=1\nEND";
    return out.str();
  }
  const core::HorizonClustering& clustering = *response.clustering;
  out << "OK CLUSTER seq=" << response.publish_seq
      << " realized=" << FormatDouble(clustering.realized_horizon)
      << " ratio=" << FormatDouble(clustering.realized_ratio)
      << " window=" << clustering.window.size()
      << " centroids=" << clustering.macro.centroids.size() << "\n";
  // Per-macro-cluster weight: the window mass assigned to it.
  std::vector<double> weights(clustering.macro.centroids.size(), 0.0);
  for (std::size_t i = 0; i < clustering.macro.assignment.size(); ++i) {
    const int target = clustering.macro.assignment[i];
    if (target >= 0 && static_cast<std::size_t>(target) < weights.size()) {
      weights[target] += clustering.window[i].ecf.weight();
    }
  }
  for (std::size_t i = 0; i < clustering.macro.centroids.size(); ++i) {
    out << "C " << FormatDouble(weights[i]);
    for (const double coordinate : clustering.macro.centroids[i]) {
      out << ' ' << FormatDouble(coordinate);
    }
    out << '\n';
  }
  out << "END";
  return out.str();
}

std::string FormatResponse(const QueryRequest& request,
                           const QueryResponse& response,
                           const ServerOptions& options) {
  if (!response.ok) return "ERR " + response.error;
  switch (request.kind) {
    case QueryRequest::Kind::kClusterRecent:
      return FormatClusterResponse(response);
    case QueryRequest::Kind::kNearest: {
      if (!response.nearest.has_value()) {
        return "OK NEAREST seq=" + std::to_string(response.publish_seq) +
               " empty=1";
      }
      std::ostringstream out;
      out << "OK NEAREST seq=" << response.publish_seq
          << " id=" << response.nearest->cluster_id
          << " dist=" << FormatDouble(response.nearest->distance)
          << " weight=" << FormatDouble(response.nearest->weight);
      return out.str();
    }
    case QueryRequest::Kind::kAnomaly: {
      if (!response.nearest.has_value()) {
        return "OK ANOMALY seq=" + std::to_string(response.publish_seq) +
               " empty=1";
      }
      std::ostringstream out;
      out << "OK ANOMALY seq=" << response.publish_seq
          << " novel=" << (response.anomalous ? 1 : 0)
          << " dist=" << FormatDouble(response.nearest->distance)
          << " boundary=" << FormatDouble(response.boundary);
      return out.str();
    }
    case QueryRequest::Kind::kStats: {
      const ServeStats& stats = response.stats.value();
      std::ostringstream out;
      out << "OK STATS seq=" << stats.publish_seq
          << " time=" << FormatDouble(stats.published_time)
          << " clusters=" << stats.live_clusters
          << " snapshots=" << stats.snapshots_retained
          << " served=" << stats.queries_served
          << " queue=" << stats.queue_depth;
      if (options.status) {
        const ServeStatus status = options.status();
        out << " stale=" << status.stale_leaves
            << " degraded=" << (status.degraded ? 1 : 0);
      }
      return out.str();
    }
  }
  return "ERR internal";
}

/// Parses one request line. Returns false with `error` set on a
/// malformed line; QUIT parses as true with `quit` set.
bool ParseRequest(const std::vector<std::string>& tokens,
                  QueryRequest* request, bool* quit, std::string* error) {
  *quit = false;
  if (tokens.empty()) {
    *error = "empty request";
    return false;
  }
  const std::string& verb = tokens[0];
  if (verb == "QUIT") {
    *quit = true;
    return true;
  }
  if (verb == "STATS") {
    request->kind = QueryRequest::Kind::kStats;
    return true;
  }
  if (verb == "CLUSTER") {
    // Grammar (docs/serving.md): 1-2 args is the v1 single-tenant form
    // (session tenant); exactly 3 args is the v2 tenant-qualified form
    // CLUSTER <tenant> <horizon> <k>.
    if (tokens.size() < 2 || tokens.size() > 4) {
      *error = "usage: CLUSTER [<tenant>] <horizon> <k>";
      return false;
    }
    request->kind = QueryRequest::Kind::kClusterRecent;
    std::size_t arg = 1;
    if (tokens.size() == 4) {
      if (!ParseTenantId(tokens[arg], &request->tenant)) {
        *error = "tenant must be a nonnegative integer";
        return false;
      }
      ++arg;
    }
    if (!util::ParseDouble(tokens[arg], &request->horizon) ||
        !core::ValidHorizon(request->horizon)) {
      *error = "horizon must be a positive number";
      return false;
    }
    ++arg;
    if (arg < tokens.size()) {
      double k = 0.0;
      // Negated so NaN fails too; within size_t range the cast is defined.
      constexpr double kBound =
          static_cast<double>(std::numeric_limits<std::size_t>::max());
      if (!util::ParseDouble(tokens[arg], &k) || !(k >= 1.0 && k < kBound)) {
        *error = "k must be a positive integer";
        return false;
      }
      request->k = static_cast<std::size_t>(k);
    }
    return true;
  }
  if (verb == "NEAREST" || verb == "ANOMALY") {
    if (tokens.size() < 2) {
      *error = "usage: " + verb + " <v0> <v1> ...";
      return false;
    }
    request->kind = verb == "NEAREST" ? QueryRequest::Kind::kNearest
                                      : QueryRequest::Kind::kAnomaly;
    request->values.reserve(tokens.size() - 1);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      double value = 0.0;
      if (!util::ParseDouble(tokens[i], &value) || !std::isfinite(value)) {
        *error = "malformed coordinate: " + SanitizeToken(tokens[i]);
        return false;
      }
      request->values.push_back(value);
    }
    return true;
  }
  *error = "unknown request: " + SanitizeToken(verb);
  return false;
}

struct InFlight {
  QueryRequest request;
  std::future<QueryResponse> future;
};

}  // namespace

std::size_t ServeLineProtocol(QueryBroker& broker, std::istream& in,
                              std::ostream& out,
                              const ServerOptions& options) {
  std::size_t served = 0;
  std::deque<InFlight> pipeline;
  const auto drain_one = [&] {
    InFlight& oldest = pipeline.front();
    out << FormatResponse(oldest.request, oldest.future.get(), options)
        << '\n';
    pipeline.pop_front();
    ++served;
  };

  std::string line;
  bool quit = false;
  bool overflow = false;
  // Per-session default tenant (v2 TENANT command); every session
  // starts on tenant 0, which is what a v1 client always talks to.
  std::uint64_t session_tenant = 0;
  while (!quit &&
         ReadLineBounded(in, &line, options.max_line_bytes, &overflow)) {
    if (overflow) {
      while (!pipeline.empty()) drain_one();
      out << "ERR request line too long\n";
      out.flush();
      ++served;
      continue;
    }
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;  // blank line: keepalive, no response
    // Session commands are answered inline by the protocol loop (never
    // by the broker); responses must still come back in request order,
    // so everything submitted before them drains first.
    if (tokens[0] == "HELLO") {
      while (!pipeline.empty()) drain_one();
      out << "OK HELLO proto=2 tenants="
          << (broker.multi_tenant() ? 1 : 0)
          << " pipeline=" << options.max_pipeline
          << " commands=HELLO,TENANT,ROLE,HEALTH,CLUSTER,NEAREST,"
             "ANOMALY,STATS,QUIT\n";
      out.flush();
      ++served;
      continue;
    }
    if (tokens[0] == "ROLE" || tokens[0] == "HEALTH") {
      while (!pipeline.empty()) drain_one();
      const ServeStatus status =
          options.status ? options.status() : ServeStatus{};
      if (tokens[0] == "ROLE") {
        out << "OK ROLE " << status.role << '\n';
      } else {
        out << "OK HEALTH role=" << status.role
            << " degraded=" << (status.degraded ? 1 : 0)
            << " leaves=" << status.leaves
            << " stale=" << status.stale_leaves
            << " deltas=" << status.deltas_applied << '\n';
      }
      out.flush();
      ++served;
      continue;
    }
    if (tokens[0] == "TENANT") {
      while (!pipeline.empty()) drain_one();
      std::uint64_t tenant = 0;
      if (tokens.size() != 2 || !ParseTenantId(tokens[1], &tenant)) {
        out << "ERR usage: TENANT <id>\n";
      } else if (!broker.multi_tenant() && tenant != 0) {
        out << "ERR single-tenant broker: only tenant 0 exists\n";
      } else {
        session_tenant = tenant;
        out << "OK TENANT " << tenant << '\n';
      }
      out.flush();
      ++served;
      continue;
    }
    QueryRequest request;
    request.tenant = session_tenant;
    std::string error;
    if (!ParseRequest(tokens, &request, &quit, &error)) {
      // Errors must come back in request order too: flush everything
      // submitted before this line first.
      while (!pipeline.empty()) drain_one();
      out << "ERR " << error << '\n';
      out.flush();
      ++served;
      continue;
    }
    if (quit) break;
    InFlight flight;
    flight.request = request;
    flight.future = broker.Submit(std::move(request));
    pipeline.push_back(std::move(flight));
    while (pipeline.size() >= options.max_pipeline) drain_one();
    // Answer eagerly once the stream has no buffered input, so an
    // interactive session sees its response immediately.
    if (in.rdbuf()->in_avail() <= 0) {
      while (!pipeline.empty()) drain_one();
      out.flush();
    }
  }
  while (!pipeline.empty()) drain_one();
  if (quit) out << "OK BYE\n";
  out.flush();
  return served;
}

}  // namespace umicro::serve
