#include "io/checkpoint_series.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "io/state_io.h"
#include "util/failpoints.h"
#include "util/paths.h"

namespace umicro::io {

namespace {

/// Sequence number of `name` when it is "<prefix><digits><suffix>".
std::optional<std::uint64_t> SequenceOf(std::string_view name,
                                        std::string_view prefix,
                                        std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  const std::string digits(
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size()));
  if (!std::all_of(digits.begin(), digits.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return std::nullopt;
  }
  errno = 0;
  const unsigned long long seq = std::strtoull(digits.c_str(), nullptr, 10);
  if (errno != 0) return std::nullopt;
  return seq;
}

/// (sequence, name) of every series file in `dir`, oldest first.
std::vector<std::pair<std::uint64_t, std::string>> Scan(
    const std::string& dir, std::string_view prefix,
    std::string_view suffix) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (std::string& name : DirectoryEntries(dir)) {
    const std::optional<std::uint64_t> seq = SequenceOf(name, prefix, suffix);
    if (seq.has_value()) found.emplace_back(*seq, std::move(name));
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

std::vector<std::string> DirectoryEntries(const std::string& dir) {
  std::vector<std::string> names;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return names;
  while (const dirent* entry = ::readdir(handle)) {
    names.emplace_back(entry->d_name);
  }
  ::closedir(handle);
  return names;
}

std::vector<std::string> ListSeries(const std::string& dir,
                                    std::string_view prefix,
                                    std::string_view suffix) {
  const auto found = Scan(dir, prefix, suffix);
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto it = found.rbegin(); it != found.rend(); ++it) {
    paths.push_back(dir + "/" + it->second);
  }
  return paths;
}

bool WriteCheckpointFile(const std::string& text, const std::string& path) {
  if (UMICRO_FAILPOINT("checkpoint.write_fail")) return false;
  return WriteTextFileAtomic(text, path);
}

CheckpointSeries::CheckpointSeries(std::string dir, std::string prefix,
                                   std::string suffix,
                                   core::CheckpointConfig config)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      suffix_(std::move(suffix)),
      config_(config),
      last_time_(std::chrono::steady_clock::now()) {
  util::EnsureDirectory(dir_);
  const auto found = Scan(dir_, prefix_, suffix_);
  if (!found.empty()) next_seq_ = std::max(next_seq_, found.back().first + 1);
}

bool CheckpointSeries::Due(std::uint64_t points) const {
  if (config_.every_points > 0 &&
      points >= last_points_ + config_.every_points) {
    return true;
  }
  if (config_.every_seconds > 0.0) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - last_time_;
    return elapsed.count() >= config_.every_seconds;
  }
  return false;
}

bool CheckpointSeries::Write(
    std::uint64_t points,
    const std::function<bool(std::uint64_t seq, const std::string& path)>&
        write) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%08llu%s", prefix_.c_str(),
                static_cast<unsigned long long>(next_seq_), suffix_.c_str());
  const bool ok = write(next_seq_, dir_ + "/" + name);
  last_points_ = points;
  last_time_ = std::chrono::steady_clock::now();
  if (!ok) return false;
  ++next_seq_;
  if (config_.keep_last == 0) return true;
  const auto found = Scan(dir_, prefix_, suffix_);
  for (std::size_t i = 0; i + config_.keep_last < found.size(); ++i) {
    std::remove((dir_ + "/" + found[i].second).c_str());
  }
  return true;
}

std::vector<std::string> CheckpointSeries::List() const {
  return ListSeries(dir_, prefix_, suffix_);
}

}  // namespace umicro::io
