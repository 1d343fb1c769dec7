#include "io/arff_dataset.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "util/parse.h"

namespace umicro::io {

namespace {

std::string Trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(const std::string& text) {
  std::string out = text;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Strips optional single or double quotes around a token.
std::string Unquote(const std::string& text) {
  if (text.size() >= 2 &&
      ((text.front() == '\'' && text.back() == '\'') ||
       (text.front() == '"' && text.back() == '"'))) {
    return text.substr(1, text.size() - 2);
  }
  return text;
}

std::vector<std::string> SplitCommas(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char ch : line) {
    if (ch == ',') {
      cells.push_back(Trim(cell));
      cell.clear();
    } else {
      cell += ch;
    }
  }
  cells.push_back(Trim(cell));
  return cells;
}

struct AttributeSpec {
  std::string name;
  bool is_label = false;
};

}  // namespace

std::optional<LoadedArff> ParseArffDataset(const std::string& text) {
  std::istringstream input(text);
  std::string line;

  LoadedArff result;
  std::vector<AttributeSpec> attributes;
  std::map<std::string, int> label_ids;
  int label_attribute = -1;
  bool in_data = false;
  std::size_t row_index = 0;

  while (std::getline(input, line)) {
    line = Trim(line);
    if (line.empty() || line[0] == '%') continue;

    if (!in_data) {
      const std::string lower = ToLower(line);
      if (lower.rfind("@relation", 0) == 0) {
        result.relation = Unquote(Trim(line.substr(9)));
        continue;
      }
      if (lower.rfind("@attribute", 0) == 0) {
        const std::string rest = Trim(line.substr(10));
        // Name is either quoted or the first whitespace-delimited token.
        std::string name;
        std::string type_part;
        if (!rest.empty() && (rest[0] == '\'' || rest[0] == '"')) {
          const char quote = rest[0];
          const std::size_t close = rest.find(quote, 1);
          if (close == std::string::npos) return std::nullopt;
          name = rest.substr(1, close - 1);
          type_part = Trim(rest.substr(close + 1));
        } else {
          const std::size_t space = rest.find_first_of(" \t");
          if (space == std::string::npos) return std::nullopt;
          name = rest.substr(0, space);
          type_part = Trim(rest.substr(space));
        }

        AttributeSpec spec;
        spec.name = name;
        const std::string type_lower = ToLower(type_part);
        if (type_lower == "numeric" || type_lower == "real" ||
            type_lower == "integer") {
          spec.is_label = false;
          result.attribute_names.push_back(name);
        } else if (!type_part.empty() && type_part[0] == '{') {
          if (label_attribute >= 0) return std::nullopt;  // one nominal max
          const std::size_t close = type_part.find('}');
          if (close == std::string::npos) return std::nullopt;
          spec.is_label = true;
          label_attribute = static_cast<int>(attributes.size());
          for (const std::string& value :
               SplitCommas(type_part.substr(1, close - 1))) {
            const std::string unquoted = Unquote(value);
            label_ids.emplace(unquoted,
                              static_cast<int>(result.label_names.size()));
            result.label_names.push_back(unquoted);
          }
        } else {
          return std::nullopt;  // string/date/unsupported
        }
        attributes.push_back(std::move(spec));
        continue;
      }
      if (lower.rfind("@data", 0) == 0) {
        if (result.attribute_names.empty()) return std::nullopt;
        in_data = true;
        continue;
      }
      return std::nullopt;  // unknown header directive
    }

    // Data row. Malformed rows are skipped and counted, not fatal --
    // header-level problems are what reject the file.
    const std::vector<std::string> cells = SplitCommas(line);
    if (cells.size() != attributes.size()) {
      ++result.stats.short_rows;
      continue;
    }
    stream::UncertainPoint point;
    point.values.reserve(result.attribute_names.size());
    point.timestamp = static_cast<double>(row_index);
    bool row_ok = true;
    for (std::size_t a = 0; row_ok && a < attributes.size(); ++a) {
      if (attributes[a].is_label) {
        if (cells[a] == "?") {
          point.label = stream::kUnlabeled;
          continue;
        }
        auto it = label_ids.find(Unquote(cells[a]));
        if (it == label_ids.end()) {
          row_ok = false;
          break;
        }
        point.label = it->second;
      } else {
        if (cells[a] == "?") {
          point.values.push_back(std::nan(""));
          continue;
        }
        double value = 0.0;
        if (!util::ParseDouble(cells[a], &value)) {
          row_ok = false;
          break;
        }
        point.values.push_back(value);
      }
    }
    if (!row_ok) {
      ++result.stats.bad_numeric_rows;
      continue;
    }
    result.dataset.Add(std::move(point));
    ++row_index;
  }

  if (!in_data || result.dataset.empty()) return std::nullopt;
  result.stats.rows_loaded = result.dataset.size();
  return result;
}

std::optional<LoadedArff> ReadArffDataset(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseArffDataset(buffer.str());
}

std::string DatasetToArff(const stream::Dataset& dataset,
                          const std::string& relation,
                          const std::vector<std::string>& label_names) {
  // Collect the label set; names default to c<label-id>.
  std::map<int, std::string> names;
  for (const auto& point : dataset.points()) {
    if (point.label == stream::kUnlabeled) continue;
    if (names.count(point.label)) continue;
    if (point.label >= 0 &&
        static_cast<std::size_t>(point.label) < label_names.size()) {
      names[point.label] = label_names[static_cast<std::size_t>(point.label)];
    } else {
      names[point.label] = "c" + std::to_string(point.label);
    }
  }

  std::ostringstream out;
  out << "@relation " << relation << "\n\n";
  for (std::size_t j = 0; j < dataset.dimensions(); ++j) {
    out << "@attribute v" << j << " numeric\n";
  }
  if (!names.empty()) {
    out << "@attribute class {";
    bool first = true;
    for (const auto& [label, name] : names) {
      if (!first) out << ',';
      out << name;
      first = false;
    }
    out << "}\n";
  }
  out << "\n@data\n";

  char buffer[64];
  for (const auto& point : dataset.points()) {
    for (std::size_t j = 0; j < dataset.dimensions(); ++j) {
      if (j > 0) out << ',';
      if (std::isnan(point.values[j])) {
        out << '?';
      } else {
        std::snprintf(buffer, sizeof(buffer), "%.17g", point.values[j]);
        out << buffer;
      }
    }
    if (!names.empty()) {
      out << ',';
      if (point.label == stream::kUnlabeled) {
        out << '?';
      } else {
        out << names.at(point.label);
      }
    }
    out << '\n';
  }
  return out.str();
}

bool WriteArffDataset(const stream::Dataset& dataset,
                      const std::string& path, const std::string& relation,
                      const std::vector<std::string>& label_names) {
  std::ofstream file(path);
  if (!file.is_open()) return false;
  file << DatasetToArff(dataset, relation, label_names);
  return file.good();
}

}  // namespace umicro::io
