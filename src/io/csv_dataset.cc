#include "io/csv_dataset.h"

#include <fstream>
#include <map>
#include <sstream>

#include "util/check.h"
#include "util/parse.h"

namespace umicro::io {

namespace {

/// Splits one CSV line on commas (no quoted-comma support needed for the
/// numeric data this loader targets).
std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char ch : line) {
    if (ch == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (ch != '\r') {
      cell += ch;
    }
  }
  cells.push_back(cell);
  return cells;
}

/// Column roles derived from the header.
struct ColumnPlan {
  std::vector<std::size_t> value_columns;
  std::vector<std::size_t> error_columns;
  int timestamp_column = -1;
  int label_column = -1;
};

ColumnPlan PlanFromHeader(const std::vector<std::string>& header) {
  ColumnPlan plan;
  for (std::size_t i = 0; i < header.size(); ++i) {
    const std::string& name = header[i];
    if (name.rfind("err_", 0) == 0) {
      plan.error_columns.push_back(i);
    } else if (name == "timestamp") {
      plan.timestamp_column = static_cast<int>(i);
    } else if (name == "label") {
      plan.label_column = static_cast<int>(i);
    } else {
      plan.value_columns.push_back(i);
    }
  }
  return plan;
}

}  // namespace

std::optional<LoadedDataset> ParseCsvDataset(const std::string& text,
                                             const CsvReadOptions& options) {
  std::istringstream input(text);
  std::string line;

  ColumnPlan plan;
  bool plan_ready = false;
  if (options.has_header) {
    if (!std::getline(input, line)) return std::nullopt;
    plan = PlanFromHeader(SplitLine(line));
    if (plan.value_columns.empty()) return std::nullopt;
    if (!plan.error_columns.empty() &&
        plan.error_columns.size() != plan.value_columns.size()) {
      return std::nullopt;
    }
    plan_ready = true;
  }

  LoadedDataset result;
  std::map<std::string, int> label_ids;
  std::size_t expected_cells = 0;
  std::size_t row_index = 0;

  while (std::getline(input, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitLine(line);
    if (!plan_ready) {
      // Headerless: all columns are values, except an optional trailing
      // label column.
      const std::size_t values =
          options.last_column_is_label && cells.size() > 1
              ? cells.size() - 1
              : cells.size();
      for (std::size_t i = 0; i < values; ++i) plan.value_columns.push_back(i);
      if (options.last_column_is_label && cells.size() > 1) {
        plan.label_column = static_cast<int>(cells.size() - 1);
      }
      plan_ready = true;
    }
    if (expected_cells == 0) expected_cells = cells.size();
    if (cells.size() != expected_cells) {
      // Ragged row: skip it and keep loading -- real exports contain
      // the occasional truncated line and one must not kill the file.
      ++result.stats.short_rows;
      continue;
    }

    stream::UncertainPoint point;
    point.values.resize(plan.value_columns.size());
    bool numeric_ok = true;
    for (std::size_t v = 0; numeric_ok && v < plan.value_columns.size();
         ++v) {
      numeric_ok =
          util::ParseDouble(cells[plan.value_columns[v]], &point.values[v]);
    }
    if (numeric_ok && !plan.error_columns.empty()) {
      point.errors.resize(plan.error_columns.size());
      for (std::size_t e = 0; numeric_ok && e < plan.error_columns.size();
           ++e) {
        numeric_ok =
            util::ParseDouble(cells[plan.error_columns[e]], &point.errors[e]);
      }
    }
    if (numeric_ok && plan.timestamp_column >= 0) {
      numeric_ok = util::ParseDouble(
          cells[static_cast<std::size_t>(plan.timestamp_column)],
          &point.timestamp);
    } else if (plan.timestamp_column < 0) {
      point.timestamp = static_cast<double>(row_index);
    }
    if (!numeric_ok) {
      ++result.stats.bad_numeric_rows;
      continue;
    }
    if (plan.label_column >= 0) {
      const std::string& raw =
          cells[static_cast<std::size_t>(plan.label_column)];
      auto [it, inserted] =
          label_ids.emplace(raw, static_cast<int>(label_ids.size()));
      if (inserted) result.label_names.push_back(raw);
      point.label = it->second;
    }

    result.dataset.Add(std::move(point));
    ++row_index;
    if (options.max_rows != 0 && row_index >= options.max_rows) break;
  }

  if (result.dataset.empty()) return std::nullopt;
  result.stats.rows_loaded = result.dataset.size();
  return result;
}

std::optional<LoadedDataset> ReadCsvDataset(const std::string& path,
                                            const CsvReadOptions& options) {
  std::ifstream file(path);
  if (!file.is_open()) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseCsvDataset(buffer.str(), options);
}

std::string DatasetToCsv(const stream::Dataset& dataset) {
  bool any_errors = false;
  for (const auto& point : dataset.points()) {
    if (point.has_errors()) {
      any_errors = true;
      break;
    }
  }

  std::ostringstream out;
  for (std::size_t j = 0; j < dataset.dimensions(); ++j) {
    if (j > 0) out << ',';
    out << 'v' << j;
  }
  if (any_errors) {
    for (std::size_t j = 0; j < dataset.dimensions(); ++j) {
      out << ",err_" << j;
    }
  }
  out << ",timestamp,label\n";

  char buffer[64];
  for (const auto& point : dataset.points()) {
    for (std::size_t j = 0; j < dataset.dimensions(); ++j) {
      if (j > 0) out << ',';
      std::snprintf(buffer, sizeof(buffer), "%.17g", point.values[j]);
      out << buffer;
    }
    if (any_errors) {
      for (std::size_t j = 0; j < dataset.dimensions(); ++j) {
        std::snprintf(buffer, sizeof(buffer), "%.17g", point.ErrorAt(j));
        out << ',' << buffer;
      }
    }
    std::snprintf(buffer, sizeof(buffer), "%.17g", point.timestamp);
    out << ',' << buffer << ',' << point.label << '\n';
  }
  return out.str();
}

bool WriteCsvDataset(const stream::Dataset& dataset,
                     const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) return false;
  file << DatasetToCsv(dataset);
  return file.good();
}

}  // namespace umicro::io
