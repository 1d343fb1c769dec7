#include "report/figure_report.h"

#include <fstream>
#include <sstream>

#include "util/parse.h"

namespace umicro::report {

namespace {

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

std::string EscapeHtml(const std::string& text) {
  std::string out;
  for (char ch : text) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += ch;
    }
  }
  return out;
}

}  // namespace

std::optional<std::vector<Series>> SeriesFromCsvFile(
    const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) return std::nullopt;
  std::string line;
  if (!std::getline(file, line)) return std::nullopt;
  const std::vector<std::string> header = SplitLine(line);
  if (header.size() < 2) return std::nullopt;

  std::vector<Series> series(header.size() - 1);
  for (std::size_t c = 1; c < header.size(); ++c) {
    series[c - 1].name = header[c];
  }
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitLine(line);
    if (cells.size() != header.size()) return std::nullopt;
    double x = 0.0;
    if (!util::ParseDouble(cells[0], &x)) return std::nullopt;
    for (std::size_t c = 1; c < cells.size(); ++c) {
      double y = 0.0;
      if (!util::ParseDouble(cells[c], &y)) return std::nullopt;
      series[c - 1].points.emplace_back(x, y);
    }
  }
  if (series[0].points.empty()) return std::nullopt;
  return series;
}

std::string RenderHtmlReport(const std::string& title,
                             const std::vector<Figure>& figures) {
  std::ostringstream html;
  html << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
       << "<title>" << EscapeHtml(title) << "</title>\n"
       << "<style>body{font-family:sans-serif;max-width:900px;"
       << "margin:2em auto;color:#222}h2{margin-top:2em}"
       << "p.note{color:#555}</style>\n</head>\n<body>\n"
       << "<h1>" << EscapeHtml(title) << "</h1>\n";
  for (const auto& figure : figures) {
    html << "<h2>" << EscapeHtml(figure.heading) << "</h2>\n";
    if (!figure.commentary.empty()) {
      html << "<p class=\"note\">" << EscapeHtml(figure.commentary)
           << "</p>\n";
    }
    html << RenderLineChartSvg(figure.series, figure.chart);
  }
  html << "</body>\n</html>\n";
  return html.str();
}

bool WriteHtmlReport(const std::string& title,
                     const std::vector<Figure>& figures,
                     const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) return false;
  file << RenderHtmlReport(title, figures);
  return file.good();
}

}  // namespace umicro::report
