#include "lbs/dataset_io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "util/check.h"

namespace lbsagg {

namespace {

std::string TypeName(AttrType type) {
  switch (type) {
    case AttrType::kDouble:
      return "double";
    case AttrType::kString:
      return "string";
    case AttrType::kBool:
      return "bool";
  }
  return "unknown";
}

std::optional<AttrType> ParseTypeName(const std::string& name) {
  if (name == "double") return AttrType::kDouble;
  if (name == "string") return AttrType::kString;
  if (name == "bool") return AttrType::kBool;
  return std::nullopt;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.push_back("");
  return cells;
}

// The whole cell must be one finite number: strtod alone accepts "" (as 0),
// "nan" and "inf".
bool ParseFinite(const std::string& cell, double* out) {
  char* end = nullptr;
  *out = std::strtod(cell.c_str(), &end);
  return !cell.empty() && *end == '\0' && std::isfinite(*out);
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

void WriteDatasetCsv(const Dataset& dataset, std::ostream& out) {
  const Box& box = dataset.box();
  out.precision(17);
  out << "# box " << box.lo.x << " " << box.lo.y << " " << box.hi.x << " "
      << box.hi.y << "\n";
  out << "x,y";
  const Schema& schema = dataset.schema();
  for (int c = 0; c < schema.num_columns(); ++c) {
    out << "," << schema.name(c) << ":" << TypeName(schema.type(c));
  }
  out << "\n";
  for (const Tuple& t : dataset.tuples()) {
    out << t.pos.x << "," << t.pos.y;
    for (const AttrValue& v : t.values) {
      out << ",";
      if (const double* d = std::get_if<double>(&v)) {
        out << *d;  // full precision via the stream, not ToString's 6 digits
      } else {
        out << ToString(v);
      }
    }
    out << "\n";
  }
}

bool SaveDatasetCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteDatasetCsv(dataset, out);
  return static_cast<bool>(out);
}

std::optional<Dataset> ReadDatasetCsv(std::istream& in, std::string* error) {
  std::string line;

  // Box comment.
  if (!std::getline(in, line) || line.rfind("# box ", 0) != 0) {
    Fail(error, "missing '# box lo.x lo.y hi.x hi.y' header line");
    return std::nullopt;
  }
  std::istringstream box_stream(line.substr(6));
  Vec2 lo, hi;
  // Query sampling weighs the box by area, so it must have some.
  if (!(box_stream >> lo.x >> lo.y >> hi.x >> hi.y) || !(lo.x < hi.x) ||
      !(lo.y < hi.y)) {
    Fail(error, "malformed box line: " + line);
    return std::nullopt;
  }

  // Column header.
  if (!std::getline(in, line)) {
    Fail(error, "missing column header");
    return std::nullopt;
  }
  const std::vector<std::string> header = SplitCsvLine(line);
  if (header.size() < 2 || header[0] != "x" || header[1] != "y") {
    Fail(error, "header must start with x,y");
    return std::nullopt;
  }
  Schema schema;
  for (size_t c = 2; c < header.size(); ++c) {
    const size_t colon = header[c].find(':');
    if (colon == std::string::npos) {
      Fail(error, "column '" + header[c] + "' lacks a :type suffix");
      return std::nullopt;
    }
    const std::optional<AttrType> type =
        ParseTypeName(header[c].substr(colon + 1));
    if (!type.has_value()) {
      Fail(error, "unknown type in column '" + header[c] + "'");
      return std::nullopt;
    }
    schema.AddColumn(header[c].substr(0, colon), *type);
  }

  Dataset dataset(Box(lo, hi), schema);
  // Tuples must be in general position (§2.2). Of two tuples at one
  // location the server always ranks the lower id first, so LR never counts
  // the other at h = 1. Keys compare by value, so -0.0 matches 0.0.
  std::map<std::pair<double, double>, int> row_at;
  int row = 0;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() != header.size()) {
      Fail(error, "row " + std::to_string(row) + " has " +
                      std::to_string(cells.size()) + " cells, expected " +
                      std::to_string(header.size()));
      return std::nullopt;
    }
    Vec2 pos;
    if (!ParseFinite(cells[0], &pos.x)) {
      Fail(error, "row " + std::to_string(row) + ": bad x '" + cells[0] + "'");
      return std::nullopt;
    }
    if (!ParseFinite(cells[1], &pos.y)) {
      Fail(error, "row " + std::to_string(row) + ": bad y '" + cells[1] + "'");
      return std::nullopt;
    }
    if (!dataset.box().Contains(pos)) {
      Fail(error, "row " + std::to_string(row) + ": (" + cells[0] + ", " +
                      cells[1] + ") lies outside the box");
      return std::nullopt;
    }
    if (const auto [twin, fresh] = row_at.emplace(std::pair{pos.x, pos.y}, row);
        !fresh) {
      Fail(error, "rows " + std::to_string(twin->second) + " and " +
                      std::to_string(row) + " share the location (" +
                      cells[0] + ", " + cells[1] +
                      "); jitter duplicates apart first "
                      "(Dataset::JitterDuplicates)");
      return std::nullopt;
    }
    std::vector<AttrValue> values;
    values.reserve(header.size() - 2);
    for (size_t c = 2; c < cells.size(); ++c) {
      const AttrType type = schema.type(static_cast<int>(c) - 2);
      switch (type) {
        case AttrType::kDouble: {
          double v = 0.0;
          if (!ParseFinite(cells[c], &v)) {
            Fail(error, "row " + std::to_string(row) + ": bad double '" +
                            cells[c] + "'");
            return std::nullopt;
          }
          values.emplace_back(v);
          break;
        }
        case AttrType::kString:
          values.emplace_back(cells[c]);
          break;
        case AttrType::kBool:
          if (cells[c] != "true" && cells[c] != "false") {
            Fail(error, "row " + std::to_string(row) + ": bad bool '" +
                            cells[c] + "'");
            return std::nullopt;
          }
          values.emplace_back(cells[c] == "true");
          break;
      }
    }
    dataset.Add(pos, std::move(values));
  }
  return dataset;
}

std::optional<Dataset> LoadDatasetCsv(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return ReadDatasetCsv(in, error);
}

}  // namespace lbsagg
