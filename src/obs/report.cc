#include "obs/report.h"

#include <sstream>

#include "util/json_writer.h"

namespace lbsagg {
namespace obs {

namespace {

// Quoted JSON string with real escaping (JsonWriter::AppendEscaped), so a
// meta value carrying a quote, backslash, or newline cannot corrupt the
// report. The pretty-printed layout itself stays hand-assembled.
std::string Quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  JsonWriter::AppendEscaped(&out, s);
  out.push_back('"');
  return out;
}

// Re-indents a pre-serialized JSON blob by prefixing continuation lines;
// keeps nested sections readable without reparsing them.
std::string IndentBlob(const std::string& blob, const std::string& pad) {
  std::string out;
  out.reserve(blob.size());
  for (char c : blob) {
    out.push_back(c);
    if (c == '\n') out += pad;
  }
  return out;
}

}  // namespace

void RunReport::SetMeta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

void RunReport::SetMetaNum(const std::string& key, double value) {
  meta_num_[key] = value;
}

void RunReport::AddStats(const std::string& name, const RunningStats& stats) {
  stats_[name] = stats;
}

void RunReport::SetSnapshot(MetricsSnapshot snapshot) {
  snapshot_ = std::move(snapshot);
}

void RunReport::AddJsonSection(const std::string& name,
                               const std::string& raw_json) {
  sections_[name] = raw_json;
}

std::string RunReport::ToJson(int indent) const {
  const std::string pad(indent, ' ');
  const std::string in(indent + 2, ' ');
  const std::string in2(indent + 4, ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << in << "\"schema_version\": " << kSchemaVersion << ",\n";

  os << in << "\"meta\": {";
  bool first = true;
  for (const auto& [key, value] : meta_) {
    os << (first ? "\n" : ",\n") << in2 << Quoted(key) << ": "
       << Quoted(value);
    first = false;
  }
  for (const auto& [key, value] : meta_num_) {
    os << (first ? "\n" : ",\n") << in2 << Quoted(key)
       << ": " << value;
    first = false;
  }
  os << (first ? "" : "\n" + in) << "},\n";

  os << in << "\"stats\": {";
  first = true;
  for (const auto& [name, stats] : stats_) {
    os << (first ? "\n" : ",\n") << in2 << Quoted(name)
       << ": " << stats.ToJson();
    first = false;
  }
  os << (first ? "" : "\n" + in) << "},\n";

  os << in << "\"metrics\": " << IndentBlob(snapshot_.ToJson(), in) << ",\n";

  os << in << "\"sections\": {";
  first = true;
  for (const auto& [name, blob] : sections_) {
    os << (first ? "\n" : ",\n") << in2 << Quoted(name)
       << ": " << IndentBlob(blob, in2);
    first = false;
  }
  os << (first ? "" : "\n" + in) << "}\n";
  os << pad << "}";
  return os.str();
}

Table RunReport::ToTable() const {
  Table table({"key", "value"});
  for (const auto& [key, value] : meta_) table.AddRow({"meta." + key, value});
  for (const auto& [key, value] : meta_num_) {
    table.AddRow({"meta." + key, Table::Num(value, 3)});
  }
  for (const auto& [name, stats] : stats_) {
    table.AddRow({"stats." + name + ".count",
                  Table::Int(static_cast<long long>(stats.count()))});
    table.AddRow({"stats." + name + ".mean", Table::Num(stats.mean(), 3)});
    table.AddRow({"stats." + name + ".ci95",
                  Table::Num(stats.ConfidenceHalfWidth(), 3)});
  }
  for (const obs::CounterSample& c : snapshot_.counters) {
    table.AddRow({c.name, Table::Int(static_cast<long long>(c.value))});
  }
  for (const obs::GaugeSample& g : snapshot_.gauges) {
    table.AddRow({g.name, Table::Num(g.value, 3)});
  }
  for (const obs::HistogramSample& h : snapshot_.histograms) {
    table.AddRow({h.name + ".count",
                  Table::Int(static_cast<long long>(h.count))});
    table.AddRow(
        {h.name + ".mean",
         Table::Num(h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count),
                    3)});
  }
  return table;
}

}  // namespace obs
}  // namespace lbsagg
