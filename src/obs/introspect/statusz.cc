#include "obs/introspect/statusz.h"

#ifndef LBSAGG_OBS_DISABLED

#include <sstream>
#include <utility>

#include "util/json_writer.h"

namespace lbsagg {
namespace obs {
namespace introspect {

namespace {

// Same continuation-line trick RunReport uses for nested blobs.
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

void Statusz::SetMeta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

void Statusz::SetMetaNum(const std::string& key, double value) {
  meta_num_[key] = value;
}

void Statusz::SetSnapshot(MetricsSnapshot snapshot) {
  snapshot_ = std::move(snapshot);
}

void Statusz::AddJsonSection(const std::string& name,
                             const std::string& raw_json) {
  sections_[name] = raw_json;
}

std::string Statusz::ToJson(int indent) const {
  const std::string pad(indent, ' ');
  const std::string in(indent + 2, ' ');
  const std::string in2(indent + 4, ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << in << "\"statusz_version\": 1,\n";

  os << in << "\"meta\": {";
  bool first = true;
  for (const auto& [key, value] : meta_) {
    os << (first ? "\n" : ",\n") << in2 << JsonWriter::Quoted(key) << ": "
       << JsonWriter::Quoted(value);
    first = false;
  }
  for (const auto& [key, value] : meta_num_) {
    os << (first ? "\n" : ",\n") << in2 << JsonWriter::Quoted(key) << ": "
       << value;
    first = false;
  }
  os << (first ? "" : "\n" + in) << "},\n";

  os << in << "\"metrics\": " << IndentBlob(snapshot_.ToJson(), in) << ",\n";

  os << in << "\"sections\": {";
  first = true;
  for (const auto& [name, blob] : sections_) {
    os << (first ? "\n" : ",\n") << in2 << JsonWriter::Quoted(name) << ": "
       << IndentBlob(blob, in2);
    first = false;
  }
  os << (first ? "" : "\n" + in) << "}\n";
  os << pad << "}";
  return os.str();
}

std::string Statusz::ToText() const {
  std::ostringstream os;
  os << "=== statusz ===\n";
  for (const auto& [key, value] : meta_) {
    os << key << ": " << value << "\n";
  }
  for (const auto& [key, value] : meta_num_) {
    os << key << ": " << value << "\n";
  }
  os << "\n--- metrics ---\n" << snapshot_.ToTable().ToString();
  for (const auto& [name, blob] : sections_) {
    os << "\n--- " << name << " ---\n" << blob << "\n";
  }
  return os.str();
}

}  // namespace introspect
}  // namespace obs
}  // namespace lbsagg

#endif  // LBSAGG_OBS_DISABLED
