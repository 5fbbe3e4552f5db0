#include "util/json_writer.h"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace lbsagg {

void JsonWriter::AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string JsonWriter::Quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  AppendEscaped(&out, s);
  out.push_back('"');
  return out;
}

void JsonWriter::AppendShortestDouble(std::string* out, double v) {
  char buf[32];  // the longest shortest form: -1.7976931348623157e+308
  const std::to_chars_result result = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, result.ptr);
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  LBSAGG_CHECK(frame.scope == Scope::kArray)
      << "object member emitted without a Key()";
  if (frame.has_items) out_ += ',';
  frame.has_items = true;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back({Scope::kObject});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  LBSAGG_CHECK(!stack_.empty() && stack_.back().scope == Scope::kObject);
  LBSAGG_CHECK(!pending_key_) << "EndObject with a dangling Key()";
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back({Scope::kArray});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  LBSAGG_CHECK(!stack_.empty() && stack_.back().scope == Scope::kArray);
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  LBSAGG_CHECK(!stack_.empty() && stack_.back().scope == Scope::kObject)
      << "Key() outside an object";
  LBSAGG_CHECK(!pending_key_) << "two Key() calls in a row";
  if (stack_.back().has_items) out_ += ',';
  stack_.back().has_items = true;
  out_ += '"';
  AppendEscaped(&out_, key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(&out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  BeforeValue();
  // Matches the legacy emitters' `ostream << double` (6 significant digits),
  // so swapping them for the writer is byte-identical output.
  std::ostringstream os;
  os << v;
  out_ += os.str();
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::ValueNull() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::RawValue(std::string_view json) {
  BeforeValue();
  out_.append(json.data(), json.size());
  return *this;
}

}  // namespace lbsagg
