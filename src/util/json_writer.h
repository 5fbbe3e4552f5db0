#ifndef LBSAGG_UTIL_JSON_WRITER_H_
#define LBSAGG_UTIL_JSON_WRITER_H_

// One small JSON emitter for every ad-hoc serializer in the tree. Before
// this existed, EvidenceStore::ToJson, the engine/resolver diagnostics, the
// run-report assembly, and the WAL inspector each concatenated strings by
// hand and were one missed comma away from diverging; they all route
// through this writer now.
//
// The writer is strictly append-only and comma-managing: Key()/Value()
// calls emit separators automatically based on a small nesting stack.
// Numbers print exactly like the legacy emitters did (integers in decimal,
// doubles via `ostream << double`, i.e. 6 significant digits), so swapping
// a hand-built emitter for JsonWriter is byte-identical output. Values that
// need every digit, such as trace timestamps, go through
// AppendShortestDouble instead.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lbsagg {

class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Object member key; must be followed by exactly one value (or container).
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(bool v);
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(uint32_t v) { return Value(static_cast<uint64_t>(v)); }
  JsonWriter& Value(int32_t v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& ValueNull();

  // Splices a pre-serialized JSON value (e.g. a nested diagnostics_json()).
  // The caller owns its validity; the writer only manages the separators.
  JsonWriter& RawValue(std::string_view json);

  // Shorthand for Key(k).Value(v).
  template <typename T>
  JsonWriter& KV(std::string_view key, T&& v) {
    Key(key);
    return Value(std::forward<T>(v));
  }

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

  // JSON string escaping (quotes not included) — shared with callers that
  // still assemble fragments by hand.
  static void AppendEscaped(std::string* out, std::string_view s);

  // `s` as a JSON string literal: escaped, in double quotes.
  static std::string Quoted(std::string_view s);

  // Appends the shortest text that parses back to exactly `v`
  // (std::to_chars), for numbers that 6 significant digits would round.
  static void AppendShortestDouble(std::string* out, double v);

 private:
  void BeforeValue();

  enum class Scope : uint8_t { kObject, kArray };
  struct Frame {
    Scope scope;
    bool has_items = false;
  };

  std::string out_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
};

}  // namespace lbsagg

#endif  // LBSAGG_UTIL_JSON_WRITER_H_
