// Minimal JSON support for the trace subsystem: a streaming object writer
// (used by JsonlTraceWriter to emit one object per line) and a small
// recursive-descent parser (used by trace_summary and the tests to read
// traces back). Only what JSONL traces need — no comments, no trailing
// commas; numbers are doubles.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mach::obs {

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// included).
std::string json_escape(std::string_view text);

/// Serialises a double the way JSON expects (no inf/nan — they become null,
/// mirroring what lenient encoders do; traces should never contain them).
std::string json_number(double value);

/// Incremental single-object writer: out.begin(); out.field("k", v); ...;
/// out.end(). Nested objects/arrays via raw_field. Values are escaped.
class JsonObjectWriter {
 public:
  void begin() {
    // assign(1, '{'), not = "{": GCC 12 flags the literal assignment with a
    // false -Wrestrict under -fsanitize=address.
    buffer_.assign(1, '{');
    first_ = true;
  }
  void field(std::string_view key, std::string_view value);
  void field(std::string_view key, const char* value) {
    field(key, std::string_view(value));
  }
  void field(std::string_view key, double value);
  void field(std::string_view key, std::uint64_t value);  // also size_t here
  void field(std::string_view key, std::int64_t value);
  void field(std::string_view key, bool value);
  /// Inserts `json` verbatim as the value (caller guarantees validity).
  void raw_field(std::string_view key, std::string_view json);
  /// Numeric array helper.
  void field(std::string_view key, const std::vector<double>& values);
  void field(std::string_view key, const std::vector<std::uint64_t>& values);
  std::string end() {
    buffer_ += '}';
    return std::move(buffer_);
  }

 private:
  void key_prefix(std::string_view key);
  std::string buffer_;
  bool first_ = true;
};

/// Parsed JSON value (object keys are sorted; duplicate keys keep the last).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() = default;  // null
  explicit JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  explicit JsonValue(double d) : kind_(Kind::Number), number_(d) {}
  explicit JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  explicit JsonValue(Array a)
      : kind_(Kind::Array), array_(std::make_shared<Array>(std::move(a))) {}
  explicit JsonValue(Object o)
      : kind_(Kind::Object), object_(std::make_shared<Object>(std::move(o))) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::Null; }
  bool is_object() const noexcept { return kind_ == Kind::Object; }
  bool is_array() const noexcept { return kind_ == Kind::Array; }
  bool is_number() const noexcept { return kind_ == Kind::Number; }
  bool is_string() const noexcept { return kind_ == Kind::String; }
  bool is_bool() const noexcept { return kind_ == Kind::Bool; }

  /// Typed accessors throw std::logic_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; null-kind value reference when absent or when
  /// this value is not an object (convenient chained lookups).
  const JsonValue& operator[](std::string_view key) const;

  /// Lenient readers for trace consumers: fall back when missing/mistyped.
  double number_or(std::string_view key, double fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;    // shared: JsonValue stays cheaply copyable
  std::shared_ptr<Object> object_;
};

/// Parses one JSON document. Returns nullopt (with a message in `error` when
/// provided) on malformed input, trailing garbage, or documents nested more
/// than 128 levels deep (stack-exhaustion guard).
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

struct JsonParseOptions {
  /// Reject objects that spell the same key twice instead of keeping the
  /// last occurrence. Config parsers (the sweep spec) want the strictness;
  /// trace readers keep the lenient default.
  bool reject_duplicate_keys = false;
};

std::optional<JsonValue> parse_json(std::string_view text, std::string* error,
                                    const JsonParseOptions& options);

}  // namespace mach::obs
