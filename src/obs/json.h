// tempo's one JSON module: the string escaper every writer uses, one
// strict reader, and one writer over the same document type.
//
// The reader takes bytes from disk (bench results, exported traces), so it
// is strict and bounded: exactly one value with nothing after it, no raw
// control characters inside strings, every escape decoded (\uXXXX to
// UTF-8, surrogate pairs joined), RFC 8259 number syntax, and nesting no
// deeper than kJsonMaxDepth. Anything else is a parse error, never a
// crash. Numbers keep the literal as written, so a reader that re-prints
// a value prints exactly the bytes it read.

#ifndef TEMPO_SRC_OBS_JSON_H_
#define TEMPO_SRC_OBS_JSON_H_

#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tempo {
namespace obs {

// Escapes `s` for use inside a JSON string literal: `"` and `\` get a
// backslash, and every control character below 0x20 gets its short escape
// (\n, \t, ...) or the \u00XX form. The one escaper every JSON writer in
// tempo uses.
std::string JsonEscape(const std::string& s);

// Arrays and objects nested deeper than this are a parse error.
inline constexpr size_t kJsonMaxDepth = 256;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // kString: the decoded value; kNumber: the literal
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject, in order

  JsonValue() = default;
  // Templates, so a stray pointer never converts to a bool or a number.
  template <std::same_as<bool> B>
  JsonValue(B b) : kind(Kind::kBool), boolean(b) {}
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonValue(T v) : kind(Kind::kNumber), text(std::to_string(v)) {}
  // Ten significant digits; a non-finite value is written as null.
  JsonValue(double v);
  JsonValue(std::string s) : kind(Kind::kString), text(std::move(s)) {}
  JsonValue(const char* s) : kind(Kind::kString), text(s) {}

  static JsonValue Array() { return Make(Kind::kArray); }
  static JsonValue Object() { return Make(Kind::kObject); }

  // The member named `key` of an object, or nullptr.
  const JsonValue* Find(std::string_view key) const;

  // Object: replaces the member named `key`, or appends it. Returns the
  // stored value so nested containers can be filled in place.
  JsonValue& Set(std::string key, JsonValue value);
  // Array: appends `value` and returns the stored copy.
  JsonValue& Push(JsonValue value);

 private:
  static JsonValue Make(Kind kind) {
    JsonValue v;
    v.kind = kind;
    return v;
  }
};

// Parses `text` as exactly one JSON value. On failure returns false and,
// if `error` is given, says what went wrong and at which byte offset.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error = nullptr);

// Writes `value` as JSON text ending in a newline. Members keep insertion
// order. A container holding only scalars goes on one line; any other
// container puts each child on its own line, indented two spaces a level.
std::string WriteJson(const JsonValue& value);

}  // namespace obs
}  // namespace tempo

#endif  // TEMPO_SRC_OBS_JSON_H_
