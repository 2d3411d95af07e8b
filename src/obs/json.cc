#include "src/obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace tempo {
namespace obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const size_t simple = std::string_view("\"\\\b\f\n\r\t").find(c);
    if (simple != std::string_view::npos) {
      out += '\\';
      out += "\"\\bfnrt"[simple];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

JsonValue::JsonValue(double v) {
  if (!std::isfinite(v)) {
    return;  // null
  }
  char buf[32];
  const auto result =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 10);
  kind = Kind::kNumber;
  text.assign(buf, result.ptr);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  for (auto& [k, v] : members) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
  return members.back().second;
}

JsonValue& JsonValue::Push(JsonValue value) {
  items.push_back(std::move(value));
  return items.back();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool Parse(JsonValue* out) {
    if (!Value(out, 0)) {
      return false;
    }
    Space();
    return pos_ == s_.size() || Fail("trailing bytes after the value");
  }

  std::string error() const { return error_ + " at offset " + std::to_string(pos_); }

 private:
  bool Fail(const char* what) {
    error_ = what;
    return false;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool Take(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Space() {
    while (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' || Peek() == '\r') {
      ++pos_;
    }
  }

  bool Eat(char c) {
    Space();
    return Take(c);
  }

  bool Value(JsonValue* out, size_t depth) {
    Space();
    if (pos_ == s_.size()) {
      return Fail("unexpected end of input");
    }
    if (Peek() == '{' || Peek() == '[') {
      if (depth == kJsonMaxDepth) {
        return Fail("nesting deeper than the depth bound");
      }
      return Container(out, Peek() == '{', depth + 1);
    }
    if (Peek() == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->text);
    }
    for (const std::string_view word : {"true", "false", "null"}) {
      if (s_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        out->kind = word == "null" ? JsonValue::Kind::kNull : JsonValue::Kind::kBool;
        out->boolean = word == "true";
        return true;
      }
    }
    return Number(out);
  }

  // An array or an object: '[' or '{' already under the cursor.
  bool Container(JsonValue* out, bool object, size_t depth) {
    out->kind = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    const char close = object ? '}' : ']';
    ++pos_;
    if (Eat(close)) {
      return true;
    }
    do {
      JsonValue* value = nullptr;
      if (object) {
        std::string key;
        Space();
        if (Peek() != '"') {
          return Fail("expected object key");
        }
        if (!String(&key)) {
          return false;
        }
        if (!Eat(':')) {
          return Fail("expected ':'");
        }
        value = &out->members.emplace_back(std::move(key), JsonValue()).second;
      } else {
        value = &out->items.emplace_back();
      }
      if (!Value(value, depth)) {
        return false;
      }
    } while (Eat(','));
    return Eat(close) || Fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
  }

  bool Digits() {
    const size_t start = pos_;
    while (Peek() >= '0' && Peek() <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  // -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool Number(JsonValue* out) {
    const size_t start = pos_;
    Take('-');
    if (!Take('0') && (Peek() < '1' || Peek() > '9' || !Digits())) {
      return Fail("unexpected character");
    }
    if (Take('.') && !Digits()) {
      return Fail("digit expected after '.'");
    }
    if (Take('e') || Take('E')) {
      if (!Take('+')) {
        Take('-');
      }
      if (!Digits()) {
        return Fail("digit expected in exponent");
      }
    }
    out->kind = JsonValue::Kind::kNumber;
    out->text.assign(s_.substr(start, pos_ - start));
    return true;
  }

  bool Hex4(uint32_t* out) {
    const char* begin = s_.data() + pos_;
    if (s_.size() - pos_ < 4 || std::from_chars(begin, begin + 4, *out, 16).ptr != begin + 4) {
      return Fail("bad \\u escape");
    }
    pos_ += 4;
    return true;
  }

  // \uXXXX to UTF-8, a UTF-16 surrogate pair joined into one code point.
  bool Unicode(std::string* out) {
    uint32_t cp = 0;
    uint32_t low = 0;
    if (!Hex4(&cp)) {
      return false;
    }
    if (cp >= 0xd800 && cp <= 0xdbff) {
      if (!Take('\\') || !Take('u') || !Hex4(&low) || low < 0xdc00 || low > 0xdfff) {
        return Fail("unpaired surrogate");
      }
      cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
    } else if (cp >= 0xdc00 && cp <= 0xdfff) {
      return Fail("unpaired surrogate");
    }
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    static constexpr uint8_t kLead[] = {0x00, 0xc0, 0xe0, 0xf0};
    out->push_back(static_cast<char>(kLead[extra] | (cp >> (6 * extra))));
    for (int i = extra - 1; i >= 0; --i) {
      out->push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f)));
    }
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      ++pos_;
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      const char e = Peek();
      const size_t simple = std::string_view("\"\\/bfnrt").find(e);
      ++pos_;
      if (simple != std::string_view::npos) {
        out->push_back("\"\\/\b\f\n\r\t"[simple]);
      } else if (e != 'u') {
        return Fail(pos_ > s_.size() ? "unterminated string" : "bad escape");
      } else if (!Unicode(out)) {
        return false;
      }
    }
    return Fail("unterminated string");
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

bool IsScalar(const JsonValue& v) {
  return v.kind != JsonValue::Kind::kArray && v.kind != JsonValue::Kind::kObject;
}

void Write(const JsonValue& v, size_t indent, std::string* out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      *out += v.text;
      return;
    case JsonValue::Kind::kString:
      *out += "\"" + JsonEscape(v.text) + "\"";
      return;
    case JsonValue::Kind::kArray:
    case JsonValue::Kind::kObject:
      break;
  }
  const bool object = v.kind == JsonValue::Kind::kObject;
  const size_t n = object ? v.members.size() : v.items.size();
  bool flat = true;
  for (size_t i = 0; i < n; ++i) {
    flat = flat && IsScalar(object ? v.members[i].second : v.items[i]);
  }
  const std::string pad = flat ? "" : "\n" + std::string(indent + 2, ' ');
  *out += object ? "{" : "[";
  for (size_t i = 0; i < n; ++i) {
    *out += i == 0 ? "" : flat ? ", " : ",";
    *out += pad;
    if (object) {
      *out += "\"" + JsonEscape(v.members[i].first) + "\": ";
    }
    Write(object ? v.members[i].second : v.items[i], indent + 2, out);
  }
  if (!flat && n > 0) {
    *out += "\n" + std::string(indent, ' ');
  }
  *out += object ? "}" : "]";
}

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  Parser parser(text);
  *out = JsonValue();
  if (parser.Parse(out)) {
    return true;
  }
  if (error != nullptr) {
    *error = parser.error();
  }
  return false;
}

std::string WriteJson(const JsonValue& value) {
  std::string out;
  Write(value, 0, &out);
  return out + "\n";
}

}  // namespace obs
}  // namespace tempo
