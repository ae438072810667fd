#include "runner/json_parser.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace flexnet {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type = Type::Bool;
  v.boolean = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type = Type::Number;
  v.number = d;
  return v;
}

JsonValue JsonValue::make_array() {
  JsonValue v;
  v.type = Type::Array;
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.type = Type::Object;
  return v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& kv : object)
    if (kv.first == key) found = &kv.second;
  return found;
}

double JsonValue::number_or(double fallback) const {
  return type == Type::Number ? number : fallback;
}

std::string JsonValue::string_or(const std::string& fallback) const {
  return type == Type::String ? string : fallback;
}

namespace {

constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      if (error != nullptr) {
        std::ostringstream msg;
        msg << "JSON parse error at byte " << pos_ << ": " << error_;
        *error = msg.str();
      }
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr)
        *error = "JSON parse error at byte " + std::to_string(pos_) +
                 ": trailing characters after document";
      return false;
    }
    return true;
  }

 private:
  bool fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (!literal("null")) return fail("bad literal");
        *out = JsonValue::make_null();
        return true;
      case 't':
        if (!literal("true")) return fail("bad literal");
        *out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        *out = JsonValue::make_bool(false);
        return true;
      case '"':
        out->type = JsonValue::Type::String;
        return parse_string(&out->string);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_number(JsonValue* out) {
    // Validate the JSON grammar (strtod alone would accept hex, inf, nan).
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      return fail("bad number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return fail("bad number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return fail("bad number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    *out = JsonValue::make_number(
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr));
    return true;
  }

  bool parse_hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<unsigned>(c - 'A' + 10);
      else
        return fail("bad \\u escape");
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  void append_utf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        *out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (text_.compare(pos_, 2, "\\u") != 0)
              return fail("unpaired surrogate");
            pos_ += 2;
            unsigned lo = 0;
            if (!parse_hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF)
              return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
  }

  bool parse_array(JsonValue* out, int depth) {
    ++pos_;  // '['
    *out = JsonValue::make_array();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      skip_ws();
      if (!parse_value(&element, depth + 1)) return false;
      out->array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    *out = JsonValue::make_object();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':')
        return fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool json_parse(const std::string& text, JsonValue* out, std::string* error) {
  return Parser(text).parse(out, error);
}

}  // namespace flexnet
