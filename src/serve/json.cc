#include "serve/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace uic {
namespace serve {

namespace {

constexpr int kMaxDepth = 64;

/// Cursor over the input text with 1-based position reporting.
struct Parser {
  const std::string& text;
  size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos));
  }

  Result<Json> ParseValue(int depth);
  Result<Json> ParseString();
  Result<Json> ParseNumber();
  Result<Json> ParseArray(int depth);
  Result<Json> ParseObject(int depth);
  Status ParseLiteral(const char* literal);
};

Status Parser::ParseLiteral(const char* literal) {
  for (const char* c = literal; *c != '\0'; ++c) {
    if (AtEnd() || Peek() != *c) return Error("invalid literal");
    ++pos;
  }
  return Status::OK();
}

/// Append Unicode code point `cp` as UTF-8.
void AppendUtf8(std::string* out, unsigned cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

Result<Json> Parser::ParseString() {
  ++pos;  // opening quote
  std::string out;
  while (true) {
    if (AtEnd()) return Error("unterminated string");
    const char c = text[pos++];
    if (c == '"') return Json::Str(std::move(out));
    if (static_cast<unsigned char>(c) < 0x20) {
      return Error("raw control character in string");
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (AtEnd()) return Error("unterminated escape");
    const char e = text[pos++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
          if (AtEnd()) return Error("truncated \\u escape");
          const char h = text[pos++];
          cp <<= 4;
          if (h >= '0' && h <= '9') {
            cp |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            cp |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            cp |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return Error("invalid \\u escape");
          }
        }
        // Surrogate pairs are not needed by the protocol; reject rather
        // than emit invalid UTF-8.
        if (cp >= 0xD800 && cp <= 0xDFFF) {
          return Error("unsupported surrogate in \\u escape");
        }
        AppendUtf8(&out, cp);
        break;
      }
      default:
        return Error("unknown escape");
    }
  }
}

Result<Json> Parser::ParseNumber() {
  const size_t start = pos;
  if (!AtEnd() && Peek() == '-') ++pos;
  while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos;
  if (!AtEnd() && Peek() == '.') {
    ++pos;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos;
  }
  if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
    ++pos;
    if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos;
  }
  const std::string token = text.substr(start, pos - start);
  // Integer-form tokens (no '.' or exponent) are ids, seeds, and budgets:
  // one that cannot fit a long long must fail loudly, not fold to a
  // nearby %.17g double and silently solve a different request.
  if (token.find('.') == std::string::npos &&
      token.find('e') == std::string::npos &&
      token.find('E') == std::string::npos) {
    char* int_end = nullptr;
    errno = 0;
    (void)std::strtoll(token.c_str(), &int_end, 10);
    if (int_end != token.c_str() && *int_end == '\0' && errno == ERANGE) {
      pos = start;
      return Error("integer literal overflows long long");
    }
  }
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || !std::isfinite(v)) {
    pos = start;
    return Error("invalid number");
  }
  return Json::Number(v);
}

Result<Json> Parser::ParseArray(int depth) {
  ++pos;  // '['
  Json out = Json::Array();
  SkipWhitespace();
  if (!AtEnd() && Peek() == ']') {
    ++pos;
    return out;
  }
  while (true) {
    Result<Json> item = ParseValue(depth + 1);
    if (!item.ok()) return item.status();
    out.Append(item.MoveValue());
    SkipWhitespace();
    if (AtEnd()) return Error("unterminated array");
    const char c = text[pos++];
    if (c == ']') return out;
    if (c != ',') {
      --pos;
      return Error("expected ',' or ']'");
    }
  }
}

Result<Json> Parser::ParseObject(int depth) {
  ++pos;  // '{'
  Json out = Json::Object();
  SkipWhitespace();
  if (!AtEnd() && Peek() == '}') {
    ++pos;
    return out;
  }
  while (true) {
    SkipWhitespace();
    if (AtEnd() || Peek() != '"') return Error("expected member name");
    Result<Json> key = ParseString();
    if (!key.ok()) return key.status();
    SkipWhitespace();
    if (AtEnd() || text[pos] != ':') return Error("expected ':'");
    ++pos;
    Result<Json> value = ParseValue(depth + 1);
    if (!value.ok()) return value.status();
    if (out.Find(key.value().AsString()) != nullptr) {
      // Last-wins would silently drop whichever copy the client believed
      // in; a request with two 'seed's gets a bad_request instead.
      return Error("duplicate object key " + JsonEscape(key.value().AsString()));
    }
    out.Set(key.value().AsString(), value.MoveValue());
    SkipWhitespace();
    if (AtEnd()) return Error("unterminated object");
    const char c = text[pos++];
    if (c == '}') return out;
    if (c != ',') {
      --pos;
      return Error("expected ',' or '}'");
    }
  }
}

Result<Json> Parser::ParseValue(int depth) {
  if (depth > kMaxDepth) return Error("nesting too deep");
  SkipWhitespace();
  if (AtEnd()) return Error("unexpected end of input");
  const char c = Peek();
  switch (c) {
    case '{': return ParseObject(depth);
    case '[': return ParseArray(depth);
    case '"': return ParseString();
    case 't': {
      UIC_RETURN_NOT_OK(ParseLiteral("true"));
      return Json::Bool(true);
    }
    case 'f': {
      UIC_RETURN_NOT_OK(ParseLiteral("false"));
      return Json::Bool(false);
    }
    case 'n': {
      UIC_RETURN_NOT_OK(ParseLiteral("null"));
      return Json::Null();
    }
    default:
      if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
        return ParseNumber();
      }
      return Error("unexpected character");
  }
}

void DumpTo(const Json& j, std::string* out);

void DumpObject(const Json& j, std::string* out) {
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : j.members()) {
    if (!first) out->push_back(',');
    first = false;
    *out += JsonEscape(key);
    out->push_back(':');
    DumpTo(value, out);
  }
  out->push_back('}');
}

void DumpTo(const Json& j, std::string* out) {
  switch (j.type()) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += j.AsBool() ? "true" : "false";
      break;
    case Json::Type::kNumber:
      *out += JsonNumberToString(j.AsDouble());
      break;
    case Json::Type::kString:
      *out += JsonEscape(j.AsString());
      break;
    case Json::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : j.items()) {
        if (!first) out->push_back(',');
        first = false;
        DumpTo(item, out);
      }
      out->push_back(']');
      break;
    }
    case Json::Type::kObject:
      DumpObject(j, out);
      break;
  }
}

}  // namespace

Json& Json::Set(const std::string& key, Json value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  members_.emplace_back(key, std::move(value));
  return members_.back().second;
}

const Json* Json::Find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  Parser parser{text};
  Result<Json> value = parser.ParseValue(0);
  if (!value.ok()) return value.status();
  parser.SkipWhitespace();
  if (!parser.AtEnd()) return parser.Error("trailing characters");
  return value;
}

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumberToString(double v) {
  // Integral values (every counter, id, and budget in the protocol) print
  // exactly; the %.17g fallback round-trips any double, so bit-identical
  // payloads serialize to identical bytes.
  constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53
  if (std::nearbyint(v) == v && std::fabs(v) < kMaxExactInt) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Result<std::string> GetStringField(const Json& body, const char* key,
                                   const std::string& def) {
  const Json* field = body.Find(key);
  if (field == nullptr) return def;
  if (!field->is_string()) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a string");
  }
  return field->AsString();
}

Result<long long> GetIntField(const Json& body, const char* key,
                              long long def, long long lo, long long hi) {
  const Json* field = body.Find(key);
  if (field == nullptr) return def;
  if (!field->is_number()) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a number");
  }
  const long long v = field->AsInt();
  if (field->AsDouble() != static_cast<double>(v) || v < lo || v > hi) {
    return Status::InvalidArgument(
        std::string("'") + key + "' must be an integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

Result<double> GetNumberField(const Json& body, const char* key, double def,
                              double lo, double hi) {
  const Json* field = body.Find(key);
  if (field == nullptr) return def;
  if (!field->is_number() || field->AsDouble() < lo ||
      field->AsDouble() > hi) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a number in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  return field->AsDouble();
}

}  // namespace serve
}  // namespace uic
