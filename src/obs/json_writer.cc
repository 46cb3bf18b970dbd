#include "obs/json_writer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/macros.h"

namespace uolap::obs {

namespace {

/// Room for any FormatDouble text ("-2.2250738585072014e-308" is 24).
constexpr size_t kDoubleChars = 32;

/// Writes FormatDouble(v) into `buf` (kDoubleChars long); returns its end.
/// std::to_chars with a precision is specified as printf's "%.*f" /
/// "%.*g" in the C locale, so the text equals the snprintf recipe's.
char* WriteDouble(double v, char* buf) {
  char* const end = buf + kDoubleChars;
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN
    constexpr std::string_view kNull = "null";
    return std::copy(kNull.begin(), kNull.end(), buf);
  }
  // Integral values in the exactly-representable range print as integers.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    return std::to_chars(buf, end, v, std::chars_format::fixed, 0).ptr;
  }
  char* last = buf;
  for (int prec = 15; prec <= 17; ++prec) {
    last = std::to_chars(buf, end, v, std::chars_format::general, prec).ptr;
    double back = 0;
    std::from_chars(buf, last, back);
    if (back == v) break;
  }
  return last;
}

}  // namespace

void JsonWriter::Prefix() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
    if (indent_ > 0) {
      out_ += '\n';
      out_.append(static_cast<size_t>(depth_ * indent_), ' ');
    }
  }
}

void JsonWriter::BeginObject() {
  Prefix();
  out_ += '{';
  needs_comma_.push_back(false);
  ++depth_;
}

void JsonWriter::EndObject() {
  UOLAP_CHECK(!needs_comma_.empty());
  const bool had_members = needs_comma_.back();
  needs_comma_.pop_back();
  --depth_;
  if (indent_ > 0 && had_members) {
    out_ += '\n';
    out_.append(static_cast<size_t>(depth_ * indent_), ' ');
  }
  out_ += '}';
}

void JsonWriter::BeginArray() {
  Prefix();
  out_ += '[';
  needs_comma_.push_back(false);
  ++depth_;
}

void JsonWriter::EndArray() {
  UOLAP_CHECK(!needs_comma_.empty());
  const bool had_members = needs_comma_.back();
  needs_comma_.pop_back();
  --depth_;
  if (indent_ > 0 && had_members) {
    out_ += '\n';
    out_.append(static_cast<size_t>(depth_ * indent_), ' ');
  }
  out_ += ']';
}

void JsonWriter::Key(std::string_view key) {
  Prefix();
  out_ += Escape(key);
  out_ += indent_ > 0 ? ": " : ":";
  after_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  Prefix();
  out_ += Escape(value);
}

void JsonWriter::Double(double value) {
  Prefix();
  char buf[kDoubleChars];
  out_.append(buf, WriteDouble(value, buf));
}

void JsonWriter::Int(int64_t value) {
  Prefix();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void JsonWriter::UInt(uint64_t value) {
  Prefix();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void JsonWriter::Bool(bool value) {
  Prefix();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  Prefix();
  out_ += "null";
}

std::string JsonWriter::TakeString() {
  UOLAP_CHECK_MSG(needs_comma_.empty() && !after_key_,
                  "JsonWriter finished mid-structure");
  if (indent_ > 0) out_ += '\n';
  std::string s = std::move(out_);
  out_.clear();
  return s;
}

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonWriter::FormatDouble(double v) {
  char buf[kDoubleChars];
  return std::string(buf, WriteDouble(v, buf));
}

}  // namespace uolap::obs
