#include "core/json_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace fbm::core {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // "%.*g" at the smallest precision whose text parses back to v. The
  // search starts at the shortest round-trip digit count, below which
  // nothing parses back, but cannot stop there: at a power of two the
  // shortest round-trip decimal may lie above v while "%.*g" prints the
  // nearest one of that length, below v's rounding gap (0x1p-1017 renders
  // as 7.1202363472230444e-307, not 7.120236347223044e-307).
  char buf[32];
  char* const end = buf + sizeof buf;
  char* const digits_end =
      std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* c = buf; c != digits_end && *c != 'e'; ++c) {
    precision += (*c >= '0' && *c <= '9') ? 1 : 0;
  }
  for (;; ++precision) {
    char* const last =
        std::to_chars(buf, end, v, std::chars_format::general, precision)
            .ptr;
    double back = 0.0;
    const bool parsed = std::from_chars(buf, last, back).ec == std::errc{};
    if ((parsed && back == v) || precision >= 17) {
      return std::string(buf, last);
    }
  }
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::separate() {
  const bool first_ever = out_.empty();
  if (!items_.empty()) {
    if (items_.back() > 0) {
      out_ += style_ == Style::compact ? ", " : ",";
    }
    ++items_.back();
  }
  if (style_ == Style::pretty) {
    if (!first_ever) out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_) + 2 * items_.size(), ' ');
  }
}

void JsonWriter::open(std::string_view key, char bracket) {
  separate();
  if (!key.empty()) {
    out_ += json_quote(key);
    out_ += ": ";
  }
  out_ += bracket;
  items_.push_back(0);
}

void JsonWriter::close(char open_bracket, char close_bracket) {
  (void)open_bracket;
  const std::size_t items = items_.back();
  items_.pop_back();
  // Empty containers close inline ("{}", "[]"); populated pretty containers
  // put the closing bracket on its own line at the parent depth.
  if (style_ == Style::pretty && items > 0) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(indent_) + 2 * items_.size(), ' ');
  }
  out_ += close_bracket;
}

JsonWriter& JsonWriter::begin_object(std::string_view key) {
  open(key, '{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close('{', '}');
  return *this;
}

JsonWriter& JsonWriter::begin_array(std::string_view key) {
  open(key, '[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close('[', ']');
  return *this;
}

JsonWriter& JsonWriter::raw_field(std::string_view key,
                                  std::string_view token) {
  separate();
  out_ += json_quote(key);
  out_ += ": ";
  out_ += token;
  return *this;
}

JsonWriter& JsonWriter::raw_element(std::string_view token) {
  if (style_ == Style::pretty) {
    // The token carries its own indentation (nested documents rendered at
    // indent + 2 * depth); only the separator is our job.
    if (!items_.empty() && items_.back() > 0) out_ += ',';
    if (!out_.empty()) out_ += '\n';
    if (!items_.empty()) ++items_.back();
    out_ += token;
  } else {
    separate();
    out_ += token;
  }
  return *this;
}

}  // namespace fbm::core
