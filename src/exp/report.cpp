#include "exp/report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/check.hpp"

namespace voodb::exp {

namespace {

/// Round-trippable double formatting (shortest of %.15g/%.17g that
/// survives a parse round trip); NaN/Inf have no JSON form.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace

std::string JsonWriter::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (comma_stack_.back()) out_ += ",";
  comma_stack_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += "{";
  comma_stack_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  VOODB_CHECK_MSG(comma_stack_.size() > 1 && !after_key_,
                  "unbalanced EndObject");
  comma_stack_.pop_back();
  out_ += "}";
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += "[";
  comma_stack_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  VOODB_CHECK_MSG(comma_stack_.size() > 1 && !after_key_,
                  "unbalanced EndArray");
  comma_stack_.pop_back();
  out_ += "]";
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  VOODB_CHECK_MSG(!after_key_, "Key after Key without a value");
  Separate();
  out_ += "\"" + Escape(name) + "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  Separate();
  out_ += "\"" + Escape(v) + "\"";
  return *this;
}

JsonWriter& JsonWriter::Value(const char* v) {
  return Value(std::string(v));
}

JsonWriter& JsonWriter::Value(double v) {
  Separate();
  out_ += JsonNumber(v);
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  Separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  Separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Separate();
  out_ += "null";
  return *this;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  VOODB_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << content;
  out.flush();
  VOODB_CHECK_MSG(out.good(), "failed writing '" << path << "'");
}

}  // namespace voodb::exp
