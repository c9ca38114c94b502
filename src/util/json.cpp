#include "util/json.hpp"

#include <cmath>
#include <stdexcept>

namespace semilocal {

Json Json::extend(std::string object) {
  if (object.size() < 2 || object.front() != '{' || object.back() != '}') {
    throw std::invalid_argument("Json::extend: not a JSON object");
  }
  object.pop_back();
  Json json;
  json.has_members_.push_back(object.size() > 1);
  json.out_ = std::move(object);
  return json;
}

void Json::member() {
  if (after_key_ || has_members_.empty()) {
    after_key_ = false;
    return;
  }
  const bool wrapped = static_cast<int>(has_members_.size()) <= wrap_depth_;
  if (has_members_.back()) out_ += wrapped ? "," : ", ";
  if (wrapped) newline();
  has_members_.back() = true;
}

Json& Json::open(char bracket) {
  member();
  out_ += bracket;
  has_members_.push_back(false);
  return *this;
}

Json& Json::close(char bracket) {
  if (has_members_.empty()) throw std::logic_error("Json: close without open");
  const bool wrapped = static_cast<int>(has_members_.size()) <= wrap_depth_;
  const bool had_members = has_members_.back();
  has_members_.pop_back();
  if (wrapped && had_members) newline();
  out_ += bracket;
  return *this;
}

Json& Json::key(std::string_view name) {
  value(name);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

Json& Json::value(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  member();
  out_ += '"';
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (u < 0x20) {
      out_ += "\\u00";
      out_ += kHex[u >> 4];
      out_ += kHex[u & 0xf];
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::value(double number) {
  if (!std::isfinite(number)) return raw("null");
  char buf[32];
  return raw({buf, std::to_chars(buf, buf + sizeof(buf), number).ptr});
}

Json& Json::raw(std::string_view text) {
  member();
  out_ += text;
  return *this;
}

std::int64_t find_int(std::string_view json, std::string_view key, std::int64_t missing) {
  std::string needle = "\"";
  needle.append(key).append("\": ");
  const std::size_t at = json.find(needle);
  if (at == std::string_view::npos) return missing;
  std::int64_t value = 0;
  const char* end = json.data() + json.size();
  const auto parsed = std::from_chars(json.data() + at + needle.size(), end, value);
  return parsed.ec == std::errc() ? value : missing;
}

}  // namespace semilocal
