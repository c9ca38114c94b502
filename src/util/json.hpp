// The tree's one JSON writer: every stats and health document, wire report
// and bench result file is built here, so the format is decided once.
//
// Members are separated by ", " and keys end in ": "; strings are escaped
// per RFC 8259 (`"`, `\` and bytes below 0x20); integers print in decimal;
// doubles print in std::to_chars' shortest round-trip form, and a
// non-finite double prints as null.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace semilocal {

class Json {
 public:
  /// Containers opened at nesting depth < wrap_depth put each member on a
  /// line of its own, indented two spaces per level; deeper containers stay
  /// on one line. 0 writes the whole document on one line.
  explicit Json(int wrap_depth = 0) : wrap_depth_(wrap_depth) {}

  /// Reopens `object`, a complete one-line JSON object, so that further
  /// members follow its last one. Throws std::invalid_argument when it is
  /// not an object.
  static Json extend(std::string object);

  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }
  /// Starts an object member; a value or a container must follow.
  Json& key(std::string_view name);

  Json& value(std::string_view text);
  Json& value(const char* text) { return value(std::string_view(text)); }
  Json& value(bool flag) { return raw(flag ? "true" : "false"); }
  Json& value(double number);
  template <std::integral T>
  Json& value(T number) {
    char buf[24];
    return raw({buf, std::to_chars(buf, buf + sizeof(buf), number).ptr});
  }

  template <typename T>
  Json& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  /// Writes what precedes a value or container: nothing after a key, else
  /// a separator and, in a wrapped container, a new line.
  void member();
  /// Writes one scalar already in JSON form.
  Json& raw(std::string_view text);
  Json& open(char bracket);
  Json& close(char bracket);
  void newline() {
    out_ += '\n';
    out_.append(2 * has_members_.size(), ' ');
  }

  std::string out_;
  std::vector<bool> has_members_;  ///< one flag per open container
  bool after_key_ = false;
  int wrap_depth_ = 0;
};

/// Pulls an integer field out of a flat JSON document as this writer emits
/// it (`"key": 123`). Returns `missing` when the key is absent or its value
/// is not an int64 (an optional '-', then digits). Not a parser: the first
/// textual match wins, which suits the flat health documents the engine and
/// router emit.
std::int64_t find_int(std::string_view json, std::string_view key, std::int64_t missing);

}  // namespace semilocal
