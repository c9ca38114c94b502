// Minimal command-line argument parsing for the tools and examples.
//
// Supports subcommand-style interfaces: positional arguments, `--key value`
// options and `--flag` switches. Given the list of option names it knows, a
// parse fails fast on any other `--name` rather than silently taking a typo
// (and the token after it) as an option.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace semilocal {

/// Parsed command line.
class CliArgs {
 public:
  /// Parses argv[start..argc). `known_flags` lists valueless switches;
  /// every other `--name` consumes the following token as its value. With
  /// `known_options`, a `--name` in neither list is an error; without it,
  /// any name is taken as an option. Throws std::invalid_argument on
  /// malformed input.
  static CliArgs parse(int argc, const char* const* argv, int start,
                       const std::set<std::string>& known_flags = {},
                       const std::optional<std::set<std::string>>& known_options = {});

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  [[nodiscard]] bool has_flag(const std::string& name) const {
    return flags_.count(name) > 0;
  }

  [[nodiscard]] std::optional<std::string> option(const std::string& name) const;

  /// Option with a default.
  [[nodiscard]] std::string option_or(const std::string& name, std::string fallback) const;

  /// Integer option with validation.
  [[nodiscard]] Index int_option_or(const std::string& name, Index fallback) const;

  /// Floating-point option with validation.
  [[nodiscard]] double double_option_or(const std::string& name, double fallback) const;

 private:
  std::vector<std::string> positional_;
  std::set<std::string> flags_;
  std::map<std::string, std::string> options_;
};

}  // namespace semilocal
