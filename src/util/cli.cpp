#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

namespace semilocal {

CliArgs CliArgs::parse(int argc, const char* const* argv, int start,
                       const std::set<std::string>& known_flags,
                       const std::optional<std::set<std::string>>& known_options) {
  CliArgs args;
  for (int i = start; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string name = token.substr(2);
      if (name.empty()) throw std::invalid_argument("cli: bare '--' is not a valid option");
      if (known_flags.count(name) > 0) {
        args.flags_.insert(name);
      } else if (known_options && known_options->count(name) == 0) {
        throw std::invalid_argument("cli: unknown option --" + name);
      } else {
        if (i + 1 >= argc) {
          throw std::invalid_argument("cli: option --" + name + " needs a value");
        }
        args.options_[name] = argv[++i];
      }
    } else {
      args.positional_.push_back(token);
    }
  }
  return args;
}

std::optional<std::string> CliArgs::option(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::option_or(const std::string& name, std::string fallback) const {
  const auto v = option(name);
  return v ? *v : std::move(fallback);
}

Index CliArgs::int_option_or(const std::string& name, Index fallback) const {
  const auto v = option(name);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("cli: option --" + name + " expects an integer, got '" + *v + "'");
  }
  return static_cast<Index>(parsed);
}

double CliArgs::double_option_or(const std::string& name, double fallback) const {
  const auto v = option(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("cli: option --" + name + " expects a number, got '" + *v + "'");
  }
  return parsed;
}

}  // namespace semilocal
