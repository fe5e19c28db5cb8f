#include "sim/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace strat::sim {

Cli::Cli(int argc, const char* const* argv, std::vector<std::string> known) {
  program_ = argc > 0 ? argv[0] : "";
  auto is_known = [&](const std::string& name) {
    return std::find(known.begin(), known.end(), name) != known.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("Cli: expected --flag, got '" + arg + "'");
    }
    arg.erase(0, 2);
    std::string name;
    std::string value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--name value` form: consume the next token unless it is a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!is_known(name)) throw std::invalid_argument("Cli: unknown flag --" + name);
    values_[name] = value;
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::optional<std::string> Cli::raw(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_string(const std::string& name, const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

namespace {

/// Parses the whole of `text` as a T, or throws naming the flag.
template <typename T>
T parse_number(const std::string& name, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("Cli: --" + name + " expects a number, got '" + text + "'");
  }
  return value;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  return parse_number<std::int64_t>(name, *v);
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  const double value = parse_number<double>(name, *v);
  if (!std::isfinite(value)) {
    throw std::invalid_argument("Cli: --" + name + " expects a finite number, got '" + *v + "'");
  }
  return value;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("Cli: --" + name + " expects true/1/yes or false/0/no, got '" +
                              *v + "'");
}

}  // namespace strat::sim
