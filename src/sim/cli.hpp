// Minimal command-line flag parsing for bench harnesses.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown
// flags raise an error so typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace strat::sim {

/// Parsed command-line flags. Construct with declared flag names, then
/// query typed getters with per-flag defaults.
class Cli {
 public:
  /// Parses argv. `known` lists accepted flag names (without `--`).
  /// Throws std::invalid_argument on an unknown or malformed flag.
  Cli(int argc, const char* const* argv, std::vector<std::string> known);

  /// True if the flag appeared at all.
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name, const std::string& fallback) const;
  /// Numeric getters parse the whole value (`--n=5e3` and `--n=10k`
  /// are refused, not truncated); doubles must be finite. They throw
  /// std::invalid_argument naming the flag and the value.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  /// Boolean flags: present without a value, or with true/1/yes, =
  /// true; false/0/no = false; any other value throws like the
  /// numeric getters.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback = false) const;

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace strat::sim
