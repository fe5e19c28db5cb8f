#include "bittorrent/autosave.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "bittorrent/snapshot.hpp"
#include "bittorrent/tracker_sim.hpp"

namespace strat::bt {

namespace {

/// `auto-<zero-padded round>.snap` — round numbers, never timestamps,
/// so the whole scheme stays deterministic (strat-lint R3). Past round
/// 99999999 the name grows a ninth digit, which is why generations are
/// ordered by parsed_round(), never by name.
std::filesystem::path generation_path(const std::filesystem::path& dir, std::size_t round) {
  char name[32];
  std::snprintf(name, sizeof name, "auto-%08zu.snap", round);
  return dir / name;
}

/// The round a generation file name carries, or nullopt for any other
/// name (.tmp leftovers, unrelated files, digits that overflow).
std::optional<std::size_t> parsed_round(std::string_view name) {
  constexpr std::string_view kPrefix = "auto-";
  constexpr std::string_view kSuffix = ".snap";
  if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) return std::nullopt;
  const std::string_view digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  std::size_t round = 0;
  const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), round);
  if (digits.empty() || ec != std::errc() || end != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return round;
}

/// The whole generation file in one string, or nullopt if it cannot be
/// opened. A file that shrinks while it is read yields its short bytes,
/// which the loader refuses as truncated.
std::optional<std::string> read_generation(const std::filesystem::path& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) return std::nullopt;
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

}  // namespace

Autosaver::Autosaver(std::size_t every, std::filesystem::path dir, std::size_t keep)
    : every_(every), keep_(keep), dir_(std::move(dir)) {
  if (every_ == 0) throw std::invalid_argument("Autosaver: every must be >= 1");
  if (keep_ == 0) throw std::invalid_argument("Autosaver: keep must be >= 1");
}

void Autosaver::write(std::size_t round, std::string_view payload) const {
  std::filesystem::create_directories(dir_);
  const std::filesystem::path final_path = generation_path(dir_, round);
  std::filesystem::path tmp_path = final_path;
  tmp_path += ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("autosave: write failed: " + tmp_path.string());
    }
  }
  // The atomic publish: a crash before this line leaves only a .tmp
  // (ignored by recovery); after it, a complete generation.
  std::filesystem::rename(tmp_path, final_path);
  const std::vector<std::filesystem::path> generations = autosave_files(dir_);
  for (std::size_t i = keep_; i < generations.size(); ++i) {
    std::error_code ec;  // best-effort: a prune failure must not kill the run
    std::filesystem::remove(generations[i], ec);
  }
}

std::vector<std::filesystem::path> autosave_files(const std::filesystem::path& dir) {
  std::vector<std::pair<std::size_t, std::filesystem::path>> found;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return {};
  for (const std::filesystem::directory_entry& entry : it) {
    const std::optional<std::size_t> round = parsed_round(entry.path().filename().string());
    if (round) found.emplace_back(*round, entry.path());
  }
  // Newest round first; equal rounds (differently padded names) by name.
  std::sort(found.begin(), found.end(), std::greater<>());
  std::vector<std::filesystem::path> out;
  out.reserve(found.size());
  for (auto& [round, path] : found) out.push_back(std::move(path));
  return out;
}

std::optional<ResumedSwarm> recover_latest_swarm(const std::filesystem::path& dir) {
  for (const std::filesystem::path& path : autosave_files(dir)) {
    const std::optional<std::string> bytes = read_generation(path);
    if (!bytes) continue;
    try {
      return std::optional<ResumedSwarm>(std::in_place, *bytes);
    } catch (const SnapshotError&) {
      // Corrupt or truncated generation: fall back to the next-newest.
    }
  }
  return std::nullopt;
}

std::optional<TrackerSim> recover_latest_tracker(const std::filesystem::path& dir,
                                                 const TrackerConfig& cfg) {
  for (const std::filesystem::path& path : autosave_files(dir)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    try {
      return TrackerSim::resume(in, cfg);
    } catch (const SnapshotError&) {
      // Corrupt or truncated generation: fall back to the next-newest.
    }
  }
  return std::nullopt;
}

}  // namespace strat::bt
