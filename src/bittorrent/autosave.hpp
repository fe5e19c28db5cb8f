// Crash-safe periodic checkpoints: temp-file + atomic-rename autosave
// with bounded generations, plus validation-first recovery.
//
// Autosaver is pure host-side checkpoint policy — which rounds to save
// on, where the files go, how many generations to keep. It never
// touches simulation state, so it is deliberately *not* part of any
// snapshot (a resumed run re-arms its own policy). Swarm and
// TrackerSim expose it through autosave_every(): at the end of each
// due run_round() the owner serializes itself with its ordinary
// save() path and hands the bytes to write().
//
// Durability discipline: the payload lands in `auto-<round>.snap.tmp`
// first and is renamed to `auto-<round>.snap` only after the write
// fully succeeds — a crash mid-write leaves at worst a stale .tmp, and
// a reader never observes a half-written .snap under POSIX rename
// atomicity. Filenames carry the zero-padded round number (never a
// wall-clock timestamp — strat-lint R3 bans time-derived values), and
// generations are ordered by that number as parsed from the name (past
// round 99999999 the name outgrows its eight-digit padding, so name
// order would not be round order): pruning and recovery need no
// filesystem metadata.
//
// Recovery is validation-first: recover_latest_swarm() /
// recover_latest_tracker() (declared in snapshot.hpp / tracker_sim.hpp
// to keep this header dependency-free) walk the generations newest
// first and return the first snapshot that passes the loader's full
// magic/bounds/checksum gauntlet — a truncated or corrupt newest
// generation silently falls back to the previous one.
#pragma once

#include <cstddef>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace strat::bt {

/// Periodic checkpoint policy: every N rounds, write one generation,
/// keep the newest K. See the file comment for the durability rules.
class Autosaver {
 public:
  /// Throws std::invalid_argument if `every` or `keep` is zero.
  Autosaver(std::size_t every, std::filesystem::path dir, std::size_t keep = 3);

  /// True when `round` is a checkpoint boundary (every N rounds, round
  /// 0 excluded — construction state needs no checkpoint).
  [[nodiscard]] bool due(std::size_t round) const noexcept {
    return round != 0 && round % every_ == 0;
  }

  /// Writes one generation: payload to `auto-<round>.snap.tmp`, flushed
  /// and closed, atomic rename to `auto-<round>.snap`, then prunes the
  /// oldest generations (by round number) beyond `keep`. Creates the directory on first
  /// use. Throws std::runtime_error if the filesystem write fails.
  void write(std::size_t round, std::string_view payload) const;

  [[nodiscard]] std::size_t every() const noexcept { return every_; }
  [[nodiscard]] std::size_t keep() const noexcept { return keep_; }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  std::size_t every_;
  std::size_t keep_;
  std::filesystem::path dir_;
};

/// The autosave generations under `dir`, newest first: ordered by the
/// round number each `auto-<round>.snap` name carries, not by the name
/// itself. Ignores .tmp leftovers and every name whose round does not
/// parse; an absent directory yields an empty list.
[[nodiscard]] std::vector<std::filesystem::path> autosave_files(const std::filesystem::path& dir);

}  // namespace strat::bt
