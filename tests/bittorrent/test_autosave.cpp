// Autosave tier (ctest -L faults): crash-safe periodic checkpoints.
//
// The durability contract under test: autosave_every(n, dir, keep)
// writes a generation at every n-th round boundary via temp-file +
// atomic rename, prunes to the newest `keep`, and recover_latest walks
// the generations newest-first — a truncated or corrupt newest file
// falls back to the previous one, and a recovered run continues
// bitwise identical to one that never crashed. The cadence itself is
// free: saving never consumes RNG, so a run with autosave enabled is
// byte-for-byte the run without it.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bittorrent/autosave.hpp"
#include "bittorrent/bandwidth.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "bittorrent/tracker_sim.hpp"

namespace strat::bt {
namespace {

namespace fs = std::filesystem;

std::vector<double> capacities(std::size_t n) {
  return BandwidthModel::saroiu2002().representative_sample(n);
}

/// Fresh per-test scratch directory under gtest's temp root.
fs::path scratch_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "strat_autosave" / name;
  fs::remove_all(dir);
  return dir;
}

SwarmConfig small_config() {
  SwarmConfig cfg;
  cfg.num_peers = 60;
  cfg.seeds = 2;
  cfg.num_pieces = 48;
  cfg.piece_kb = 32.0;
  cfg.neighbor_degree = 8.0;
  cfg.initial_completion = 0.4;
  // Faults on, so recovery also exercises the kTagFaults section and
  // live backoff state.
  cfg.faults.outage_period = 6;
  cfg.faults.outage_duration = 2;
  cfg.faults.connect_failure_prob = 0.1;
  cfg.faults.nat_fraction = 0.2;
  cfg.faults.lane_loss_prob = 0.05;
  return cfg;
}

/// Swarm borrows the caller's Rng by reference, so the generator must
/// outlive it — bundle the two with matching lifetimes.
struct Sim {
  graph::Rng rng{2024};
  Swarm swarm;
  Sim() : swarm(small_config(), capacities(60), rng) {}
};

void corrupt_tail(const fs::path& file) {
  // Truncate to half: the checksum (and usually the bounds checks)
  // must reject it.
  const auto size = fs::file_size(file);
  fs::resize_file(file, size / 2);
}

TEST(Autosaver, RejectsZeroCadenceOrZeroGenerations) {
  EXPECT_THROW(Autosaver(0, "unused"), std::invalid_argument);
  EXPECT_THROW(Autosaver(5, "unused", 0), std::invalid_argument);
}

TEST(Autosaver, DueOnlyAtNonZeroMultiples) {
  const Autosaver saver(5, "unused");
  EXPECT_FALSE(saver.due(0)) << "construction state needs no checkpoint";
  EXPECT_FALSE(saver.due(1));
  EXPECT_FALSE(saver.due(4));
  EXPECT_TRUE(saver.due(5));
  EXPECT_FALSE(saver.due(6));
  EXPECT_TRUE(saver.due(10));
  EXPECT_TRUE(saver.due(100));
}

TEST(Autosaver, WritesPrunesAndIgnoresStrays) {
  const fs::path dir = scratch_dir("prune");
  const Autosaver saver(1, dir, /*keep=*/2);
  saver.write(3, "gen three");
  saver.write(7, "gen seven");
  saver.write(12, "gen twelve");
  // Stray files recovery and pruning must both ignore.
  std::ofstream(dir / "auto-00000099.snap.tmp") << "crash leftover";
  std::ofstream(dir / "notes.txt") << "unrelated";

  const auto files = autosave_files(dir);
  ASSERT_EQ(files.size(), 2u) << "pruned to keep=2";
  EXPECT_EQ(files[0].filename(), "auto-00000012.snap") << "newest first";
  EXPECT_EQ(files[1].filename(), "auto-00000007.snap");
  EXPECT_FALSE(fs::exists(dir / "auto-00000003.snap")) << "oldest pruned";
  EXPECT_TRUE(fs::exists(dir / "auto-00000099.snap.tmp")) << "strays untouched";

  std::ifstream in(files[0]);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "gen twelve");
  EXPECT_TRUE(fs::exists(dir / "notes.txt"));
}

TEST(Autosaver, GenerationsPastEightDigitsStayNewestFirst) {
  // File names pad the round to eight digits, so round 100000000 has
  // nine: ordered as strings it would sort below 99999999 and be pruned
  // the moment it landed. Generations are ordered by round number.
  const fs::path dir = scratch_dir("nine_digits");
  const Autosaver saver(1, dir, /*keep=*/2);
  for (std::size_t round = 99999998; round <= 100000001; ++round) {
    saver.write(round, "gen " + std::to_string(round));
  }
  const auto files = autosave_files(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].filename(), "auto-100000001.snap") << "newest first";
  EXPECT_EQ(files[1].filename(), "auto-100000000.snap");
  EXPECT_FALSE(fs::exists(dir / "auto-99999999.snap")) << "older generations pruned";
  // A name whose round does not parse is neither listed nor pruned.
  std::ofstream(dir / "auto-latest.snap") << "not a round number";
  saver.write(100000002, "gen 100000002");
  const auto after = autosave_files(dir);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].filename(), "auto-100000002.snap");
  EXPECT_TRUE(fs::exists(dir / "auto-latest.snap"));
}

TEST(Autosaver, MissingOrEmptyDirectoryRecoversNothing) {
  const fs::path dir = scratch_dir("absent");
  EXPECT_TRUE(autosave_files(dir).empty());
  EXPECT_FALSE(recover_latest_swarm(dir).has_value());
  fs::create_directories(dir);
  EXPECT_TRUE(autosave_files(dir).empty());
  EXPECT_FALSE(recover_latest_swarm(dir).has_value());
  EXPECT_FALSE(recover_latest_tracker(dir, TrackerConfig{}).has_value());
}

TEST(SwarmAutosave, CadenceIsFreeAndGenerationsAppear) {
  const fs::path dir = scratch_dir("cadence");
  Sim plain;
  plain.swarm.run(17);
  const std::string want = save_to_string(plain.swarm);

  Sim saved;
  saved.swarm.autosave_every(5, dir, /*keep=*/2);
  saved.swarm.run(17);
  EXPECT_EQ(save_to_string(saved.swarm), want)
      << "autosave must never perturb the simulation";

  const auto files = autosave_files(dir);
  ASSERT_EQ(files.size(), 2u) << "saves at rounds 5/10/15, pruned to the newest 2";
  EXPECT_EQ(files[0].filename(), "auto-00000015.snap");
  EXPECT_EQ(files[1].filename(), "auto-00000010.snap");
}

TEST(SwarmAutosave, KillAndRecoverContinuesBitwise) {
  const fs::path dir = scratch_dir("recover");
  // The uninterrupted yardstick: 30 rounds straight through.
  Sim full;
  full.swarm.run(30);
  const std::string want = save_to_string(full.swarm);

  // The "crashed" run dies at round 23; the newest checkpoint is 20.
  {
    Sim victim;
    victim.swarm.autosave_every(5, dir, /*keep=*/3);
    victim.swarm.run(23);
  }  // destructor = kill -9 as far as the checkpoint files care

  auto recovered = recover_latest_swarm(dir);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->swarm().rounds_elapsed(), 20u);
  recovered->swarm().run(10);
  EXPECT_EQ(save_to_string(recovered->swarm()), want)
      << "recovered run must finish bitwise identical to the uninterrupted one";
}

TEST(SwarmAutosave, CorruptNewestFallsBackThenGivesUp) {
  const fs::path dir = scratch_dir("fallback");
  Sim victim;
  victim.swarm.autosave_every(5, dir, /*keep=*/3);
  victim.swarm.run(23);  // generations 10, 15, 20 on disk

  auto files = autosave_files(dir);
  ASSERT_EQ(files.size(), 3u);
  corrupt_tail(files[0]);  // round 20 truncated mid-write

  auto recovered = recover_latest_swarm(dir);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->swarm().rounds_elapsed(), 15u)
      << "corrupt newest generation must fall back to the previous one";

  // A recovered run from the older generation still converges on the
  // uninterrupted end state.
  Sim full;
  full.swarm.run(30);
  recovered->swarm().run(15);
  EXPECT_EQ(save_to_string(recovered->swarm()), save_to_string(full.swarm));

  // Garbage in every generation: recovery reports nothing rather than
  // throwing or resurrecting a half-written state.
  for (const auto& f : autosave_files(dir)) corrupt_tail(f);
  EXPECT_FALSE(recover_latest_swarm(dir).has_value());
}

constexpr std::size_t kSwarms = 4;
constexpr std::size_t kPeers = 12;

TrackerConfig small_tracker_config() {
  TrackerConfig tcfg;
  tcfg.shards = 2;
  tcfg.arrival_rate = 1.5;
  tcfg.zipf_exponent = 1.0;
  tcfg.arrival_model = BandwidthModel::saroiu2002();
  tcfg.swarm_churn.lifetime = ChurnSpec::Lifetime::kExponential;
  tcfg.swarm_churn.lifetime_rounds = 20.0;
  tcfg.swarm_churn.arrival_completion = 0.25;
  return tcfg;
}

std::vector<TrackerSwarmSeed> small_tracker_seeds() {
  std::vector<TrackerSwarmSeed> seeds(kSwarms);
  for (std::size_t k = 0; k < kSwarms; ++k) {
    SwarmConfig scfg;
    scfg.num_peers = kPeers;
    scfg.seeds = 1;
    scfg.num_pieces = 32;
    scfg.piece_kb = 32.0;
    scfg.neighbor_degree = 6.0;
    scfg.initial_completion = 0.5;
    scfg.stay_as_seed = false;
    scfg.faults.outage_period = 5;
    scfg.faults.outage_duration = 1;
    scfg.faults.lane_loss_prob = 0.05;
    seeds[k].config = scfg;
    seeds[k].members.resize(kPeers);
    for (std::size_t i = 0; i < kPeers; ++i) {
      seeds[k].members[i] = static_cast<GlobalPeerId>(k * kPeers + i);
    }
  }
  return seeds;
}

TEST(TrackerAutosave, KillAndRecoverContinuesBitwise) {
  const fs::path dir = scratch_dir("tracker");
  const TrackerConfig tcfg = small_tracker_config();
  const std::vector<TrackerSwarmSeed> seeds = small_tracker_seeds();
  const auto caps = capacities(kSwarms * kPeers);

  TrackerSim full(tcfg, seeds, caps, 909);
  full.run(16);
  std::ostringstream want(std::ios::binary);
  full.save(want);

  {
    TrackerSim victim(tcfg, seeds, caps, 909);
    victim.autosave_every(4, dir, /*keep=*/2);
    victim.run(14);  // dies between checkpoints; newest generation is 12
  }

  auto recovered = recover_latest_tracker(dir, tcfg);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->rounds_elapsed(), 12u);
  recovered->run(4);
  std::ostringstream got(std::ios::binary);
  recovered->save(got);
  EXPECT_EQ(std::move(got).str(), std::move(want).str());
}

TEST(TrackerAutosave, CorruptRecordCountFallsBack) {
  // A newest generation whose registry id space and record count both
  // claim ~4G entries (byte 3 of each u64 set to 0xFF) must be rejected
  // as a SnapshotError, so recovery falls back to the previous one.
  const fs::path dir = scratch_dir("tracker_count");
  const TrackerConfig tcfg = small_tracker_config();
  {
    TrackerSim victim(tcfg, small_tracker_seeds(),
                      capacities(kSwarms * kPeers), 909);
    victim.autosave_every(4, dir, /*keep=*/2);
    victim.run(8);  // generations 4 and 8
  }
  const auto files = autosave_files(dir);
  ASSERT_EQ(files.size(), 2u);
  {
    std::fstream f(files[0], std::ios::binary | std::ios::in | std::ios::out);
    const char ff = static_cast<char>(0xFF);
    f.seekp(85 + 3);  // id space: after the 81-byte meta section and the registry tag
    f.write(&ff, 1);
    f.seekp(93 + 3);  // record count
    f.write(&ff, 1);
    ASSERT_TRUE(f.good());
  }
  auto recovered = recover_latest_tracker(dir, tcfg);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->rounds_elapsed(), 4u)
      << "a corrupt record count must fall back to the previous generation";
}

}  // namespace
}  // namespace strat::bt
