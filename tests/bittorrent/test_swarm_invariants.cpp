// Swarm conservation/invariant suite guarding the edge-slot data
// plane: byte conservation every round, availability counters that
// track exactly the pieces held by non-departed peers, no leaked edge
// slots under churn, bitwise determinism for a fixed seed, and bitwise
// equivalence between the flat data plane (Swarm) and the retained
// map-based implementation (ReferenceSwarm) — on static and churned
// (join/leave/re-announce) runs alike.
#include <gtest/gtest.h>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/swarm.hpp"

namespace strat::bt {
namespace {

std::vector<double> bandwidths(std::size_t n, double base = 400.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = base * (1.0 + 0.001 * static_cast<double>(i));
  return out;
}

TEST(SwarmInvariants, ConservationHoldsEveryRound) {
  graph::Rng rng(31);
  SwarmConfig cfg;
  cfg.num_peers = 50;
  cfg.seeds = 2;
  cfg.num_pieces = 64;
  cfg.piece_kb = 32.0;
  cfg.neighbor_degree = 14.0;
  cfg.initial_completion = 0.4;
  Swarm swarm(cfg, bandwidths(50), rng);
  for (std::size_t r = 0; r < 40; ++r) {
    swarm.run_round();
    double uploaded = 0.0;
    double downloaded = 0.0;
    for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
      uploaded += swarm.stats(p).uploaded_kb;
      downloaded += swarm.stats(p).downloaded_kb;
    }
    ASSERT_NEAR(uploaded, downloaded, 1e-6) << "round " << r;
  }
}

TEST(SwarmInvariants, AvailabilityEqualsHoldingsUnderDepartures) {
  graph::Rng rng(32);
  SwarmConfig cfg;
  cfg.num_peers = 40;
  cfg.seeds = 2;
  cfg.num_pieces = 24;
  cfg.piece_kb = 8.0;
  cfg.neighbor_degree = 12.0;
  cfg.initial_completion = 0.6;
  cfg.stay_as_seed = false;
  Swarm swarm(cfg, bandwidths(40, 800.0), rng);
  for (std::size_t r = 0; r < 150; ++r) {
    swarm.run_round();
    std::size_t held = 0;
    for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
      if (!swarm.departed(p)) held += swarm.stats(p).pieces;
    }
    const double copies =
        swarm.availability_stats().mean * static_cast<double>(cfg.num_pieces);
    ASSERT_NEAR(copies, static_cast<double>(held), 1e-6) << "round " << r;
  }
  EXPECT_GT(swarm.completed_leechers(), 20u);
}

TEST(SwarmInvariants, FixedSeedRunsAreBitwiseIdentical) {
  SwarmConfig cfg;
  cfg.num_peers = 40;
  cfg.seeds = 1;
  cfg.num_pieces = 64;
  cfg.piece_kb = 64.0;
  cfg.neighbor_degree = 12.0;
  struct Snapshot {
    std::vector<PeerStats> stats;
    StratificationReport strat;
  };
  auto run_once = [&](std::uint64_t seed) {
    graph::Rng rng(seed);
    Swarm swarm(cfg, bandwidths(40), rng);
    swarm.run(25);
    Snapshot snap;
    for (core::PeerId p = 0; p < swarm.peer_count(); ++p) snap.stats.push_back(swarm.stats(p));
    snap.strat = swarm.stratification();
    return snap;
  };
  const Snapshot a = run_once(99);
  const Snapshot b = run_once(99);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t p = 0; p < a.stats.size(); ++p) {
    EXPECT_EQ(a.stats[p].uploaded_kb, b.stats[p].uploaded_kb) << "peer " << p;
    EXPECT_EQ(a.stats[p].downloaded_kb, b.stats[p].downloaded_kb) << "peer " << p;
    EXPECT_EQ(a.stats[p].pieces, b.stats[p].pieces) << "peer " << p;
    EXPECT_EQ(a.stats[p].completion_round, b.stats[p].completion_round) << "peer " << p;
  }
  EXPECT_EQ(a.strat.reciprocated_pairs, b.strat.reciprocated_pairs);
  EXPECT_EQ(a.strat.mean_normalized_offset, b.strat.mean_normalized_offset);
  EXPECT_EQ(a.strat.partner_rank_correlation, b.strat.partner_rank_correlation);
}

/// Runs Swarm and ReferenceSwarm from the same seed/config and demands
/// bitwise-identical observable state. Exercised on configs that hit
/// every fixed bug (departures, construction-complete leechers,
/// endgame budget redistribution) plus a stratification workload.
void expect_equivalent(const SwarmConfig& cfg, const std::vector<double>& bw,
                       std::uint64_t seed, std::size_t rounds) {
  graph::Rng rng_flat(seed);
  Swarm flat(cfg, bw, rng_flat);
  graph::Rng rng_ref(seed);
  ReferenceSwarm ref(cfg, bw, rng_ref);
  // Step in sync so a divergence is pinned to a round, not a run.
  const std::size_t stride = 5;
  for (std::size_t done = 0; done < rounds; done += stride) {
    const std::size_t step = std::min(stride, rounds - done);
    flat.run(step);
    ref.run(step);
    for (core::PeerId p = 0; p < flat.peer_count(); ++p) {
      ASSERT_EQ(flat.stats(p).uploaded_kb, ref.stats(p).uploaded_kb)
          << "peer " << p << " after " << flat.rounds_elapsed() << " rounds";
      ASSERT_EQ(flat.stats(p).downloaded_kb, ref.stats(p).downloaded_kb) << "peer " << p;
      ASSERT_EQ(flat.stats(p).pieces, ref.stats(p).pieces) << "peer " << p;
      ASSERT_EQ(flat.stats(p).completion_round, ref.stats(p).completion_round)
          << "peer " << p;
      ASSERT_EQ(flat.departed(p), ref.departed(p)) << "peer " << p;
    }
  }
  const auto availability_flat = flat.availability_stats();
  const auto availability_ref = ref.availability_stats();
  EXPECT_EQ(availability_flat.mean, availability_ref.mean);
  EXPECT_EQ(availability_flat.min, availability_ref.min);
  EXPECT_EQ(availability_flat.max, availability_ref.max);
  const auto strat_flat = flat.stratification();
  const auto strat_ref = ref.stratification();
  EXPECT_EQ(strat_flat.reciprocated_pairs, strat_ref.reciprocated_pairs);
  EXPECT_EQ(strat_flat.mean_normalized_offset, strat_ref.mean_normalized_offset);
  EXPECT_EQ(strat_flat.partner_rank_correlation, strat_ref.partner_rank_correlation);
  EXPECT_EQ(flat.completed_leechers(), ref.completed_leechers());
}

TEST(SwarmInvariants, FlatPlaneMatchesReferenceOnChurnyEndgame) {
  SwarmConfig cfg;
  cfg.num_peers = 40;
  cfg.seeds = 2;
  cfg.num_pieces = 16;
  cfg.piece_kb = 8.0;
  cfg.neighbor_degree = 10.0;
  cfg.initial_completion = 0.8;  // construction-complete leechers likely
  cfg.stay_as_seed = false;      // departures + availability decrements
  expect_equivalent(cfg, bandwidths(40, 800.0), 77, 120);
}

TEST(SwarmInvariants, FlatPlaneMatchesReferenceOnStratificationWorkload) {
  SwarmConfig cfg;
  cfg.num_peers = 80;
  cfg.seeds = 1;
  cfg.num_pieces = 256;
  cfg.piece_kb = 128.0;
  cfg.neighbor_degree = 20.0;
  cfg.initial_completion = 0.5;
  const BandwidthModel model = BandwidthModel::saroiu2002();
  expect_equivalent(cfg, model.representative_sample(80), 78, 40);
}

TEST(SwarmInvariants, FlatPlaneMatchesReferenceWithHeterogeneousSlots) {
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 1;
  cfg.num_pieces = 64;
  cfg.piece_kb = 32.0;
  cfg.neighbor_degree = 10.0;
  cfg.tft_slots_per_peer.resize(30);
  for (std::size_t p = 0; p < 30; ++p) cfg.tft_slots_per_peer[p] = 1 + p % 5;
  expect_equivalent(cfg, bandwidths(30), 79, 30);
}

TEST(SwarmInvariants, FlatPlaneMatchesReferenceWithEndgameDiscipline) {
  SwarmConfig cfg;
  cfg.num_peers = 40;
  cfg.seeds = 2;
  cfg.num_pieces = 32;  // small piece space: endgame phase is reached
  cfg.piece_kb = 16.0;
  cfg.neighbor_degree = 12.0;
  cfg.initial_completion = 0.7;
  cfg.endgame = true;
  expect_equivalent(cfg, bandwidths(40, 600.0), 80, 80);
}

/// Replays one churn schedule through both data planes and demands
/// bitwise-identical observable state after every round.
void expect_equivalent_churned(const SwarmConfig& cfg, const ChurnSpec& spec,
                               const std::vector<double>& bw, std::uint64_t seed,
                               std::size_t rounds) {
  graph::Rng rng_flat(seed);
  Swarm flat(cfg, bw, rng_flat);
  ChurnDriver<Swarm> churn_flat(spec, cfg, bw, rng_flat);
  churn_flat.attach(flat);
  graph::Rng rng_ref(seed);
  ReferenceSwarm ref(cfg, bw, rng_ref);
  ChurnDriver<ReferenceSwarm> churn_ref(spec, cfg, bw, rng_ref);
  churn_ref.attach(ref);
  for (std::size_t r = 0; r < rounds; ++r) {
    churn_flat.before_round(flat);
    churn_ref.before_round(ref);
    flat.run_round();
    ref.run_round();
    ASSERT_EQ(flat.peer_count(), ref.peer_count()) << "round " << r;
    ASSERT_EQ(flat.arrivals(), ref.arrivals()) << "round " << r;
    ASSERT_EQ(flat.departures(), ref.departures()) << "round " << r;
    ASSERT_EQ(flat.live_peer_count(), ref.live_peer_count()) << "round " << r;
    for (core::PeerId p = 0; p < flat.peer_count(); ++p) {
      ASSERT_EQ(flat.stats(p).uploaded_kb, ref.stats(p).uploaded_kb)
          << "peer " << p << " round " << r;
      ASSERT_EQ(flat.stats(p).downloaded_kb, ref.stats(p).downloaded_kb)
          << "peer " << p << " round " << r;
      ASSERT_EQ(flat.stats(p).pieces, ref.stats(p).pieces) << "peer " << p << " round " << r;
      ASSERT_EQ(flat.stats(p).completion_round, ref.stats(p).completion_round)
          << "peer " << p << " round " << r;
      ASSERT_EQ(flat.stats(p).join_round, ref.stats(p).join_round) << "peer " << p;
      ASSERT_EQ(flat.stats(p).leave_round, ref.stats(p).leave_round) << "peer " << p;
      ASSERT_EQ(flat.departed(p), ref.departed(p)) << "peer " << p << " round " << r;
      ASSERT_EQ(flat.degree(p), ref.degree(p)) << "peer " << p << " round " << r;
    }
  }
  const auto availability_flat = flat.availability_stats();
  const auto availability_ref = ref.availability_stats();
  EXPECT_EQ(availability_flat.mean, availability_ref.mean);
  EXPECT_EQ(availability_flat.min, availability_ref.min);
  EXPECT_EQ(availability_flat.max, availability_ref.max);
  const auto strat_flat = flat.stratification();
  const auto strat_ref = ref.stratification();
  EXPECT_EQ(strat_flat.reciprocated_pairs, strat_ref.reciprocated_pairs);
  EXPECT_EQ(strat_flat.mean_normalized_offset, strat_ref.mean_normalized_offset);
  EXPECT_EQ(strat_flat.partner_rank_correlation, strat_ref.partner_rank_correlation);
  EXPECT_EQ(flat.completed_leechers(), ref.completed_leechers());
}

TEST(SwarmInvariants, FlatPlaneMatchesReferenceUnderReplacementChurn) {
  SwarmConfig cfg;
  cfg.num_peers = 60;
  cfg.seeds = 2;
  cfg.num_pieces = 64;
  cfg.piece_kb = 64.0;
  cfg.neighbor_degree = 14.0;
  cfg.initial_completion = 0.5;
  ChurnSpec spec;
  spec.replacement_rate = 1.5;  // the paper's x/1000 regime, x = 25
  spec.arrival_completion = 0.3;
  expect_equivalent_churned(cfg, spec, bandwidths(60), 81, 60);
}

TEST(SwarmInvariants, FlatPlaneMatchesReferenceUnderArrivalsLifetimesReannounce) {
  SwarmConfig cfg;
  cfg.num_peers = 50;
  cfg.seeds = 2;
  cfg.num_pieces = 48;
  cfg.piece_kb = 32.0;
  cfg.neighbor_degree = 12.0;
  cfg.initial_completion = 0.4;
  cfg.stay_as_seed = false;  // completion departures interleave with churn
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 1.2;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 30.0;
  spec.reannounce_interval = 5;
  expect_equivalent_churned(cfg, spec, bandwidths(50, 700.0), 82, 70);
}

TEST(SwarmInvariants, FlatPlaneMatchesReferenceUnderFlashCrowdWithEndgame) {
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 2;
  cfg.num_pieces = 32;
  cfg.piece_kb = 24.0;
  cfg.neighbor_degree = 10.0;
  cfg.post_flashcrowd = false;  // arrivals and initial peers all start empty
  cfg.endgame = true;
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kFlashCrowd;
  spec.flash_crowd_size = 25;
  spec.flash_crowd_round = 8;
  spec.lifetime = ChurnSpec::Lifetime::kFixed;
  spec.lifetime_rounds = 40.0;
  spec.reannounce_interval = 6;
  expect_equivalent_churned(cfg, spec, bandwidths(30, 900.0), 83, 60);
}

TEST(SwarmInvariants, FlatPlaneMatchesReferenceWithModelSampledArrivals) {
  // Arrival capacities drawn from the empirical bandwidth CDF: the
  // inverse-CDF sampling consumes swarm RNG, so this pins the two
  // planes' draw sequences through the model path too.
  SwarmConfig cfg;
  cfg.num_peers = 50;
  cfg.seeds = 2;
  cfg.num_pieces = 48;
  cfg.piece_kb = 32.0;
  cfg.neighbor_degree = 12.0;
  cfg.initial_completion = 0.5;
  ChurnSpec spec;
  spec.replacement_rate = 2.0;
  spec.arrival_completion = 0.4;
  spec.arrival_model = BandwidthModel::saroiu2002();
  expect_equivalent_churned(cfg, spec, bandwidths(50), 85, 50);
}

TEST(SwarmInvariants, ChurnedRunConservesAndLeaksNoSlots) {
  graph::Rng rng(84);
  SwarmConfig cfg;
  cfg.num_peers = 50;
  cfg.seeds = 2;
  cfg.num_pieces = 48;
  cfg.piece_kb = 16.0;
  cfg.neighbor_degree = 12.0;
  cfg.initial_completion = 0.4;
  cfg.stay_as_seed = false;
  const std::vector<double> bw = bandwidths(50, 800.0);
  Swarm swarm(cfg, bw, rng);
  ChurnSpec spec;
  spec.replacement_rate = 1.0;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 0.8;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 25.0;
  spec.reannounce_interval = 4;
  ChurnDriver<Swarm> churn(spec, cfg, bw, rng);
  churn.attach(swarm);
  for (std::size_t r = 0; r < 80; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
    // Conservation: every KB uploaded was downloaded by someone.
    double uploaded = 0.0;
    double downloaded = 0.0;
    for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
      uploaded += swarm.stats(p).uploaded_kb;
      downloaded += swarm.stats(p).downloaded_kb;
    }
    ASSERT_NEAR(uploaded, downloaded, 1e-6) << "round " << r;
    // Availability counters == pieces held by live peers.
    std::size_t held = 0;
    for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
      if (!swarm.departed(p)) held += swarm.stats(p).pieces;
    }
    const double copies =
        swarm.availability_stats().mean * static_cast<double>(cfg.num_pieces);
    ASSERT_NEAR(copies, static_cast<double>(held), 1e-6) << "round " << r;
    // Slot pool: no slot leaked or double-booked — live + free ==
    // capacity, and live slots match the overlay degree sum.
    std::size_t degree_sum = 0;
    for (core::PeerId p = 0; p < swarm.peer_count(); ++p) degree_sum += swarm.degree(p);
    ASSERT_EQ(swarm.live_edge_slots(), degree_sum) << "round " << r;
    ASSERT_EQ(swarm.live_edge_slots() + swarm.free_edge_slots(), swarm.edge_slot_capacity())
        << "round " << r;
    // Adjacency rows never name departed peers.
    for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
      for (const core::PeerId q : swarm.neighbors(p)) {
        ASSERT_FALSE(swarm.departed(q)) << "round " << r << " edge " << p << "-" << q;
      }
    }
  }
  EXPECT_GT(swarm.arrivals(), 0u);
  EXPECT_GT(swarm.departures(), 0u);
}

}  // namespace
}  // namespace strat::bt
