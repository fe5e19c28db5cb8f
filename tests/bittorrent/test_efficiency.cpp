#include "bittorrent/efficiency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace strat::bt {
namespace {

EfficiencyOptions small_options() {
  EfficiencyOptions opt;
  opt.n = 400;
  opt.tft_slots = 3;
  opt.total_slots = 4;
  opt.mean_acceptable = 20.0;
  return opt;
}

TEST(EfficiencyCurve, Validation) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  EfficiencyOptions opt = small_options();
  opt.n = 1;
  EXPECT_THROW((void)expected_efficiency_curve(model, opt), std::invalid_argument);
  opt = small_options();
  opt.tft_slots = 0;
  EXPECT_THROW((void)expected_efficiency_curve(model, opt), std::invalid_argument);
  opt = small_options();
  opt.tft_slots = 5;
  EXPECT_THROW((void)expected_efficiency_curve(model, opt), std::invalid_argument);
  opt = small_options();
  opt.mean_acceptable = 1e9;
  EXPECT_THROW((void)expected_efficiency_curve(model, opt), std::invalid_argument);
  opt.mean_acceptable = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)expected_efficiency_curve(model, opt), std::invalid_argument);
}

TEST(EfficiencyCurve, ShapeMatchesFigure11) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  const auto curve = expected_efficiency_curve(model, small_options());
  ASSERT_EQ(curve.size(), 400u);

  // (a) Best peers suffer: the top peer's ratio is below 1.
  EXPECT_LT(curve.front().efficiency, 1.0);

  // (b) The worst peers enjoy high efficiency (they sometimes grab much
  // faster partners): last decile mean above 1.
  double tail = 0.0;
  for (std::size_t i = 360; i < 400; ++i) tail += curve[i].efficiency;
  EXPECT_GT(tail / 40.0, 1.0);

  // (c) Everything stays near Figure 11's plotted band (0.4 .. 2.4; our
  // synthetic mixture has a slightly wider top tail, see README,
  // "Model notes").
  for (const auto& pt : curve) {
    EXPECT_GT(pt.efficiency, 0.25) << "rank " << pt.rank;
    EXPECT_LT(pt.efficiency, 3.0) << "rank " << pt.rank;
  }
}

TEST(EfficiencyCurve, DensityPeakPeersSitNearRatioOne) {
  // §6: peers inside a bandwidth density peak mostly exchange with
  // equals, so their ratio is close to 1. The 128 kbps ISDN peak is the
  // heaviest component.
  const BandwidthModel model = BandwidthModel::saroiu2002();
  const auto curve = expected_efficiency_curve(model, small_options());
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& pt : curve) {
    if (pt.upload_kbps > 115.0 && pt.upload_kbps < 142.0) {
      sum += pt.efficiency;
      ++count;
    }
  }
  ASSERT_GT(count, 10u);
  EXPECT_NEAR(sum / static_cast<double>(count), 1.0, 0.25);
}

TEST(EfficiencyCurve, PerSlotBandwidthIsUploadOverTotalSlots) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  const auto curve = expected_efficiency_curve(model, small_options());
  for (const auto& pt : curve) {
    EXPECT_NEAR(pt.per_slot_kbps, pt.upload_kbps / 4.0, 1e-9);
  }
}

TEST(EfficiencyCurve, MatchProbabilityHighInBulk) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  const auto curve = expected_efficiency_curve(model, small_options());
  // Middle peers almost surely hold at least their first TFT mate.
  EXPECT_GT(curve[200].match_probability, 0.9);
}

TEST(EfficiencyCurve, RanksAreOrderedByBandwidth) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  const auto curve = expected_efficiency_curve(model, small_options());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i].upload_kbps, curve[i - 1].upload_kbps);
    EXPECT_EQ(curve[i].rank, i);
  }
}

TEST(SlotStrategy, Validation) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  graph::Rng rng(1);
  SlotStrategyOptions opt;
  opt.n = 2;
  EXPECT_THROW((void)slot_strategy_sweep(model, opt, rng), std::invalid_argument);
  opt = SlotStrategyOptions{};
  opt.default_total_slots = 1;
  EXPECT_THROW((void)slot_strategy_sweep(model, opt, rng), std::invalid_argument);
  opt = SlotStrategyOptions{};
  opt.max_tft_slots = 0;
  EXPECT_THROW((void)slot_strategy_sweep(model, opt, rng), std::invalid_argument);
}

TEST(SlotStrategy, SweepCoversRequestedRange) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  graph::Rng rng(2);
  SlotStrategyOptions opt;
  opt.n = 150;
  opt.realizations = 10;
  opt.max_tft_slots = 5;
  const auto sweep = slot_strategy_sweep(model, opt, rng);
  ASSERT_EQ(sweep.size(), 5u);
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    EXPECT_EQ(sweep[k].tft_slots, k + 1);
    EXPECT_NEAR(sweep[k].per_slot_kbps,
                opt.deviator_upload_kbps / static_cast<double>(k + 2),
                opt.deviator_upload_kbps * 1e-6);
    EXPECT_LE(sweep[k].mean_mates, static_cast<double>(k + 1) + 1e-9);
  }
}

TEST(SlotStrategy, NashPressureTowardFewSlots) {
  // §6: cutting connections raises per-slot bandwidth and hence the
  // quality of TFT partners — a rational peer drifts toward one slot.
  const BandwidthModel model = BandwidthModel::saroiu2002();
  graph::Rng rng(3);
  SlotStrategyOptions opt;
  opt.n = 300;
  opt.realizations = 40;
  opt.max_tft_slots = 6;
  opt.deviator_upload_kbps = 400.0;
  const auto sweep = slot_strategy_sweep(model, opt, rng);
  // Efficiency at 1 TFT slot beats efficiency at 6 TFT slots.
  EXPECT_GT(sweep.front().efficiency, sweep.back().efficiency);
}

}  // namespace
}  // namespace strat::bt
