#include "bittorrent/efficiency.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/independent_bmatching.hpp"
#include "core/acceptance.hpp"
#include "core/matching.hpp"
#include "core/ranking.hpp"
#include "core/solver.hpp"
#include "graph/erdos_renyi.hpp"

namespace strat::bt {

std::vector<EfficiencyPoint> expected_efficiency_curve(const BandwidthModel& model,
                                                       const EfficiencyOptions& options) {
  if (options.n < 2) throw std::invalid_argument("expected_efficiency_curve: n >= 2");
  if (options.tft_slots == 0 || options.total_slots == 0) {
    throw std::invalid_argument("expected_efficiency_curve: slot counts must be >= 1");
  }
  if (options.tft_slots > options.total_slots) {
    throw std::invalid_argument("expected_efficiency_curve: tft_slots > total_slots");
  }
  const double p = options.mean_acceptable / static_cast<double>(options.n - 1);
  if (!(0.0 < p && p <= 1.0)) {
    throw std::invalid_argument("expected_efficiency_curve: mean_acceptable out of range");
  }

  const std::vector<double> upload = model.representative_sample(options.n);
  std::vector<double> per_slot(options.n);
  for (std::size_t i = 0; i < options.n; ++i) {
    per_slot[i] = upload[i] / static_cast<double>(options.total_slots);
  }
  // upload is descending, so peer index == rank — the convention the
  // analysis module expects.
  analysis::BMatchingOptions bm;
  bm.n = options.n;
  bm.p = p;
  bm.b0 = options.tft_slots;
  bm.weights = per_slot;
  const analysis::BMatchingResult result = analysis::analyze_bmatching(bm);

  std::vector<EfficiencyPoint> curve(options.n);
  for (std::size_t i = 0; i < options.n; ++i) {
    EfficiencyPoint& pt = curve[i];
    pt.rank = i;
    pt.upload_kbps = upload[i];
    pt.per_slot_kbps = per_slot[i];
    pt.expected_download = result.expected_weight[i];
    // Share ratio = download / upload actually spent: an unmatched TFT
    // slot uploads nothing, so the denominator scales with the expected
    // number of matched slots (== b0 for bulk peers, < b0 at the very
    // bottom of the ranking — exactly the §6 remark that the lowest
    // peers combine high efficiency with a chance of not being matched).
    const double spent = per_slot[i] * result.expected_mates[i];
    pt.efficiency = spent > 0.0 ? pt.expected_download / spent : 0.0;
    pt.match_probability = result.mass(static_cast<core::PeerId>(i), 0);
  }
  return curve;
}

std::vector<SlotStrategyPoint> slot_strategy_sweep(const BandwidthModel& model,
                                                   const SlotStrategyOptions& options,
                                                   graph::Rng& rng) {
  if (options.n < 3) throw std::invalid_argument("slot_strategy_sweep: n >= 3");
  if (options.default_total_slots < 2) {
    throw std::invalid_argument("slot_strategy_sweep: default_total_slots >= 2");
  }
  if (options.max_tft_slots == 0) {
    throw std::invalid_argument("slot_strategy_sweep: max_tft_slots >= 1");
  }
  const std::size_t obedient = options.n - 1;
  const std::vector<double> upload = model.representative_sample(obedient);
  const auto default_tft = static_cast<std::uint32_t>(options.default_total_slots - 1);

  std::vector<SlotStrategyPoint> sweep;
  sweep.reserve(options.max_tft_slots);
  for (std::size_t k = 1; k <= options.max_tft_slots; ++k) {
    // The deviator splits its upload over k TFT slots plus the generous
    // one; obedient peers split theirs over the default total.
    const double deviator_per_slot =
        options.deviator_upload_kbps / static_cast<double>(k + 1);
    std::vector<double> scores(options.n);
    for (std::size_t i = 0; i < obedient; ++i) {
      scores[i] = upload[i] / static_cast<double>(options.default_total_slots);
    }
    scores[obedient] = deviator_per_slot;
    // Break exact collisions with the obedient grid.
    while (std::find(scores.begin(), scores.begin() + static_cast<long>(obedient),
                     scores[obedient]) != scores.begin() + static_cast<long>(obedient)) {
      scores[obedient] *= 1.0 + 1e-12;
    }
    const core::GlobalRanking ranking = core::GlobalRanking::from_scores(scores);
    std::vector<std::uint32_t> capacities(options.n, default_tft);
    const auto deviator = static_cast<core::PeerId>(obedient);
    capacities[deviator] = static_cast<std::uint32_t>(k);

    SlotStrategyPoint pt;
    pt.tft_slots = k;
    pt.per_slot_kbps = scores[obedient];
    for (std::size_t r = 0; r < options.realizations; ++r) {
      const graph::Graph g =
          graph::erdos_renyi_gnd(options.n, options.mean_acceptable, rng);
      const core::ExplicitAcceptance acc(g, ranking);
      const core::Matching m =
          core::stable_configuration(acc, ranking, std::vector<std::uint32_t>(capacities));
      double download = 0.0;
      for (core::PeerId mate : m.mates(deviator)) download += scores[mate];
      pt.mean_download += download;
      pt.mean_mates += static_cast<double>(m.degree(deviator));
    }
    const auto runs = static_cast<double>(options.realizations);
    pt.mean_download /= runs;
    pt.mean_mates /= runs;
    pt.efficiency = pt.mean_download / options.deviator_upload_kbps;
    sweep.push_back(pt);
  }
  return sweep;
}

}  // namespace strat::bt
