// Upstream-capacity distribution (Figure 10).
//
// The paper feeds its BitTorrent efficiency model with the upstream
// bandwidth distribution Saroiu et al. measured on Gnutella (2002). The
// raw data is unavailable offline, so we model it as a mixture of
// log-normal components centered on the access technologies of that era
// (dial-up, ISDN, ADSL tiers, cable, T1/LAN). The mixture reproduces
// the published CDF's anatomy — support 10^1..10^5 kbps with plateaus
// at technology "density peaks" — which is what drives the shape of the
// Figure 11 efficiency curve (see DESIGN.md §5 on this substitution).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/rng.hpp"

namespace strat::bt {

/// One log-normal mixture component (log10 domain).
struct BandwidthComponent {
  double weight = 0.0;       // mixture weight (components must sum to 1)
  double median_kbps = 0.0;  // component median
  double log10_sigma = 0.1;  // spread in decades
  std::string label;         // e.g. "ADSL 384"
};

/// Mixture model over upstream capacities in kbps.
class BandwidthModel {
 public:
  /// Builds from components. Throws std::invalid_argument if weights do
  /// not sum to 1 (1e-9 tolerance), any weight/median/sigma is
  /// non-finite or non-positive, or the list is empty.
  explicit BandwidthModel(std::vector<BandwidthComponent> components);

  /// The 2002-era preset approximating Saroiu et al.'s Figure 10.
  [[nodiscard]] static BandwidthModel saroiu2002();

  [[nodiscard]] const std::vector<BandwidthComponent>& components() const noexcept {
    return components_;
  }

  /// P(upstream <= kbps). 0 for kbps <= 0.
  [[nodiscard]] double cdf(double kbps) const;

  /// Probability density at kbps (w.r.t. linear kbps).
  [[nodiscard]] double pdf(double kbps) const;

  /// Inverse CDF by geometric bisection over [1e-3, 1e9] kbps; q in
  /// (0, 1). Throws std::invalid_argument outside that range. The result
  /// is the bisection's fixed point: the loop stops once the midpoint
  /// rounds onto an end of the bracket (at most ~58 steps), from where
  /// further steps could no longer move any bit of the answer.
  [[nodiscard]] double quantile(double q) const;

  /// One random draw.
  [[nodiscard]] double sample(graph::Rng& rng) const;

  /// Deterministic representative sample: quantiles at (i+0.5)/n,
  /// sorted descending (best peer first) — the ranking convention of
  /// the efficiency model. Values are nudged to be strictly distinct so
  /// they can serve as strict global-ranking scores. Each entry is
  /// bitwise what quantile() returns: consecutive q values walk the
  /// same top of the bisection tree, so the shared prefix of the
  /// previous path is replayed from its cached cdf() values instead of
  /// being re-evaluated.
  [[nodiscard]] std::vector<double> representative_sample(std::size_t n) const;

 private:
  /// One visited bisection step: the bracket it started from and cdf()
  /// at the bracket's geometric midpoint.
  struct BisectionStep {
    double lo = 0.0;
    double hi = 0.0;
    double cdf_mid = 0.0;
  };

  /// The quantile bisection shared by quantile() and
  /// representative_sample(). `path` holds the steps of the previous
  /// call by depth; a step whose bracket matches reuses its cdf(), and
  /// every evaluated step overwrites its depth.
  [[nodiscard]] double bisect(double q, std::vector<BisectionStep>& path) const;

  std::vector<BandwidthComponent> components_;
  std::vector<double> log10_median_;  // log10(median_kbps) per component
};

}  // namespace strat::bt
