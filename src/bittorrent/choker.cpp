#include "bittorrent/choker.hpp"

#include <algorithm>

namespace strat::bt {

TftChoker::TftChoker(std::size_t tft_slots, std::size_t optimistic_rounds)
    : tft_slots_(tft_slots), optimistic_rounds_(std::max<std::size_t>(1, optimistic_rounds)) {}

std::vector<core::PeerId> TftChoker::select(std::vector<ChokeCandidate> candidates,
                                            graph::Rng& rng) {
  std::vector<core::PeerId> unchoked;
  select_into(candidates, rng, unchoked);
  return unchoked;
}

void TftChoker::select_into(std::vector<ChokeCandidate>& candidates, graph::Rng& rng,
                            std::vector<core::PeerId>& out) {
  // Drop uninterested candidates in place (relative order preserved, so
  // the shuffle below sees the same sequence the copy-out version did).
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [](const ChokeCandidate& c) { return !c.interested; }),
                   candidates.end());
  // Random shuffle first so that sorting breaks score ties uniformly.
  rng.shuffle(candidates);
  // Stable insertion sort by descending score, in place: the strict `<`
  // never moves a candidate past an equal one, so ties keep their
  // shuffled order, as std::stable_sort would, without its temporary
  // buffer. A candidate list is one neighbourhood (tens of peers).
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const ChokeCandidate c = candidates[i];
    std::size_t j = i;
    for (; j > 0 && candidates[j - 1].score < c.score; --j) candidates[j] = candidates[j - 1];
    candidates[j] = c;
  }
  out.clear();
  const std::size_t regular = std::min(tft_slots_, candidates.size());
  out.reserve(regular + 1);
  for (std::size_t i = 0; i < regular; ++i) out.push_back(candidates[i].peer);

  // Optimistic slot: rotate periodically, or refresh if the current
  // target vanished from the candidate set or got a regular slot.
  const bool target_taken = std::find(out.begin(), out.end(), optimistic_) != out.end();
  const bool target_alive =
      std::any_of(candidates.begin() + static_cast<long>(regular), candidates.end(),
                  [&](const ChokeCandidate& c) { return c.peer == optimistic_; });
  ++rounds_since_rotation_;
  if (rounds_since_rotation_ >= optimistic_rounds_ || target_taken || !target_alive) {
    optimistic_ = core::kNoPeer;
    const std::size_t pool = candidates.size() - regular;
    if (pool > 0) {
      const std::size_t pick = regular + static_cast<std::size_t>(rng.below(pool));
      optimistic_ = candidates[pick].peer;
    }
    rounds_since_rotation_ = 0;
  }
  if (optimistic_ != core::kNoPeer) out.push_back(optimistic_);
}

}  // namespace strat::bt
