#include "core/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/solver.hpp"
#include "graph/components.hpp"

namespace strat::core {

double ring_distance(double x, double y) {
  const double direct = std::abs(x - y);
  return std::min(direct, 1.0 - direct);
}

std::vector<WeightedEdge> latency_edges(const graph::Graph& acceptance,
                                        const std::vector<double>& coordinates) {
  if (coordinates.size() != acceptance.order()) {
    throw std::invalid_argument("latency_edges: one coordinate per peer required");
  }
  for (double c : coordinates) {
    if (!(0.0 <= c && c < 1.0)) throw std::invalid_argument("latency_edges: coordinate in [0,1)");
  }
  std::vector<WeightedEdge> edges;
  edges.reserve(acceptance.size());
  for (graph::Vertex u = 0; u < acceptance.order(); ++u) {
    for (graph::Vertex v : acceptance.neighbors(u)) {
      if (v <= u) continue;
      WeightedEdge e;
      e.a = u;
      e.b = v;
      // Deterministic per-pair jitter keeps weights strictly distinct
      // even for symmetric coordinate layouts.
      const double jitter =
          1e-12 * static_cast<double>((static_cast<std::uint64_t>(u) << 20) ^ v);
      e.weight = -(ring_distance(coordinates[u], coordinates[v]) + jitter);
      edges.push_back(e);
    }
  }
  return edges;
}

HybridOverlay build_hybrid_overlay(const graph::Graph& acceptance, const GlobalRanking& ranking,
                                   const std::vector<double>& coordinates,
                                   const HybridConfig& config) {
  const std::size_t n = acceptance.order();
  if (ranking.size() < n) throw std::invalid_argument("build_hybrid_overlay: ranking too small");
  const ExplicitAcceptance acc(acceptance, ranking);

  HybridOverlay overlay{
      stable_configuration(acc, ranking, std::vector<std::uint32_t>(n, config.rank_slots)),
      stable_symmetric_matching(latency_edges(acceptance, coordinates),
                                std::vector<std::uint32_t>(n, config.proximity_slots)),
      graph::Graph(n)};

  for (PeerId p = 0; p < n; ++p) {
    for (PeerId q : overlay.rank_matching.mates(p)) {
      if (q > p) overlay.combined.add_edge(p, q);
    }
    for (PeerId q : overlay.proximity_matching.mates(p)) {
      if (q > p && !overlay.combined.has_edge(p, q)) overlay.combined.add_edge(p, q);
    }
  }
  overlay.combined.finalize();
  return overlay;
}

std::size_t largest_component_diameter(const graph::Graph& g) {
  if (g.size() == 0) return std::numeric_limits<std::size_t>::max();
  const graph::Components comps = graph::connected_components(g);
  // Identify the largest component's label.
  std::uint32_t best_label = 0;
  for (std::uint32_t c = 0; c < comps.count(); ++c) {
    if (comps.size[c] > comps.size[best_label]) best_label = c;
  }
  // Run BFS from every member; track the eccentricity maximum.
  std::size_t diameter = 0;
  for (graph::Vertex u = 0; u < g.order(); ++u) {
    if (comps.label[u] != best_label) continue;
    const auto dist = graph::bfs_distances(g, u);
    for (graph::Vertex v = 0; v < g.order(); ++v) {
      if (comps.label[v] == best_label && dist[v] != std::numeric_limits<std::size_t>::max()) {
        diameter = std::max(diameter, dist[v]);
      }
    }
  }
  return diameter;
}

}  // namespace strat::core
