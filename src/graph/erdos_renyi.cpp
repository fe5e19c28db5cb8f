#include "graph/erdos_renyi.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace strat::graph {

Graph erdos_renyi_gnp(std::size_t n, double p, Rng& rng) {
  if (!(0.0 <= p && p <= 1.0)) throw std::invalid_argument("erdos_renyi_gnp: p out of [0,1]");
  Graph g(n);
  if (n < 2 || p == 0.0) return g;
  if (p >= 1.0) return complete_graph(n);
  // Geometric skip over the linearized strict upper triangle: visit edge
  // indices e_0 < e_1 < ... where gaps are Geometric(p). O(|E|) expected.
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = rng.skip_geometric(p);
  while (idx < total) {
    // Decode linear index -> (u, v) with u < v. Row u starts at offset
    // u*n - u*(u+3)/2... use the standard triangular decoding.
    // Find u = largest integer with u*(2n-u-1)/2 <= idx.
    // Solve quadratically then adjust (robust to rounding).
    const double nd = static_cast<double>(n);
    const double fi = static_cast<double>(idx);
    auto u = static_cast<std::uint64_t>(
        (2.0 * nd - 1.0 - std::sqrt((2.0 * nd - 1.0) * (2.0 * nd - 1.0) - 8.0 * fi)) / 2.0);
    auto row_start = [&](std::uint64_t r) { return r * (2 * n - r - 1) / 2; };
    while (u > 0 && row_start(u) > idx) --u;
    while (row_start(u + 1) <= idx) ++u;
    const std::uint64_t v = u + 1 + (idx - row_start(u));
    g.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
    idx += 1 + rng.skip_geometric(p);
  }
  g.finalize();
  return g;
}

Graph erdos_renyi_gnd(std::size_t n, double expected_degree, Rng& rng) {
  if (n < 2) {
    if (expected_degree != 0.0) {
      throw std::invalid_argument("erdos_renyi_gnd: need n >= 2 for a nonzero degree");
    }
    return Graph(n);
  }
  const double p = expected_degree / static_cast<double>(n - 1);
  if (!(0.0 <= p && p <= 1.0)) {
    throw std::invalid_argument("erdos_renyi_gnd: expected degree out of [0, n-1]");
  }
  return erdos_renyi_gnp(n, p, rng);
}

Graph complete_graph(std::size_t n) {
  Graph g(n);
  for (Vertex u = 0; u + 1 < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  g.finalize();
  return g;
}

Graph ring_lattice(std::size_t n, std::size_t k) {
  if (k == 0) throw std::invalid_argument("ring_lattice: k must be >= 1");
  if (n < 2 * k + 1) throw std::invalid_argument("ring_lattice: need n >= 2k+1");
  Graph g(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t off = 1; off <= k; ++off) {
      const std::size_t v = (u + off) % n;
      g.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
    }
  }
  g.finalize();
  return g;
}

Graph configuration_model(std::size_t n, std::size_t b, Rng& rng) {
  if (b >= n) throw std::invalid_argument("configuration_model: need b < n");
  std::vector<Vertex> stubs;
  stubs.reserve(n * b);
  for (Vertex u = 0; u < n; ++u) {
    for (std::size_t s = 0; s < b; ++s) stubs.push_back(u);
  }
  rng.shuffle(stubs);
  Graph g(n);
  // Pair consecutive stubs; reject loops and duplicates. Residual stubs
  // (typically O(b^2) of them) are simply dropped.
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const Vertex u = stubs[i];
    const Vertex v = stubs[i + 1];
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v);
  }
  g.finalize();
  return g;
}

}  // namespace strat::graph
