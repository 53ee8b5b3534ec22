// Synthetic graph generators.
//
// These serve two purposes: (1) deterministic toy graphs for unit tests, and
// (2) calibrated stand-ins for the six real-world datasets of the paper's
// evaluation, which cannot be downloaded in this offline environment (see
// graph/datasets.h for the substitution table).

#ifndef SEPRIVGEMB_GRAPH_GENERATORS_H_
#define SEPRIVGEMB_GRAPH_GENERATORS_H_

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"

namespace sepriv {

/// G(n, m): exactly m distinct edges chosen uniformly among all pairs.
Graph ErdosRenyiGnm(size_t n, size_t m, uint64_t seed);

/// G(n, p): each pair independently an edge with probability p.
Graph ErdosRenyiGnp(size_t n, double p, uint64_t seed);

/// Barabási–Albert preferential attachment; each new node attaches m edges.
/// Produces a heavy-tailed degree distribution (social / biological nets).
Graph BarabasiAlbert(size_t n, size_t m, uint64_t seed);

/// Holme–Kim power-law cluster model: BA attachment where each subsequent
/// link closes a triangle with probability `triangle_p`. Heavy tail plus
/// high clustering (wiki / collaboration nets).
Graph PowerLawCluster(size_t n, size_t m, double triangle_p, uint64_t seed);

/// Watts–Strogatz ring lattice (k neighbours each side) with rewiring
/// probability p, plus `extra_edges` uniformly random chords. k_side >= 1.
/// Low degree, high diameter (power-grid-like).
Graph WattsStrogatz(size_t n, size_t k_side, double rewire_p,
                    size_t extra_edges, uint64_t seed);

/// Stochastic block model with `blocks` equal communities, within-community
/// edge probability p_in and cross-community probability p_out.
Graph StochasticBlockModel(size_t n, size_t blocks, double p_in, double p_out,
                           uint64_t seed);

// --- Deterministic toy graphs for tests -----------------------------------

/// Path 0-1-2-...-(n-1).
Graph PathGraph(size_t n);

/// Cycle on n nodes.
Graph CycleGraph(size_t n);

/// Complete graph K_n.
Graph CompleteGraph(size_t n);

/// Star with center 0 and n-1 leaves.
Graph StarGraph(size_t n);

/// Two K_{n/2} cliques joined by a single bridge edge.
Graph BarbellGraph(size_t n);

/// rows x cols 2-D grid (4-neighbourhood).
Graph GridGraph(size_t rows, size_t cols);

/// Karate-club-like fixed small graph (34 nodes) for smoke tests; this is
/// Zachary's karate club topology, a standard embedding test case.
Graph KarateClub();

}  // namespace sepriv

#endif  // SEPRIVGEMB_GRAPH_GENERATORS_H_
