#include "baselines/gap.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dp/calibration.h"
#include "dp/gaussian_mechanism.h"
#include "linalg/kernels.h"
#include "nn/gcn.h"
#include "util/check.h"
#include "util/rng.h"

namespace sepriv {
namespace {

/// GAP's degree-capped sum aggregation: every node pushes its (unit-norm)
/// row into at most K neighbouring sums, so removing one node changes the
/// aggregate by at most √K in L2 — the node-level sensitivity the Gaussian
/// noise must be scaled by. (This is the "large noise caused by high
/// sensitivity" effect the paper criticises in DP GNNs: the √K factor is
/// irreducible at node level even after row normalisation.)
Matrix CappedSumAggregate(const Graph& g, const Matrix& h, size_t cap) {
  Matrix out(h.rows(), h.cols());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto src = h.Row(u);
    const auto nbrs = g.Neighbors(u);
    const size_t fanout = std::min(cap, nbrs.size());
    for (size_t t = 0; t < fanout; ++t) {
      kernels::Axpy(1.0, src.data(), out.Row(nbrs[t]).data(), h.cols());
    }
  }
  return out;
}

/// One noisy aggregation hop: H' = rownorm( cappedsum(H) + N(0, (√K·σ)²) ).
/// Rows are unit-normalised BEFORE aggregation (bounding each node's
/// contribution to 1) and the noise std carries the √K sensitivity.
/// Sanitizer: the GAP noise-injection step; its caller (Embed) calibrates σ
/// through the accountant and charges one RDP step per hop.
SEPRIV_DP_SANITIZER
Matrix NoisyHop(const Graph& g, Matrix h, size_t cap, double sigma, Rng& rng) {
  RowNormalizeInPlace(h);
  Matrix next = CappedSumAggregate(g, h, cap);
  const double stddev = std::sqrt(static_cast<double>(cap)) * sigma;
  AddGaussianNoiseToAllRows(next, stddev, rng);
  return next;
}

/// Mean of hop matrices, projected (truncated/padded) to `dim` columns.
Matrix CombineHops(const std::vector<Matrix>& hops, size_t dim) {
  SEPRIV_CHECK(!hops.empty(), "no hops to combine");
  const size_t n = hops[0].rows();
  const size_t src_dim = hops[0].cols();
  Matrix mean(n, src_dim);
  for (const Matrix& h : hops) mean.Axpy(1.0 / static_cast<double>(hops.size()), h);
  if (src_dim == dim) return mean;
  Matrix out(n, dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      out(i, d) = d < src_dim ? mean(i, d) : 0.0;
    }
  }
  return out;
}

}  // namespace

EmbedderResult GapEmbedder::Embed(const Graph& graph) {
  const EmbedderOptions& o = opts_;
  const size_t n = graph.num_nodes();
  SEPRIV_CHECK(n >= 2, "graph too small for GAP");
  Rng rng(o.seed);

  // Random features, projected at the requested embedding width.
  Matrix x(n, o.dim);
  x.FillGaussian(rng, 0.0, 1.0);
  RowNormalizeInPlace(x);

  // Budget split: every training iteration re-perturbs all `hops`
  // aggregations (the compatibility flaw §VI-D describes), so the per-query
  // noise is calibrated for agg_epochs × hops Gaussian queries, doubled to
  // account for the DPSGD cost of the classification modules the original
  // system also trains.
  const size_t num_queries =
      2 * std::max<size_t>(1, o.agg_epochs) * static_cast<size_t>(o.hops);
  const double sigma =
      o.non_private
          ? 0.0
          : CalibrateNoiseMultiplier(o.epsilon, o.delta, num_queries);

  EmbedderResult result;
  std::vector<Matrix> hops;
  for (size_t epoch = 0; epoch < std::max<size_t>(1, o.agg_epochs); ++epoch) {
    hops.clear();
    hops.push_back(x);
    Matrix h = x;
    for (int l = 0; l < o.hops; ++l) {
      h = NoisyHop(graph, h, o.degree_cap, sigma, rng);
      hops.push_back(h);
    }
    ++result.epochs_run;
  }
  // The model consumes the final iteration's (noisy) aggregates.
  result.embedding = CombineHops(hops, o.dim);
  result.noise_multiplier_used = sigma;
  result.spent_epsilon = o.non_private ? 0.0 : o.epsilon;
  return result;
}

EmbedderResult ProGapEmbedder::Embed(const Graph& graph) {
  const EmbedderOptions& o = opts_;
  const size_t n = graph.num_nodes();
  SEPRIV_CHECK(n >= 2, "graph too small for ProGAP");
  Rng rng(o.seed);

  Matrix x(n, o.dim);
  x.FillGaussian(rng, 0.0, 1.0);
  RowNormalizeInPlace(x);

  // Progressive training: each stage perturbs its aggregation ONCE and
  // caches it, so only `hops` queries split the budget — doubled for the
  // per-stage module training cost.
  const auto num_queries = 2 * static_cast<size_t>(o.hops);
  const double sigma =
      o.non_private
          ? 0.0
          : CalibrateNoiseMultiplier(o.epsilon, o.delta, num_queries);

  EmbedderResult result;
  std::vector<Matrix> stages;
  stages.push_back(x);
  Matrix h = x;
  for (int s = 0; s < o.hops; ++s) {
    h = NoisyHop(graph, h, o.degree_cap, sigma, rng);
    stages.push_back(h);
    ++result.epochs_run;
  }
  result.embedding = CombineHops(stages, o.dim);
  result.noise_multiplier_used = sigma;
  result.spent_epsilon = o.non_private ? 0.0 : o.epsilon;
  return result;
}

}  // namespace sepriv
