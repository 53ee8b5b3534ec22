#include "proximity/walk_proximity.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

// This file must stay compiled without -mfma (see src/CMakeLists.txt: only
// the simd TUs get ISA flags): a contracted `partial + β^L · c` rounds once
// instead of twice, and Katz would no longer match the dense series bit for
// bit.

namespace sepriv {
namespace {

/// Zeroes `v` at the indices in `nz` (all of `v` when that is most of it)
/// and empties `nz`.
void ZeroSparse(std::vector<double>& v, std::vector<NodeId>& nz) {
  if (nz.size() > v.size() / 4) {
    std::fill(v.begin(), v.end(), 0.0);
  } else {
    for (NodeId j : nz) v[j] = 0.0;
  }
  nz.clear();
}

/// `x` printed with `decimals` fixed decimals when that text parses back to
/// exactly `x` (the short, stable form existing names and cache keys use),
/// otherwise with %.17g, which always round-trips. Name() keys the
/// persistent cache, so two distinct parameter values may never print alike.
std::string ParamText(double x, int decimals) {
  char buf[512];  // %f of the largest double needs 309 integer digits
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, x);
  if (std::strtod(buf, nullptr) == x) return buf;
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

}  // namespace

RowCachedProximity::RowCachedProximity(const Graph& graph)
    : graph_(graph), row_(graph.num_nodes(), 0.0) {
  touched_.reserve(1024);
}

double RowCachedProximity::At(NodeId i, NodeId j) const {
  SEPRIV_CHECK(i < graph_.num_nodes() && j < graph_.num_nodes(),
               "node out of range: (%u,%u) vs |V|=%zu", i, j,
               graph_.num_nodes());
  if (!has_cache_ || cached_source_ != i) {
    ZeroSparse(row_, touched_);
    ComputeRow(i);
    cached_source_ = i;
    has_cache_ = true;
  }
  return row_[j];
}

void RowCachedProximity::StartPush(NodeId source) const {
  if (frontier_.empty()) {
    frontier_.assign(graph_.num_nodes(), 0.0);
    next_.assign(graph_.num_nodes(), 0.0);
  }
  ZeroSparse(frontier_, frontier_nz_);
  frontier_[source] = 1.0;
  frontier_nz_.push_back(source);
}

template <typename PushMass>
void RowCachedProximity::PushHop(const PushMass& mass) const {
  for (NodeId k : frontier_nz_) {
    const size_t deg = graph_.Degree(k);
    if (deg != 0) {
      const double push = mass(frontier_[k], deg);
      for (NodeId u : graph_.Neighbors(k)) {
        if (next_[u] == 0.0) next_nz_.push_back(u);
        next_[u] += push;
      }
    }
    frontier_[k] = 0.0;
  }
  frontier_.swap(next_);
  frontier_nz_.swap(next_nz_);
  next_nz_.clear();
}

// --- Katz -------------------------------------------------------------------

KatzProximity::KatzProximity(const Graph& graph, int max_length, double beta)
    : RowCachedProximity(graph), max_length_(max_length), beta_(beta) {
  SEPRIV_CHECK(max_length_ >= 1, "Katz needs max_length >= 1");
  SEPRIV_CHECK(beta_ > 0.0, "Katz needs beta > 0");
  beta_pow_max_ = 1.0;
  for (int l = 1; l <= max_length_; ++l) beta_pow_max_ *= beta_;
}

std::string KatzProximity::Name() const {
  return "katz(L=" + std::to_string(max_length_) +
         ",beta=" + ParamText(beta_, 3) + ")";
}

void KatzProximity::ComputeRow(NodeId source) const {
  // row_ ← Σ_{l<L} β^l (A^l)_source·, frontier_ ← (A^{L−1})_source·.
  StartPush(source);
  double beta_pow = 1.0;
  for (int l = 1; l < max_length_; ++l) {
    beta_pow *= beta_;
    PushHop([](double count, size_t) { return count; });
    for (NodeId u : frontier_nz_) {
      if (row_[u] == 0.0) Touch(u);
      row_[u] += beta_pow * frontier_[u];
    }
  }
}

double KatzProximity::At(NodeId i, NodeId j) const {
  const double partial = RowCachedProximity::At(i, j);
  double last_hop = 0.0;  // (A^L)_ij, an exact integer
  for (NodeId k : graph_.Neighbors(j)) last_hop += frontier_[k];
  return partial + beta_pow_max_ * last_hop;
}

// --- Personalized PageRank ---------------------------------------------------

PersonalizedPageRankProximity::PersonalizedPageRankProximity(const Graph& graph,
                                                             double alpha,
                                                             int iterations)
    : RowCachedProximity(graph), alpha_(alpha), iterations_(iterations) {
  SEPRIV_CHECK(alpha_ > 0.0 && alpha_ < 1.0, "PPR alpha must be in (0,1)");
  SEPRIV_CHECK(iterations_ >= 1, "PPR needs iterations >= 1");
}

std::string PersonalizedPageRankProximity::Name() const {
  return "ppr(alpha=" + ParamText(alpha_, 2) +
         ",iters=" + std::to_string(iterations_) + ")";
}

void PersonalizedPageRankProximity::ComputeRow(NodeId source) const {
  StartPush(source);
  for (int it = 0; it < iterations_; ++it) {
    PushHop([this](double r, size_t deg) {
      return (1.0 - alpha_) * r / static_cast<double>(deg);
    });
    if (frontier_[source] == 0.0) frontier_nz_.push_back(source);
    frontier_[source] += alpha_;
  }
  for (NodeId u : frontier_nz_) {
    if (frontier_[u] != 0.0) {
      row_[u] = frontier_[u];
      Touch(u);
    }
  }
}

// --- DeepWalk (exact) --------------------------------------------------------

DeepWalkProximity::DeepWalkProximity(const Graph& graph, int window)
    : RowCachedProximity(graph), window_(window) {
  SEPRIV_CHECK(window_ >= 1, "DeepWalk proximity needs window >= 1");
}

std::string DeepWalkProximity::Name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "deepwalk(T=%d)", window_);
  return buf;
}

void DeepWalkProximity::ComputeRow(NodeId source) const {
  StartPush(source);
  const double inv_t = 1.0 / static_cast<double>(window_);
  for (int w = 1; w <= window_; ++w) {
    PushHop([](double p, size_t deg) { return p / static_cast<double>(deg); });
    for (NodeId u : frontier_nz_) {
      if (row_[u] == 0.0) Touch(u);
      row_[u] += inv_t * frontier_[u];
    }
  }
}

// --- DeepWalk (sampled) ------------------------------------------------------

SampledDeepWalkProximity::SampledDeepWalkProximity(const Graph& graph,
                                                   int window,
                                                   int walks_per_node,
                                                   uint64_t seed)
    : RowCachedProximity(graph),
      window_(window),
      walks_per_node_(walks_per_node),
      seed_(seed) {
  SEPRIV_CHECK(window_ >= 1, "sampled DeepWalk needs window >= 1");
  SEPRIV_CHECK(walks_per_node_ >= 1, "sampled DeepWalk needs walks >= 1");
}

std::string SampledDeepWalkProximity::Name() const {
  // The seed changes At() (it keys the walk substreams), so it must appear
  // in the name: Name() is part of the persistent-cache key, and two
  // directly constructed providers differing only in seed may not alias.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "deepwalk_sampled(T=%d,R=%d,seed=%llu)",
                window_, walks_per_node_,
                static_cast<unsigned long long>(seed_));
  return buf;
}

void SampledDeepWalkProximity::ComputeRow(NodeId source) const {
  // Estimator: p̂_ij = (# visits of j at steps 1..T over R walks) / (R·T);
  // unbiased for (1/T) Σ_w (D^{-1}A)^w _ij.
  const double unit = 1.0 / (static_cast<double>(walks_per_node_) *
                             static_cast<double>(window_));
  // Keyed per-source substream (Rng::Fork(stream) discipline): the walk
  // stream depends only on (seed, source), never on query order or on which
  // worker computes the row, so At(i,j) is repeatable across calls AND the
  // parallel engine's sharded clones reproduce the serial output bit for bit.
  uint64_t row_seed = seed_ ^ (static_cast<uint64_t>(source) + 1) * 0x9e3779b97f4a7c15ULL;
  Rng rng(SplitMix64(row_seed));
  for (int r = 0; r < walks_per_node_; ++r) {
    NodeId cur = source;
    for (int step = 0; step < window_; ++step) {
      const auto nbrs = graph_.Neighbors(cur);
      if (nbrs.empty()) break;
      cur = nbrs[rng.UniformInt(nbrs.size())];
      if (row_[cur] == 0.0) Touch(cur);
      row_[cur] += unit;
    }
  }
}

}  // namespace sepriv
