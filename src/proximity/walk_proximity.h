// High-order proximity providers: Katz, personalized PageRank, and the
// DeepWalk walk-matrix proximity (exact and Monte-Carlo sampled).
//
// All four are row oracles over the CSR graph: the first At(i, ·) for a new
// source i runs a sparse push (or walk sample) from i into provider-owned
// scratch, and every further query for the same source is answered from that
// state, so querying pairs grouped by source (the edge-list order of the
// proximity engine) costs one push per distinct source. The push scratch is
// sized |V| once per provider (clone) and reset sparsely, so a row costs
// what it touches, not O(|V|).
//
// Cost per distinct source, where pushing h hops costs Σ_{l<h} Σ_{k∈F_l} deg k
// and F_l is the set of nodes with a nonzero l-hop value:
//   Katz             push L−1 hops, plus Σ deg j over the queried targets j
//                    (the last hop is pulled per target, see KatzProximity);
//   PPR              push `iterations` hops, whole row materialised;
//   DeepWalk         push T hops, whole row materialised;
//   sampled DeepWalk R·T walk steps.

#ifndef SEPRIVGEMB_PROXIMITY_WALK_PROXIMITY_H_
#define SEPRIVGEMB_PROXIMITY_WALK_PROXIMITY_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "proximity/proximity.h"
#include "util/rng.h"

namespace sepriv {

/// Shared row-cache plumbing. Subclasses fill `row_` for a source node.
class RowCachedProximity : public ProximityProvider {
 public:
  explicit RowCachedProximity(const Graph& graph);
  double At(NodeId i, NodeId j) const override;

 protected:
  /// Fills row_[*] with the proximity row of `source`. row_ is zeroed on
  /// entry; implementations must record touched indices via Touch().
  virtual void ComputeRow(NodeId source) const = 0;

  void Touch(NodeId j) const { touched_.push_back(j); }

  /// Resets the push scratch to the unit vector at `source`: afterwards
  /// frontier_ = e_source and next_ is all zero.
  void StartPush(NodeId source) const;

  /// One push hop: frontier_ ← Σ_k mass(frontier_[k], deg k) · e_{N(k)} over
  /// the nonzero k with deg k > 0, in frontier_nz_ order. next_ is all zero
  /// again afterwards. Defined in walk_proximity.cc, beside its callers.
  template <typename PushMass>
  void PushHop(const PushMass& mass) const;

  const Graph& graph_;
  mutable std::vector<double> row_;

  /// The current hop's mass vector (sized |V| by the first StartPush),
  /// nonzero only at frontier_nz_.
  mutable std::vector<double> frontier_;
  mutable std::vector<NodeId> frontier_nz_;

 private:
  mutable std::vector<double> next_;  // the hop PushHop is building
  mutable std::vector<NodeId> next_nz_;
  mutable std::vector<NodeId> touched_;
  mutable NodeId cached_source_ = 0;
  mutable bool has_cache_ = false;
};

/// Truncated Katz index: Σ_{l=1..L} β^l (A^l)_ij  [20].
///
/// Edge-targeted: a source i pushes walk counts only L−1 hops, keeping the
/// partial sum Σ_{l<L} β^l (A^l)_i· in row_ and the (L−1)-hop counts in
/// frontier_. At(i, j) pulls the last hop for the queried j alone:
///   At(i, j) = Σ_{l<L} β^l (A^l)_ij + β^L Σ_{k∈N(j)} (A^{L−1})_ik.
/// The identity holds for every pair, edges or not. The walk counts are
/// integers, exact in a double below 2^53, so the pull's summation order
/// cannot change a bit, and the per-hop accumulation keeps the dense
/// series' order: At() equals Σ_l β^l (A^l)_ij summed hop by hop, bit for
/// bit.
class KatzProximity : public RowCachedProximity {
 public:
  KatzProximity(const Graph& graph, int max_length, double beta);
  std::string Name() const override;
  double At(NodeId i, NodeId j) const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<KatzProximity>(graph_, max_length_, beta_);
  }

 protected:
  void ComputeRow(NodeId source) const override;

 private:
  int max_length_;
  double beta_;
  double beta_pow_max_;  // β^L, by the same repeated product as the series
};

/// Personalized PageRank from the source node, `iterations` power steps with
/// restart probability alpha [21].
class PersonalizedPageRankProximity : public RowCachedProximity {
 public:
  PersonalizedPageRankProximity(const Graph& graph, double alpha,
                                int iterations);
  std::string Name() const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<PersonalizedPageRankProximity>(graph_, alpha_,
                                                           iterations_);
  }

 protected:
  void ComputeRow(NodeId source) const override;

 private:
  double alpha_;
  int iterations_;
};

/// Exact DeepWalk proximity [22]: M = (1/T) Σ_{w=1..T} (D^{-1}A)^w, i.e. the
/// average visiting distribution of a T-step random walk. M_ij > 0 for every
/// edge (i,j) since (D^{-1}A)_ij = 1/d_i.
class DeepWalkProximity : public RowCachedProximity {
 public:
  DeepWalkProximity(const Graph& graph, int window);
  std::string Name() const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<DeepWalkProximity>(graph_, window_);
  }

 protected:
  void ComputeRow(NodeId source) const override;

 private:
  int window_;
};

/// Monte-Carlo estimate of DeepWalkProximity: R walks of length T from the
/// source; p̂_ij = visits(j) / (R·T). Unbiased; variance O(1/R). Used for
/// graphs where even row-exact computation is too slow.
class SampledDeepWalkProximity : public RowCachedProximity {
 public:
  SampledDeepWalkProximity(const Graph& graph, int window, int walks_per_node,
                           uint64_t seed);
  std::string Name() const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<SampledDeepWalkProximity>(graph_, window_,
                                                      walks_per_node_, seed_);
  }

 protected:
  void ComputeRow(NodeId source) const override;

 private:
  int window_;
  int walks_per_node_;
  uint64_t seed_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_PROXIMITY_WALK_PROXIMITY_H_
