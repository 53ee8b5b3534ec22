// Ablation (not a paper table): the §IV-B design choices.
//
//  1. Negative weighting — literal Eq. (5) (both terms × p_ij) vs the
//     idealized objective (13) weighting (negatives × min(P)) vs plain SGNS.
//  2. Positive sampling — uniform edges (Algorithm 2) vs proximity-weighted.
//  3. Negative support — Algorithm 1's non-neighbours-only vs all nodes
//     (the support Theorem 3 integrates over).
//
// Reported: StrucEqu and the correlation between learned edge scores and
// log p_ij (Theorem 3's preservation target), on the Chameleon stand-in.
// The (variant x repeat) cells run concurrently on the experiment runner
// with the legacy 1000 + 37·r seeds; numbers match the serial runs.

#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "runner/experiment_runner.h"
#include "util/stats.h"

using namespace sepriv;
using namespace sepriv::bench;

namespace {

struct Variant {
  const char* name;
  NegativeWeighting weighting;
  PositiveSampling sampling;
  bool exclude_neighbors;
  // Proximity-weighted positives draw WITH replacement, which Train() now
  // rejects under DP accounting (the subsampled-RDP sampling_rate assumes
  // uniform without-replacement batches) — that variant runs non-privately.
  PerturbationStrategy perturbation = PerturbationStrategy::kNonZero;
};

}  // namespace

int main() {
  const Profile profile = GetProfile();
  PrintBenchHeader("Ablation — §IV-B design choices",
                   "NegativeWeighting in core/config.h; no direct paper table",
                   profile);

  const Graph graph = MakeBenchGraph(DatasetId::kChameleon, profile);
  const EdgeProximity dw =
      BuildEdgeProximity(graph, ProximityKind::kDeepWalk, profile);
  // sepriv-privflow: allow(leak): public-by-policy: prints aggregate timing/utility metrics of synthetic benchmark graphs
  std::printf("dataset: %s\n\n", graph.Summary().c_str());

  const Variant variants[] = {
      {"paper(Eq.5)+uniform+nonadj", NegativeWeighting::kPaperPij,
       PositiveSampling::kUniformEdges, true},
      {"unified(minP)+uniform+nonadj", NegativeWeighting::kUnifiedMinP,
       PositiveSampling::kUniformEdges, true},
      {"unified(minP)+uniform+allV", NegativeWeighting::kUnifiedMinP,
       PositiveSampling::kUniformEdges, false},
      {"paper(Eq.5)+proxweighted*", NegativeWeighting::kPaperPij,
       PositiveSampling::kProximityWeighted, true,
       PerturbationStrategy::kNone},
      {"plain-sgns(no preference)", NegativeWeighting::kUnit,
       PositiveSampling::kUniformEdges, true},
  };

  const auto repeats = static_cast<size_t>(profile.repeats);
  const size_t n_cells = std::size(variants) * repeats;
  std::vector<std::array<double, 2>> cell_vals(n_cells);  // {StrucEqu, corr}
  runner::RunGrid(
      n_cells, /*base_seed=*/0,
      [&](size_t i, const runner::CellContext& ctx) {
        const Variant& v = variants[i / repeats];
        const auto r = static_cast<uint64_t>(i % repeats);
        SePrivGEmbConfig cfg = DefaultConfig(profile);
        cfg.epsilon = 3.5;
        cfg.seed = 1000 + 37 * r;
        cfg.num_threads = ctx.inner_threads;
        cfg.negative_weighting = v.weighting;
        cfg.positive_sampling = v.sampling;
        cfg.negatives_exclude_neighbors = v.exclude_neighbors;
        cfg.perturbation = v.perturbation;
        SePrivGEmb trainer(graph, dw, cfg);  // borrowed proximity table
        const TrainResult res = trainer.Train();
        cell_vals[i][0] = StrucEquOf(graph, res.model.w_in, profile);

        std::vector<double> learned, theory;
        for (size_t e = 0; e < graph.num_edges(); ++e) {
          const Edge& ed = graph.Edges()[e];
          learned.push_back(0.5 * (res.model.Score(ed.u, ed.v) +
                                   res.model.Score(ed.v, ed.u)));
          theory.push_back(std::log(trainer.edge_weights()[e]));
        }
        cell_vals[i][1] = PearsonCorrelation(learned, theory);
      });

  std::printf("%-30s %-18s %-18s\n", "variant", "StrucEqu",
              "corr(x_ij,log p)");
  for (size_t vi = 0; vi < std::size(variants); ++vi) {
    std::vector<double> se_vals, corr_vals;
    for (size_t r = 0; r < repeats; ++r) {
      se_vals.push_back(cell_vals[vi * repeats + r][0]);
      corr_vals.push_back(cell_vals[vi * repeats + r][1]);
    }
    std::printf("%-30s %-18s %-18s\n", variants[vi].name,
                Cell(Summarize(se_vals)).c_str(),
                Cell(Summarize(corr_vals)).c_str());
  }
  std::printf(
      "* non-private: with-replacement proximity-weighted sampling is "
      "rejected under DP accounting\n\n");
  return 0;
}
