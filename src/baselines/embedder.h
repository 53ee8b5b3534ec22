// Common interface for the competing private embedding methods of the
// paper's evaluation (DPGGAN, DPGVAE [2], GAP [6], ProGAP [7]).
//
// Each baseline is re-implemented from scratch on the src/nn substrate in a
// reduced but behaviour-preserving form; each baseline's header
// (dpggan.h, dpgvae.h, gap.h) documents what is preserved (mechanism type,
// where noise enters, how the privacy budget splits) and what is simplified
// (width/depth/schedules).

#ifndef SEPRIVGEMB_BASELINES_EMBEDDER_H_
#define SEPRIVGEMB_BASELINES_EMBEDDER_H_

#include <memory>
#include <string>

#include "graph/graph.h"
#include "linalg/matrix.h"
#include "util/privacy_annotations.h"

namespace sepriv {

struct EmbedderOptions {
  size_t dim = 128;              // embedding dimension r
  double epsilon = 3.5;          // target privacy budget
  double delta = 1e-5;
  double noise_multiplier = 5.0; // σ for the DPSGD-style baselines
  double clip_threshold = 1.0;   // C for the DPSGD-style baselines
  size_t max_epochs = 200;
  size_t batch_size = 128;
  double learning_rate = 1e-2;
  uint64_t seed = 3;

  // GNN-specific knobs.
  size_t feature_dim = 32;  // random node features (paper §VI-A uses random
                            // features for GAP/ProGAP on featureless graphs)
  size_t hidden_dim = 64;
  int hops = 2;             // aggregation hops (GAP) / stages (ProGAP)
  size_t agg_epochs = 30;   // GAP: training iterations, each re-perturbing
  size_t degree_cap = 8;    // K: out-contribution bound of the degree-capped
                            // sum aggregation; node-level sensitivity = √K

  /// Disables noise and budget stopping (diagnostics only).
  bool non_private = false;
};

// Public sink: the baseline's published embedding.
struct SEPRIV_PUBLIC_SINK EmbedderResult {
  Matrix embedding;          // |V| x dim
  size_t epochs_run = 0;
  double spent_epsilon = 0.0;
  double noise_multiplier_used = 0.0;  // for calibrated baselines
};

class GraphEmbedder {
 public:
  virtual ~GraphEmbedder() = default;
  virtual std::string Name() const = 0;
  /// Sanitizer: every baseline's Embed is its accountant-gated DP pipeline
  /// (the non_private diagnostic mode is statically sanctioned, like the
  /// trainer's kNone strategy).
  SEPRIV_DP_SANITIZER
  virtual EmbedderResult Embed(const Graph& graph) = 0;
};

enum class BaselineKind { kDpgGan, kDpgVae, kGap, kProGap };

std::unique_ptr<GraphEmbedder> MakeBaseline(BaselineKind kind,
                                            const EmbedderOptions& opts);

std::string BaselineKindName(BaselineKind kind);

}  // namespace sepriv

#endif  // SEPRIVGEMB_BASELINES_EMBEDDER_H_
