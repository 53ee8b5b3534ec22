#include "baselines/dpgvae.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dp/accountant.h"
#include "dp/clipping.h"
#include "linalg/kernels.h"
#include "nn/activations.h"
#include "nn/gcn.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/check.h"
#include "util/rng.h"

namespace sepriv {

EmbedderResult DpgVaeEmbedder::Embed(const Graph& graph) {
  const EmbedderOptions& o = opts_;
  const size_t n = graph.num_nodes();
  SEPRIV_CHECK(n >= 4 && graph.num_edges() >= 4, "graph too small for DPGVAE");
  Rng rng(o.seed);

  // Random node features (featureless-graph protocol of paper §VI-A).
  Matrix x(n, o.feature_dim);
  x.FillGaussian(rng, 0.0, 1.0);
  NormalizedAdjacency a_hat(graph, /*include_self_loops=*/true);
  const Matrix x_agg = a_hat.Multiply(x);  // constant w.r.t. parameters

  Linear enc1(o.feature_dim, o.hidden_dim, rng);
  ReluLayer relu;
  Linear enc_mu(o.hidden_dim, o.dim, rng);
  Linear enc_lv(o.hidden_dim, o.dim, rng);
  AdamState adam_e1w, adam_e1b, adam_muw, adam_mub, adam_lvw, adam_lvb;

  // Budget: one clipped+noised gradient query per epoch over an edge
  // minibatch (sampling rate B/|E|).
  const double q = std::min(
      1.0, static_cast<double>(o.batch_size) /
               static_cast<double>(graph.num_edges()));
  RdpAccountant acct(o.noise_multiplier, q);
  const size_t allowed =
      o.non_private ? o.max_epochs : acct.MaxSteps(o.epsilon, o.delta);

  EmbedderResult result;
  Matrix mu;  // kept for the final embedding

  const auto& edges = graph.Edges();
  for (size_t epoch = 0; epoch < o.max_epochs && epoch < allowed; ++epoch) {
    // Forward pass through the encoder.
    Matrix h_pre = enc1.Forward(x_agg);
    Matrix h = relu.Forward(h_pre);
    Matrix h_agg = a_hat.Multiply(h);
    mu = enc_mu.Forward(h_agg);
    Matrix logvar = enc_lv.Forward(h_agg);
    // Standard VAE stabilisation: clamp log-variance so the sampled latent
    // noise cannot explode (std <= 1).
    for (size_t i = 0; i < logvar.size(); ++i) {
      logvar.data()[i] = std::clamp(logvar.data()[i], -5.0, 0.0);
    }

    // Reparameterise z = μ + exp(0.5·logvar) ⊙ ξ.
    Matrix xi(n, o.dim);
    xi.FillGaussian(rng, 0.0, 1.0);
    Matrix z = mu;
    for (size_t i = 0; i < z.size(); ++i) {
      z.data()[i] += std::exp(0.5 * logvar.data()[i]) * xi.data()[i];
    }

    // Decoder minibatch: B positive edges + B random non-edges.
    struct Pair { NodeId u, v; double t; };
    std::vector<Pair> batch;
    batch.reserve(2 * o.batch_size);
    for (size_t b = 0; b < o.batch_size; ++b) {
      const Edge& e = edges[rng.UniformInt(edges.size())];
      batch.push_back({e.u, e.v, 1.0});
      NodeId u = static_cast<NodeId>(rng.UniformInt(n));
      NodeId v = static_cast<NodeId>(rng.UniformInt(n));
      for (int tries = 0; tries < 32 && (u == v || graph.HasEdge(u, v));
           ++tries) {
        u = static_cast<NodeId>(rng.UniformInt(n));
        v = static_cast<NodeId>(rng.UniformInt(n));
      }
      batch.push_back({u, v, 0.0});
    }

    // BCE on logits z_u·z_v; accumulate dL/dz sparsely.
    Matrix grad_z(n, o.dim);
    const double inv_batch = 1.0 / static_cast<double>(batch.size());
    for (const Pair& p : batch) {
      const double logit = z.RowDot(p.u, z, p.v);
      const double coeff = (kernels::Sigmoid(logit) - p.t) * inv_batch;
      kernels::Axpy(coeff, z.Row(p.v).data(), grad_z.Row(p.u).data(), o.dim);
      kernels::Axpy(coeff, z.Row(p.u).data(), grad_z.Row(p.v).data(), o.dim);
    }

    // KL regulariser.
    const KlResult kl = GaussianKl(mu, logvar, /*weight=*/1.0 / static_cast<double>(n));

    // Backprop: dz -> (dμ, dlogvar); add KL grads.
    Matrix grad_mu = grad_z;
    grad_mu.Axpy(1.0, kl.grad_mu);
    Matrix grad_lv(n, o.dim);
    for (size_t i = 0; i < grad_lv.size(); ++i) {
      grad_lv.data()[i] = grad_z.data()[i] * xi.data()[i] * 0.5 *
                          std::exp(0.5 * logvar.data()[i]);
    }
    grad_lv.Axpy(1.0, kl.grad_logvar);

    enc1.ZeroGrad();
    enc_mu.ZeroGrad();
    enc_lv.ZeroGrad();
    Matrix gh_agg = enc_mu.Backward(grad_mu);
    gh_agg.Axpy(1.0, enc_lv.Backward(grad_lv));
    Matrix gh = a_hat.Multiply(gh_agg);  // Â is symmetric: Âᵀ = Â
    Matrix gh_pre = relu.Backward(gh);
    enc1.Backward(gh_pre);

    if (!o.non_private) {
      // Batch-level clip + noise (simplified DPSGD; see dpgvae.h).
      double sq = enc1.GradSquaredNorm() + enc_mu.GradSquaredNorm() +
                  enc_lv.GradSquaredNorm();
      const double scale = ClipScale(std::sqrt(sq), o.clip_threshold);
      if (scale != 1.0) {
        enc1.ScaleGrads(scale);
        enc_mu.ScaleGrads(scale);
        enc_lv.ScaleGrads(scale);
      }
      const double stddev = o.clip_threshold * o.noise_multiplier * inv_batch;
      enc1.AddGradNoise(stddev, rng);
      enc_mu.AddGradNoise(stddev, rng);
      enc_lv.AddGradNoise(stddev, rng);
    }

    adam_e1w.Update(enc1.w(), enc1.grad_w(), o.learning_rate);
    adam_e1b.Update(enc1.b(), enc1.grad_b(), o.learning_rate);
    adam_muw.Update(enc_mu.w(), enc_mu.grad_w(), o.learning_rate);
    adam_mub.Update(enc_mu.b(), enc_mu.grad_b(), o.learning_rate);
    adam_lvw.Update(enc_lv.w(), enc_lv.grad_w(), o.learning_rate);
    adam_lvb.Update(enc_lv.b(), enc_lv.grad_b(), o.learning_rate);

    if (!o.non_private) acct.Step();
    ++result.epochs_run;
  }

  // Published embedding: the sampled VAE latent z = μ + exp(0.5·logvar)⊙ξ —
  // the generative representation the original model exposes. Under
  // KL-regularised, DP-noised training the posterior stays close to N(0, I),
  // which is precisely why the paper finds DPGGAN/DPGVAE embeddings weak.
  {
    Matrix h = relu.Forward(enc1.Forward(x_agg));
    Matrix h_agg = a_hat.Multiply(h);
    mu = enc_mu.Forward(h_agg);
    Matrix logvar = enc_lv.Forward(h_agg);
    Matrix z = mu;
    for (size_t i = 0; i < z.size(); ++i) {
      const double lv = std::clamp(logvar.data()[i], -5.0, 0.0);
      z.data()[i] += std::exp(0.5 * lv) * rng.Normal();
    }
    result.embedding = std::move(z);
  }
  result.spent_epsilon =
      o.non_private ? 0.0 : acct.GetEpsilon(o.delta).epsilon;
  result.noise_multiplier_used = o.noise_multiplier;
  return result;
}

}  // namespace sepriv
