#include "core/batch_gradient_engine.h"

#include <algorithm>

#include "dp/clipping.h"
#include "embedding/sgns.h"
#include "linalg/kernels.h"
#include "util/check.h"

namespace sepriv {
namespace {

// Samples per work chunk in the gradient phase. Small enough to balance a
// B=128 batch over 8 workers, large enough to amortise chunk dispatch.
constexpr size_t kSampleGrain = 8;

// Rows per noise substream. Fixed (never derived from the thread count) so
// the noise a given row receives depends only on the master seed and the
// row's position, keeping output thread-count invariant.
constexpr size_t kNoiseBlockRows = 32;

// Touched rows per chunk in the apply phase.
constexpr size_t kApplyGrain = 64;

size_t NumBlocks(size_t n) {
  return (n + kNoiseBlockRows - 1) / kNoiseBlockRows;
}

}  // namespace

BatchGradientEngine::BatchGradientEngine(
    const BatchGradientEngineOptions& opts,
    std::span<const double> edge_weights)
    : opts_(opts),
      edge_weights_(edge_weights),
      pool_(std::max<size_t>(1, opts.num_threads)),
      grad_in_(opts.num_nodes, opts.dim),
      grad_out_(opts.num_nodes, opts.dim) {
  SEPRIV_CHECK(opts_.num_nodes > 0 && opts_.dim > 0,
               "engine needs a non-empty model shape");
}

void BatchGradientEngine::ResolveWeights(double pij, double& w_pos,
                                         double& w_neg) const {
  w_pos = pij;
  w_neg = pij;
  switch (opts_.negative_weighting) {
    case NegativeWeighting::kPaperPij:
      break;  // literal Eq. (5)
    case NegativeWeighting::kUnifiedMinP:
      w_neg = opts_.min_weight;
      break;
    case NegativeWeighting::kUnit:
      w_pos = w_neg = 1.0;
      break;
  }
}

double BatchGradientEngine::AccumulateBatch(const SkipGramModel& model,
                                            std::span<const Subgraph> subgraphs,
                                            std::span<const uint32_t> batch) {
  InMemorySampleSource source(subgraphs, edge_weights_);
  double loss = 0.0;
  SEPRIV_CHECK(TryAccumulateBatch(model, source, batch, &loss).ok(),
               "a resident sample source cannot fail to pin");
  return loss;
}

Status BatchGradientEngine::TryAccumulateBatch(const SkipGramModel& model,
                                               SampleSource& source,
                                               std::span<const uint32_t> batch,
                                               double* loss) {
  const size_t m = batch.size();
  if (m == 0) {
    *loss = 0.0;
    return OkStatus();
  }
  const size_t dim = opts_.dim;

  // Slot width: every sample gets room for the widest (k+1) in this batch.
  // NegativesCount is pin-free by contract, so sizing needs no shard I/O.
  size_t ctx_slot = 0;
  for (uint32_t idx : batch) {
    ctx_slot = std::max(ctx_slot, source.NegativesCount(idx) + 1);
  }
  ctx_slot_ = std::max(ctx_slot_, ctx_slot);
  if (center_grads_.size() < m * dim) center_grads_.resize(m * dim);
  if (context_grads_.size() < m * ctx_slot_ * dim) {
    context_grads_.resize(m * ctx_slot_ * dim);
  }
  if (context_nodes_.size() < m * ctx_slot_) {
    context_nodes_.resize(m * ctx_slot_);
  }
  if (context_counts_.size() < m) context_counts_.resize(m);
  if (losses_.size() < m) losses_.resize(m);
  if (centers_.size() < m) centers_.resize(m);

  // Visit order: identity for a single-shard source; shard-sorted (stable,
  // so within a shard the batch order is kept) when sharded. Only the ORDER
  // samples are computed in changes — every result lands in the sample's
  // original slot i, so phases 2–3 never see the permutation.
  order_.resize(m);
  for (size_t i = 0; i < m; ++i) order_[i] = static_cast<uint32_t>(i);
  if (source.num_shards() > 1) {
    std::stable_sort(order_.begin(), order_.end(),
                     [&](uint32_t a, uint32_t b) {
                       return source.ShardOf(batch[a]) <
                              source.ShardOf(batch[b]);
                     });
  }

  // Phase 1: per-sample gradients + clipping into private slots, one shard
  // group at a time. Safe to fan out because sample i only writes slot i;
  // the pin is held across the group's ParallelFor and the NEXT group's
  // shard is prefetched first, so the pool hides its read behind compute.
  const size_t slot = ctx_slot_;
  size_t pos = 0;
  while (pos < m) {
    const size_t shard = source.ShardOf(batch[order_[pos]]);
    size_t group_end = pos + 1;
    while (group_end < m &&
           source.ShardOf(batch[order_[group_end]]) == shard) {
      ++group_end;
    }
    // A pin failure (after the source's own bounded retries) aborts the
    // batch cleanly: only per-sample scratch has been written so far — the
    // shared accumulators are first touched in phase 2 — so the caller can
    // retry the whole batch or surface the error.
    SEPRIV_RETURN_IF_ERROR(source.TryPinShard(shard));
    if (group_end < m) {
      source.PrefetchShard(source.ShardOf(batch[order_[group_end]]));
    }
    pool_.ParallelFor(group_end - pos, kSampleGrain,
                      [&](size_t begin, size_t end) {
      for (size_t g = begin; g < end; ++g) {
        const size_t i = order_[pos + g];
        const SampleView v = source.Get(batch[i]);
        double w_pos, w_neg;
        ResolveWeights(v.weight, w_pos, w_neg);

        const size_t contexts = v.negatives.size() + 1;
        std::span<double> center(center_grads_.data() + i * dim, dim);
        std::span<NodeId> nodes(context_nodes_.data() + i * slot, contexts);
        std::span<double> rows(context_grads_.data() + i * slot * dim,
                               contexts * dim);
        losses_[i] = ComputeSgnsGradientInto(model, v.center, v.context,
                                             v.negatives, w_pos, w_neg,
                                             center, nodes, rows);
        context_counts_[i] = static_cast<uint32_t>(contexts);
        centers_[i] = v.center;

        if (opts_.clip_per_sample) {
          // Per-sample clipping, separately per parameter matrix: e∇_{v_i}
          // (center, Win) and the joint e∇_{v_j} block (contexts, Wout).
          // sepriv-privflow: allow(unaccounted-sanitizer): charged by the epoch driver — RunEpochs owns the RdpAccountant; the engine is mechanism plumbing below the accounting layer
          ClipL2InPlace(center, opts_.clip_threshold);
          ClipL2InPlace(rows, opts_.clip_threshold);
        }
      }
    });
    pos = group_end;
  }

  // Phase 2 (serial, cheap): loss in sample order and touched lists in
  // first-touch sample order — both independent of worker scheduling.
  double batch_loss = 0.0;
  for (size_t i = 0; i < m; ++i) {
    batch_loss += losses_[i];
    grad_in_.Touch(centers_[i]);
    const NodeId* nodes = context_nodes_.data() + i * slot;
    for (uint32_t k = 0; k < context_counts_[i]; ++k) {
      grad_out_.Touch(nodes[k]);
    }
  }

  // Phase 3: sample-order reduction, sharded by row ownership. Shard s adds
  // only rows with id ≡ s (mod shards), walking samples in order — so every
  // accumulator row receives its additions in exactly the serial order no
  // matter how many shards run.
  const size_t shards = pool_.num_threads();
  pool_.ParallelFor(shards, 1, [&](size_t begin, size_t end) {
    for (size_t shard = begin; shard < end; ++shard) {
      for (size_t i = 0; i < m; ++i) {
        const NodeId center = centers_[i];
        if (center % shards == shard) {
          kernels::Axpy(1.0, center_grads_.data() + i * dim,
                        grad_in_.matrix().Row(center).data(), dim);
        }
        const NodeId* nodes = context_nodes_.data() + i * slot;
        const double* rows = context_grads_.data() + i * slot * dim;
        for (uint32_t k = 0; k < context_counts_[i]; ++k) {
          const NodeId row = nodes[k];
          if (row % shards != shard) continue;
          kernels::Axpy(1.0, rows + static_cast<size_t>(k) * dim,
                        grad_out_.matrix().Row(row).data(), dim);
        }
      }
    }
  });

  *loss = batch_loss;
  return OkStatus();
}

void BatchGradientEngine::PerturbNonZero(double stddev, Rng& rng) {
  const Rng base = rng.Fork();  // one master draw per perturbation
  if (stddev == 0.0) return;
  // Runtime half of the privacy-flow contract: the accumulators now carry
  // DP noise, and ApplyUpdate forwards the sanitized bit into the model.
  grad_in_.matrix().MarkDpSanitized();
  grad_out_.matrix().MarkDpSanitized();
  const std::vector<uint32_t>& in_rows = grad_in_.touched();
  const std::vector<uint32_t>& out_rows = grad_out_.touched();
  const size_t in_blocks = NumBlocks(in_rows.size());
  const size_t out_blocks = NumBlocks(out_rows.size());
  const size_t dim = opts_.dim;

  // Block b < in_blocks perturbs grad_in rows [b·R, ...); the rest map to
  // grad_out. Each block's noise comes from substream Fork(b), so the noise
  // a given touched row receives is a function of (master seed, epoch,
  // position in the touched list) only.
  pool_.ParallelFor(in_blocks + out_blocks, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      Rng block_rng = base.Fork(b);
      const bool is_in = b < in_blocks;
      const std::vector<uint32_t>& rows = is_in ? in_rows : out_rows;
      Matrix& mat = is_in ? grad_in_.matrix() : grad_out_.matrix();
      const size_t block = is_in ? b : b - in_blocks;
      const size_t lo = block * kNoiseBlockRows;
      const size_t hi = std::min(rows.size(), lo + kNoiseBlockRows);
      for (size_t r = lo; r < hi; ++r) {
        // Block Gaussian fill: stream-identical to the scalar Normal() loop,
        // so per-block noise streams are unchanged.
        kernels::AccumulateGaussian(block_rng, mat.Row(rows[r]).data(), dim,
                                    stddev);
      }
    }
  });
}

void BatchGradientEngine::PerturbNaiveIntoModel(SkipGramModel& model,
                                                double learning_rate,
                                                double stddev, Rng& rng) {
  const Rng base = rng.Fork();
  if (stddev == 0.0) return;
  model.w_in.MarkDpSanitized();
  model.w_out.MarkDpSanitized();
  const size_t n = opts_.num_nodes;
  const size_t dim = opts_.dim;
  pool_.ParallelFor(NumBlocks(n), 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      Rng block_rng = base.Fork(b);
      const size_t lo = b * kNoiseBlockRows;
      const size_t hi = std::min(n, lo + kNoiseBlockRows);
      for (size_t v = lo; v < hi; ++v) {
        kernels::AccumulateGaussian(block_rng, model.w_in.Row(v).data(), dim,
                                    stddev, -learning_rate);
        kernels::AccumulateGaussian(block_rng, model.w_out.Row(v).data(), dim,
                                    stddev, -learning_rate);
      }
    }
  });
}

void BatchGradientEngine::ApplyUpdate(SkipGramModel& model,
                                      double learning_rate) {
  const size_t dim = opts_.dim;
  const auto apply = [&](const std::vector<uint32_t>& rows, Matrix& weights,
                         const Matrix& grads) {
    pool_.ParallelFor(rows.size(), kApplyGrain, [&](size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) {
        kernels::Axpy(-learning_rate, grads.Row(rows[r]).data(),
                      weights.Row(rows[r]).data(), dim);
      }
    });
  };
  apply(grad_in_.touched(), model.w_in, grad_in_.matrix());
  apply(grad_out_.touched(), model.w_out, grad_out_.matrix());
  // Forward the runtime taint bit: once PerturbNonZero has noised the
  // accumulators, the model rows they update are DP-sanitized output.
  if (grad_in_.matrix().dp_sanitized()) model.w_in.MarkDpSanitized();
  if (grad_out_.matrix().dp_sanitized()) model.w_out.MarkDpSanitized();
  grad_in_.Clear();
  grad_out_.Clear();
}

}  // namespace sepriv
