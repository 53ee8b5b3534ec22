#include "core/se_privgemb.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <utility>

#include "core/batch_gradient_engine.h"
#include "embedding/sample_store.h"
#include "embedding/subgraph_sampler.h"
#include "proximity/local_proximity.h"
#include "proximity/proximity_engine.h"
#include "util/alias_table.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace sepriv {
namespace {

/// Checkpoint wiring for one RunEpochs call. `options` null disables
/// checkpointing entirely; `resume` non-null restores the snapshot before
/// the first epoch (model, RNG stream, epoch cursor, loss curve, accountant
/// spend), making the continued run bit-identical to an uninterrupted one.
struct CheckpointPlan {
  const TrainCheckpointOptions* options = nullptr;
  uint64_t graph_fingerprint = 0;
  uint64_t config_digest = 0;
  const TrainCheckpoint* resume = nullptr;
};

/// Fills `plan` for a run with checkpointing enabled: loads a snapshot from
/// `options.path` if one exists and verifies it matches this (graph, config)
/// before arming the resume. A missing file is a fresh start (or an error
/// under `require_checkpoint`); an unreadable or mismatched one is always an
/// error — the file records privacy budget already spent, so discarding it
/// must be the caller's explicit decision (delete the file), never a silent
/// retrain.
Status ResolveCheckpointPlan(const TrainCheckpointOptions& options,
                             uint64_t graph_fingerprint,
                             uint64_t config_digest, bool require_checkpoint,
                             TrainCheckpoint* resume_ck,
                             CheckpointPlan* plan) {
  plan->options = &options;
  plan->graph_fingerprint = graph_fingerprint;
  plan->config_digest = config_digest;
  const Status load = LoadCheckpoint(options.path, resume_ck);
  if (load.ok()) {
    if (resume_ck->graph_fingerprint != graph_fingerprint) {
      return FailedPreconditionError(
          options.path + " was checkpointed from a different graph");
    }
    if (resume_ck->config_digest != config_digest) {
      return FailedPreconditionError(
          options.path + " was checkpointed under a different config");
    }
    plan->resume = resume_ck;
    return OkStatus();
  }
  if (load.code() == StatusCode::kNotFound && !require_checkpoint) {
    return OkStatus();  // no restart point: fresh run, checkpointing as we go
  }
  return load;
}

/// The epoch loop of Algorithm 2 (lines 4–10) over `source`, starting at the
/// Rng position RunAlgorithm2 leaves after the model init, so every
/// downstream draw — batch subsampling, noise substreams — and therefore
/// the model is the same for every storage.
/// Sanitizer: this is the accountant-gated perturbation loop itself.
/// Returns a structured error if a batch fails its bounded IO recovery or a
/// checkpoint cannot be durably published; the partially-trained model in
/// `result` is then stale and must not be released.
SEPRIV_DP_SANITIZER
Status RunEpochs(const SePrivGEmbConfig& cfg, size_t num_nodes,
                 double min_weight, SampleSource& source,
                 const AliasTable* positive_alias, Rng& rng,
                 const CheckpointPlan& plan, TrainResult& result) {
  SkipGramModel& model = result.model;
  const bool is_private = cfg.perturbation != PerturbationStrategy::kNone;
  const size_t population = source.size();

  const double sampling_rate =
      std::min(1.0, static_cast<double>(cfg.batch_size) /
                        static_cast<double>(population));

  // Privacy accountant (lines 8-10). MaxSteps gives the same stopping epoch
  // as the per-epoch δ̂ >= δ test, in closed form.
  std::unique_ptr<RdpAccountant> accountant;
  result.epochs_allowed = std::numeric_limits<size_t>::max();
  if (is_private) {
    accountant = std::make_unique<RdpAccountant>(
        cfg.noise_multiplier, sampling_rate, cfg.rdp_max_order);
    result.epochs_allowed = accountant->MaxSteps(cfg.epsilon, cfg.delta);
  }

  // The parallel batch-gradient engine does the per-sample work (gradients,
  // clipping, reduction, noise); this loop stays a thin orchestrator. The
  // engine's output is bit-identical for every thread count. Weights reach
  // it through the SampleView, so the engine-level table is empty.
  BatchGradientEngineOptions eopts;
  eopts.num_nodes = num_nodes;
  eopts.dim = cfg.dim;
  eopts.clip_per_sample = is_private;
  eopts.clip_threshold = cfg.clip_threshold;
  eopts.negative_weighting = cfg.negative_weighting;
  eopts.min_weight = min_weight;
  eopts.num_threads = cfg.ResolvedThreads();
  BatchGradientEngine engine(eopts, {});

  const double lr = cfg.learning_rate;
  const double c = cfg.clip_threshold;
  const double sigma = cfg.noise_multiplier;
  // Noise scale per strategy: non-zero perturbation uses per-sample
  // sensitivity C; the naive first cut uses the worst-case batch sensitivity
  // B·C stated in §III-B.
  //
  // Note on Eq. (9)'s 1/B prefactor: scaling the released noisy sum by a
  // public constant is post-processing, so privacy is identical whether the
  // learning rate multiplies the batch MEAN or the batch SUM. We apply η to
  // the sum — the convention of practical SGNS trainers — because averaging
  // would dilute each touched row's update by 1/B (a row is typically hit by
  // a single sample per batch) and make the paper's η ∈ {0.01..0.3} grid
  // meaninglessly small.
  const double nonzero_stddev = c * sigma;
  const double naive_stddev =
      static_cast<double>(cfg.batch_size) * c * sigma;

  // Resume: the caller re-ran the deterministic prelude (so `model` and
  // `rng` sit exactly where a fresh run's epoch 0 would find them), and the
  // snapshot now overwrites them with the state at the checkpointed epoch
  // boundary. Every remaining epoch is a pure function of (model, rng,
  // epoch index), so the continuation is bit-identical to the run that
  // wrote the checkpoint — including the restored accountant spend.
  size_t start_epoch = 0;
  if (plan.resume != nullptr) {
    const TrainCheckpoint& ck = *plan.resume;
    model.w_in = ck.w_in;
    model.w_out = ck.w_out;
    rng.RestoreState(ck.rng);
    start_epoch = ck.epochs_run;
    result.epochs_run = ck.epochs_run;
    result.loss_curve = ck.loss_curve;
    if (accountant) accountant->Step(ck.accountant_steps);
  }

  // Reduced-precision storage: keep the weights exactly
  // float32-representable at every epoch boundary. Rounding here covers both
  // the fresh init and a resumed snapshot; the in-loop rounding below runs
  // after each ApplyUpdate, BEFORE the checkpoint save, so a float payload
  // (checkpoint v2) is lossless and resume stays bit-identical. Rounding is
  // deterministic per element and, on noised weights, DP post-processing.
  const bool round_f32 = cfg.embedding_storage == EmbeddingStorage::kFloat32;
  if (round_f32) {
    model.w_in.RoundToFloat32();
    model.w_out.RoundToFloat32();
  }

  for (size_t epoch = start_epoch; epoch < cfg.max_epochs; ++epoch) {
    if (is_private && epoch >= result.epochs_allowed) {
      result.stopped_by_budget = true;
      break;
    }

    // Line 5: sample B subgraphs.
    std::vector<uint32_t> batch;
    if (positive_alias != nullptr) {
      batch.resize(std::min(cfg.batch_size, population));
      for (auto& idx : batch) idx = positive_alias->Sample(rng);
    } else {
      batch = SampleBatchIndices(population, cfg.batch_size, rng);
    }

    // Per-sample gradients + clipping (Eq. 7/8, Eq. 3), fanned out over the
    // pool, reduced in sample order. A shard-pin failure that survives the
    // storage layer's own bounded retries surfaces here with the
    // accumulators untouched.
    double batch_loss = 0.0;
    SEPRIV_RETURN_IF_ERROR(
        engine.TryAccumulateBatch(model, source, batch, &batch_loss));

    // Perturb (lines 6-7) and apply the update.
    switch (cfg.perturbation) {
      case PerturbationStrategy::kNone:
        break;
      case PerturbationStrategy::kNonZero:
        engine.PerturbNonZero(nonzero_stddev, rng);
        break;
      case PerturbationStrategy::kNaive:
        engine.PerturbNaiveIntoModel(model, lr, naive_stddev, rng);
        break;
    }
    engine.ApplyUpdate(model, lr);
    if (round_f32) {
      model.w_in.RoundToFloat32();
      model.w_out.RoundToFloat32();
    }

    if (is_private) accountant->Step();
    ++result.epochs_run;
    if (cfg.track_loss) {
      result.loss_curve.push_back(batch_loss /
                                  static_cast<double>(batch.size()));
    }

    // Checkpoint at the epoch boundary: the saved RNG state is the position
    // the NEXT epoch will read from, so a resumed run replays the stream
    // without a gap. SaveCheckpoint publishes atomically (temp + fsync +
    // rename), so a crash mid-save leaves the previous checkpoint intact.
    if (plan.options != nullptr && !plan.options->path.empty() &&
        result.epochs_run %
                std::max<size_t>(size_t{1}, plan.options->every_epochs) ==
            0) {
      TrainCheckpoint ck;
      ck.graph_fingerprint = plan.graph_fingerprint;
      ck.config_digest = plan.config_digest;
      ck.storage = cfg.embedding_storage;
      ck.epochs_run = result.epochs_run;
      ck.accountant_steps = accountant ? accountant->steps() : 0;
      ck.noise_multiplier = cfg.noise_multiplier;
      ck.sampling_rate = sampling_rate;
      ck.rng = rng.SaveState();
      ck.loss_curve = result.loss_curve;
      ck.w_in = model.w_in;
      ck.w_out = model.w_out;
      SEPRIV_RETURN_IF_ERROR(SaveCheckpoint(ck, plan.options->path));
    }
  }

  if (is_private && accountant->steps() > 0) {
    const DpBound bound = accountant->GetEpsilon(cfg.delta);
    result.spent_epsilon = bound.epsilon;
    result.best_rdp_order = bound.best_order;
    result.spent_delta = accountant->GetDelta(cfg.epsilon);
    // Debug-build end-to-end validation of the static privacy-flow model:
    // when epochs actually ran privately, the mechanism layer must have
    // marked the published matrices (PerturbNonZero → ApplyUpdate forward,
    // or PerturbNaiveIntoModel directly). A σ=0 config legitimately leaves
    // them unmarked — there is no noise to certify — so only assert when
    // noise was configured.
    if (result.epochs_run > 0 && cfg.noise_multiplier > 0.0 &&
        cfg.clip_threshold > 0.0) {
      SEPRIV_DCHECK_SANITIZED(result.model.w_in);
      SEPRIV_DCHECK_SANITIZED(result.model.w_out);
    }
  }

  // A completed run no longer needs its restart point. Best effort: the
  // file is fingerprint-guarded, so a stale leftover can at worst refuse a
  // later mismatched run, never corrupt one.
  if (plan.options != nullptr && plan.options->remove_on_success &&
      !plan.options->path.empty()) {
    std::remove(plan.options->path.c_str());
  }
  return OkStatus();
}

/// Algorithm 1's adjacency oracle for the out-of-core edge walk, one window
/// of the consumer shard's edges at a time. A sample's centre is one of its
/// edge's endpoints, so it is either in the consumer's pinned shard or the
/// edge's far endpoint v >= node_end, and LoadWindow lists those far
/// endpoints before any random draw is made. It pins each of their shards
/// once, in ascending order and one at a time beside the consumer's own pin
/// (the store's 2-page minimum), and copies their rows into a compact CSR
/// table. The table holds at most one shard page of NodeIds, and every row
/// fits, because each row lives inside its own shard's page; so resident
/// state is O(|V|) degrees and marks plus one table.
class WindowAdjacencyOracle final : public AdjacencyOracle {
 public:
  WindowAdjacencyOracle(GraphStore& store, const std::vector<size_t>& degree)
      : store_(store), degree_(degree), mark_(degree.size(), 0) {
    // In-memory stores have no page size; their largest shard bounds every
    // row the same way.
    capacity_ = store.manifest().page_size / sizeof(NodeId);
    for (const GraphShardInfo& info : store.manifest().shards) {
      capacity_ = std::max<size_t>(capacity_, info.adj_count);
    }
  }

  size_t num_nodes() const override { return degree_.size(); }

  bool HasEdge(NodeId u, NodeId x) const override {
    if (u < local_.node_end) return local_.HasEdge(u, x);
    const size_t i = static_cast<size_t>(
        std::lower_bound(ids_.begin(), ids_.end(), u) - ids_.begin());
    SEPRIV_DCHECK(i < ids_.size() && ids_[i] == u);
    return std::binary_search(rows_.begin() + row_offsets_[i],
                              rows_.begin() + row_offsets_[i + 1], x);
  }

  /// Makes `local` the consumer shard and loads the foreign rows of the
  /// longest prefix of `edges` (its canonical edges, in walk order) whose
  /// distinct far endpoints fit in the table; `*count` (>= 1 when `edges`
  /// is non-empty) is that prefix's length. A failed pin returns its error.
  Status LoadWindow(const ShardView& local, std::span<const Edge> edges,
                    size_t* count) {
    local_ = local;
    ++window_;
    ids_.clear();
    size_t entries = 0;
    size_t n = 0;
    for (; n < edges.size(); ++n) {
      const NodeId v = edges[n].v;
      if (v < local.node_end || mark_[v] == window_) continue;
      if (entries + degree_[v] > capacity_) break;
      mark_[v] = window_;
      entries += degree_[v];
      ids_.push_back(v);
    }
    *count = n;
    std::sort(ids_.begin(), ids_.end());
    rows_.clear();
    row_offsets_.assign(1, 0);
    const ShardManifest& manifest = store_.manifest();
    for (size_t i = 0; i < ids_.size();) {
      PinnedShard pin;
      SEPRIV_RETURN_IF_ERROR(
          store_.TryPin(manifest.ShardOfNode(ids_[i]), &pin));
      for (; i < ids_.size() && ids_[i] < pin->node_end; ++i) {
        const auto row = pin->Neighbors(ids_[i]);
        rows_.insert(rows_.end(), row.begin(), row.end());
        row_offsets_.push_back(rows_.size());
      }
    }
    return OkStatus();
  }

 private:
  GraphStore& store_;
  const std::vector<size_t>& degree_;
  std::vector<uint32_t> mark_;  // mark_[v] == window_: v is in this window
  uint32_t window_ = 0;         // < |E| windows, so it never wraps
  size_t capacity_ = 0;         // table entries: one shard page of NodeIds
  ShardView local_;
  std::vector<NodeId> ids_;          // the window's far endpoints, ascending
  std::vector<size_t> row_offsets_;  // CSR offsets of ids_'s rows in rows_
  std::vector<NodeId> rows_;
};

/// Pins every shard of `store` in order, prefetching the next one, and
/// hands each view to fn(s, view) -> Status. Stops at the first failure.
template <typename Fn>
Status ForEachShard(GraphStore& store, Fn&& fn) {
  const size_t num_shards = store.num_shards();
  for (size_t s = 0; s < num_shards; ++s) {
    if (s + 1 < num_shards) store.Prefetch(s + 1);
    PinnedShard pin;
    SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
    SEPRIV_RETURN_IF_ERROR(fn(s, pin.view()));
  }
  return OkStatus();
}

/// What the in-memory and out-of-core trainers do differently: where GS
/// lives and where p_ij comes from.
struct TrainStorage {
  size_t num_nodes = 0;
  size_t num_edges = 0;
  uint64_t graph_fingerprint = 0;  // keys checkpoints to this graph
  double min_weight = 0.0;         // min(P) of the evaluated preference
  /// The resident p_ij table, or null when p_ij streams from the per-shard
  /// cache (then proximity-weighted positive sampling is unavailable).
  const std::vector<double>* resident_weights = nullptr;
  /// Algorithm 1 (line 2) from `sampler_seed`: the source of GS that
  /// serves the epochs, valid until the front end returns.
  std::function<Status(uint64_t sampler_seed, SampleSource** samples)> sample;
};

/// Algorithm 2 over either storage: config validation, the checkpoint plan,
/// the Rng(seed) → sampler seed → model init draw order, and the
/// accountant-gated epochs. Both trainers are front ends over this one
/// body, so for the same graph and config their results are bit-identical.
/// `ckpt` null disables checkpointing; `require_checkpoint` turns a missing
/// checkpoint file into an error instead of a fresh start.
SEPRIV_DP_SANITIZER
Status RunAlgorithm2(const SePrivGEmbConfig& cfg, const TrainStorage& storage,
                     const TrainCheckpointOptions* ckpt,
                     bool require_checkpoint, TrainResult* out) {
  SEPRIV_CHECK(storage.num_edges > 0, "cannot train on an empty graph");
  SEPRIV_CHECK(cfg.dim >= 1 && cfg.batch_size >= 1, "bad dim/batch config");
  const bool weighted =
      cfg.positive_sampling == PositiveSampling::kProximityWeighted;
  // Proximity-weighted positive sampling draws edges WITH replacement from a
  // non-uniform distribution; the subsampled-RDP accountant assumes uniform
  // without-replacement batches (Definition 6), so combining the two would
  // under-report ε. Reject rather than silently publish an invalid privacy
  // claim.
  SEPRIV_CHECK(
      !(weighted && cfg.perturbation != PerturbationStrategy::kNone),
      "proximity-weighted positive sampling is incompatible with private "
      "training: the RDP accountant's sampling_rate assumes uniform "
      "without-replacement batches (use PerturbationStrategy::kNone)");
  SEPRIV_CHECK(!weighted || storage.resident_weights != nullptr,
               "proximity-weighted positive sampling needs the resident "
               "weight table; out-of-core training is uniform-only");

  CheckpointPlan plan;
  TrainCheckpoint resume_ck;
  if (ckpt != nullptr) {
    SEPRIV_RETURN_IF_ERROR(ResolveCheckpointPlan(
        *ckpt, storage.graph_fingerprint, cfg.Digest(), require_checkpoint,
        &resume_ck, &plan));
  }

  Rng rng(cfg.seed);
  TrainResult result;
  result.min_proximity = storage.min_weight;
  // Line 2 seeds Algorithm 1's own stream, line 3 initialises Win / Wout.
  const uint64_t sampler_seed = rng.Next();
  result.model = SkipGramModel(storage.num_nodes, cfg.dim, rng);
  SampleSource* samples = nullptr;
  SEPRIV_RETURN_IF_ERROR(storage.sample(sampler_seed, &samples));
  SEPRIV_CHECK(samples->size() == storage.num_edges,
               "Algorithm 1 must emit one sample per edge");

  // Optional proximity-weighted positive sampling (ablation mode).
  AliasTable positive_alias;
  if (weighted) positive_alias.Build(*storage.resident_weights);

  SEPRIV_RETURN_IF_ERROR(RunEpochs(
      cfg, storage.num_nodes, storage.min_weight, *samples,
      weighted ? &positive_alias : nullptr, rng, plan, result));
  *out = std::move(result);
  return OkStatus();
}

/// The structure preference p_ij on every edge (§II-D), on the sharded
/// proximity engine (cache-through when a cache directory is configured):
/// bit-identical to the serial ComputeEdgeProximities for every shard count,
/// thread count and cache state. proximity_shards 1 is the whole-graph case
/// (the shard planner clamps 0 to 1); larger values exercise the
/// out-of-core shard walk.
EdgeProximity ComputePreference(const Graph& graph, ProximityKind kind,
                                const SePrivGEmbConfig& config,
                                const ProximityOptions& prox_opts) {
  const auto provider = MakeProximity(kind, graph, prox_opts);
  InMemoryGraphStore store(graph, config.proximity_shards);
  ThreadPool pool(config.ResolvedThreads());
  return ShardedEdgeProximities(store, *provider, prox_opts, pool,
                                config.ResolvedProximityCachePath());
}

}  // namespace

SePrivGEmb::SePrivGEmb(const Graph& graph, ProximityKind preference,
                       const SePrivGEmbConfig& config,
                       const ProximityOptions& prox_opts)
    : SePrivGEmb(graph, ComputePreference(graph, preference, config, prox_opts),
                 config) {}

SePrivGEmb::SePrivGEmb(const Graph& graph, EdgeProximity&& preference,
                       const SePrivGEmbConfig& config)
    : graph_(graph), config_(config) {
  SEPRIV_CHECK(preference.values.size() == graph.num_edges(),
               "edge proximity size %zu != |E| %zu", preference.values.size(),
               graph.num_edges());
  if (config_.normalize_proximity) {
    owned_weights_ = std::move(preference.normalized);
    min_weight_ = preference.normalized_min_positive;
  } else {
    owned_weights_ = std::move(preference.values);
    min_weight_ = preference.min_positive;
  }
}

SePrivGEmb::SePrivGEmb(const Graph& graph, const EdgeProximity& preference,
                       const SePrivGEmbConfig& config)
    : graph_(graph), config_(config) {
  SEPRIV_CHECK(preference.values.size() == graph.num_edges(),
               "edge proximity size %zu != |E| %zu", preference.values.size(),
               graph.num_edges());
  // Borrow, don't copy: repeated run cells of a sweep all read this one
  // table. The caller keeps it alive for the trainer's lifetime.
  if (config_.normalize_proximity) {
    SEPRIV_CHECK(preference.normalized.size() == graph.num_edges(),
                 "normalized proximity size %zu != |E| %zu",
                 preference.normalized.size(), graph.num_edges());
    weights_ = &preference.normalized;
    min_weight_ = preference.normalized_min_positive;
  } else {
    weights_ = &preference.values;
    min_weight_ = preference.min_positive;
  }
}

TrainResult SePrivGEmb::Train() {
  TrainResult result;
  const Status status =
      TrainInternal(nullptr, /*require_checkpoint=*/false, &result);
  SEPRIV_CHECK(status.ok(), "training failed: %s",
               status.ToString().c_str());
  return result;
}

Status SePrivGEmb::TrainResumable(const TrainCheckpointOptions& ckpt,
                                  TrainResult* out) {
  return TrainInternal(&ckpt, /*require_checkpoint=*/false, out);
}

Status SePrivGEmb::ResumeFromCheckpoint(const TrainCheckpointOptions& ckpt,
                                        TrainResult* out) {
  return TrainInternal(&ckpt, /*require_checkpoint=*/true, out);
}

Status SePrivGEmb::TrainInternal(const TrainCheckpointOptions* ckpt,
                                 bool require_checkpoint, TrainResult* out) {
  // GS stays resident: the bulk sampler's Subgraph vector, read through the
  // p_ij table the constructor built.
  std::optional<SubgraphSampler> sampler;
  std::optional<InMemorySampleSource> source;
  const TrainStorage storage{
      graph_.num_nodes(), graph_.num_edges(), graph_.Fingerprint(),
      min_weight_, weights_,
      [&](uint64_t sampler_seed, SampleSource** samples) {
        sampler.emplace(graph_, config_.negatives, sampler_seed,
                        EdgeOrientation::kRandom,
                        config_.negatives_exclude_neighbors);
        source.emplace(sampler->All(), *weights_);
        *samples = &*source;
        return OkStatus();
      }};
  return RunAlgorithm2(config_, storage, ckpt, require_checkpoint, out);
}

TrainResult TrainOutOfCore(GraphStore& store, ProximityKind preference,
                           const SePrivGEmbConfig& config,
                           const OutOfCoreTrainOptions& ooc,
                           const ProximityOptions& prox_opts) {
  TrainResult result;
  const Status status =
      TryTrainOutOfCore(store, preference, config, ooc, &result, prox_opts);
  SEPRIV_CHECK(status.ok(), "out-of-core training failed: %s",
               status.ToString().c_str());
  return result;
}

Status TryTrainOutOfCore(GraphStore& store, ProximityKind preference,
                         const SePrivGEmbConfig& config,
                         const OutOfCoreTrainOptions& ooc, TrainResult* out,
                         const ProximityOptions& prox_opts) {
  SEPRIV_CHECK(preference == ProximityKind::kPreferentialAttachment,
               "out-of-core training supports the degree preference only "
               "(the one whose oracle state is node-level)");
  SEPRIV_CHECK(!ooc.work_dir.empty(), "work_dir is required");
  ::mkdir(ooc.work_dir.c_str(), 0755);  // EEXIST is fine

  // Preference: the degree vector (the node-level oracle state, O(|V|)) from
  // one shard scan, then per-shard proximity passes streamed into the shared
  // floor/scale reduction. The passes are cache-through, so Algorithm 1
  // reloads them warm; never more than one shard's edge table is resident.
  std::vector<size_t> degree(store.num_nodes(), 0);
  SEPRIV_RETURN_IF_ERROR(
      ForEachShard(store, [&](size_t, const ShardView& view) {
        for (NodeId u = view.node_begin; u < view.node_end; ++u) {
          degree[u] = view.Degree(u);
        }
        return OkStatus();
      }));
  const DegreeVectorProximity provider(
      std::vector<double>(degree.begin(), degree.end()), store.num_edges());
  const uint64_t graph_fp = store.fingerprint();
  const std::string cache_root = ooc.work_dir + "/proxcache";
  ThreadPool pool(config.ResolvedThreads());
  const auto shard_proximities = [&](size_t s, const ShardView& view) {
    return CachedShardProximities(view, s, graph_fp, provider, prox_opts, pool,
                                  cache_root);
  };
  ProximityFinalizer fin;
  SEPRIV_RETURN_IF_ERROR(
      ForEachShard(store, [&](size_t s, const ShardView& view) {
        const ShardProximity sp = shard_proximities(s, view);
        for (size_t k = 0; k < sp.forward.size(); ++k) {
          fin.Accumulate(0.5 * (sp.forward[k] + sp.backward[k]));
        }
        return OkStatus();
      }));
  fin.Seal();
  SEPRIV_CHECK(fin.count() == store.num_edges(), "proximity pass lost edges");

  // GS streams to an on-disk sample store: the generator reproduces the
  // bulk sampler's RNG stream edge by edge, and each sample is written with
  // its p_ij weight. Each shard's edges are generated window by window, with
  // the window's foreign rows loaded before its first draw. Resident state
  // stays O(|V| + one shard + one page + pool budget).
  const std::string samples_path = ooc.work_dir + "/samples.bin";
  std::unique_ptr<SampleStore> samples;
  const auto write_samples = [&](uint64_t sampler_seed) -> Status {
    WindowAdjacencyOracle oracle(store, degree);
    SubgraphGenerator gen(oracle, config.negatives, sampler_seed,
                          EdgeOrientation::kRandom,
                          config.negatives_exclude_neighbors);
    auto writer = SampleStoreWriter::Create(
        samples_path, static_cast<size_t>(config.negatives),
        ooc.sample_page_bytes > 0 ? ooc.sample_page_bytes
                                  : kSampleStorePageBytes);
    if (writer == nullptr) {
      return IoError("cannot create sample store " + samples_path);
    }
    Subgraph scratch;
    std::vector<Edge> edges;  // the consumer shard's canonical edges
    bool ok = true;
    SEPRIV_RETURN_IF_ERROR(
        ForEachShard(store, [&](size_t s, const ShardView& view) {
          const ShardProximity sp = shard_proximities(s, view);
          edges.clear();
          view.ForEachEdge(
              [&](size_t, NodeId u, NodeId v) { edges.push_back({u, v}); });
          for (size_t k = 0; k < edges.size();) {
            size_t window = 0;
            SEPRIV_RETURN_IF_ERROR(oracle.LoadWindow(
                view, std::span<const Edge>(edges).subspan(k), &window));
            for (const size_t end = k + window; k < end; ++k) {
              const double sym = 0.5 * (sp.forward[k] + sp.backward[k]);
              const double w = config.normalize_proximity
                                   ? fin.Normalized(sym)
                                   : fin.Value(sym);
              gen.Next(edges[k].u, edges[k].v,
                       static_cast<uint32_t>(view.edge_begin + k), scratch);
              ok = writer->Append(scratch, w) && ok;
            }
          }
          return OkStatus();
        }));
    ok = writer->Finish() && ok;
    if (ok) return OkStatus();
    // Prefer the writer's structured first-failure (an ENOSPC spill keeps
    // its kNoSpace code so callers know retrying is pointless).
    return writer->status().ok()
               ? IoError("sample store write failed (" + samples_path + ")")
               : writer->status();
  };
  const TrainStorage storage{
      store.num_nodes(), store.num_edges(), graph_fp,
      config.normalize_proximity ? fin.normalized_min_positive()
                                 : fin.min_positive(),
      /*resident_weights=*/nullptr,
      [&](uint64_t sampler_seed, SampleSource** out_samples) -> Status {
        SEPRIV_RETURN_IF_ERROR(write_samples(sampler_seed));
        SEPRIV_RETURN_IF_ERROR(SampleStore::TryOpen(
            samples_path, ooc.sample_pool_pages, &samples));
        *out_samples = samples.get();
        return OkStatus();
      }};
  SEPRIV_RETURN_IF_ERROR(RunAlgorithm2(
      config, storage, ooc.checkpoint.path.empty() ? nullptr : &ooc.checkpoint,
      /*require_checkpoint=*/false, out));
  samples.reset();  // close before unlinking
  if (!ooc.keep_sample_store) std::remove(samples_path.c_str());
  return OkStatus();
}

}  // namespace sepriv
