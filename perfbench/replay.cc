#include "replay.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>

#include "core/batch_gradient_engine.h"
#include "core/checkpoint.h"
#include "dp/accountant.h"
#include "embedding/sample_store.h"
#include "embedding/subgraph_sampler.h"
#include "graph/shard.h"
#include "proximity/local_proximity.h"
#include "proximity/proximity_engine.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace sepriv;
using Scope = Tracer::Scope;

/// Counts taken around the epoch loop.
struct EpochCounters {
  double touched_rows = 0.0;  // summed over epochs, Win + Wout rows
  double accumulator_bytes = 0.0;
  double checkpoints = 0.0;
  double checkpoint_bytes = 0.0;
};

/// Resident bytes of one dense accumulator: its rows × cols doubles and one
/// touched flag per row, all filled at construction. Counted from the sizes,
/// not from the process RSS, which after an earlier same-sized publish reads
/// the allocator's state more than the engine's footprint.
double AccumulatorBytes(const SparseRowGrad& grad) {
  const Matrix& m = grad.matrix();
  return static_cast<double>(m.rows() * m.cols() * sizeof(double) + m.rows());
}

/// Checkpoint wiring of one replay; an empty path disables checkpointing.
struct CheckpointWiring {
  TrainCheckpointOptions options;
  uint64_t graph_fingerprint = 0;
};

/// The epoch loop of Algorithm 2 as RunEpochs runs it for kNonZero with
/// float64 storage and uniform batches: accountant, engine, then per epoch
/// SampleBatchIndices → TryAccumulateBatch → PerturbNonZero → ApplyUpdate →
/// accountant step → optional SaveCheckpoint.
void ReplayEpochs(const SePrivGEmbConfig& cfg, size_t num_nodes,
                  double min_weight, SampleSource& source,
                  const CheckpointWiring& ckpt, Rng& rng, Tracer& tracer,
                  TrainResult& result, EpochCounters& counters) {
  SEPRIV_CHECK(cfg.perturbation == PerturbationStrategy::kNonZero &&
                   cfg.embedding_storage == EmbeddingStorage::kFloat64 &&
                   cfg.positive_sampling == PositiveSampling::kUniformEdges,
               "the replay covers the benchmark's trainer configuration only");
  const size_t population = source.size();
  const double sampling_rate =
      std::min(1.0, static_cast<double>(cfg.batch_size) /
                        static_cast<double>(population));

  std::unique_ptr<RdpAccountant> accountant;
  {
    Scope span(tracer, "dp.account");
    accountant = std::make_unique<RdpAccountant>(
        cfg.noise_multiplier, sampling_rate, cfg.rdp_max_order);
    result.epochs_allowed = accountant->MaxSteps(cfg.epsilon, cfg.delta);
  }

  BatchGradientEngineOptions eopts;
  eopts.num_nodes = num_nodes;
  eopts.dim = cfg.dim;
  eopts.clip_per_sample = true;
  eopts.clip_threshold = cfg.clip_threshold;
  eopts.negative_weighting = cfg.negative_weighting;
  eopts.min_weight = min_weight;
  eopts.num_threads = cfg.ResolvedThreads();
  BatchGradientEngine engine(eopts, {});
  counters.accumulator_bytes =
      AccumulatorBytes(engine.grad_in()) + AccumulatorBytes(engine.grad_out());

  const double stddev = cfg.clip_threshold * cfg.noise_multiplier;
  for (size_t epoch = 0; epoch < cfg.max_epochs; ++epoch) {
    if (epoch >= result.epochs_allowed) {
      result.stopped_by_budget = true;
      break;
    }
    std::vector<uint32_t> batch;
    {
      Scope span(tracer, "core.batch_draw");
      batch = SampleBatchIndices(population, cfg.batch_size, rng);
    }
    double batch_loss = 0.0;
    {
      Scope span(tracer, "core.accumulate");
      const Status status =
          engine.TryAccumulateBatch(result.model, source, batch, &batch_loss);
      SEPRIV_CHECK(status.ok(), "replay batch failed: %s",
                   status.ToString().c_str());
    }
    counters.touched_rows +=
        static_cast<double>(engine.grad_in().touched().size() +
                            engine.grad_out().touched().size());
    {
      Scope span(tracer, "core.perturb");
      engine.PerturbNonZero(stddev, rng);
    }
    {
      Scope span(tracer, "core.apply");
      engine.ApplyUpdate(result.model, cfg.learning_rate);
    }
    {
      Scope span(tracer, "dp.account");
      accountant->Step();
    }
    ++result.epochs_run;
    if (cfg.track_loss) {
      result.loss_curve.push_back(batch_loss /
                                  static_cast<double>(batch.size()));
    }

    const TrainCheckpointOptions& opts = ckpt.options;
    if (!opts.path.empty() &&
        result.epochs_run % std::max<size_t>(1, opts.every_epochs) == 0) {
      {
        Scope span(tracer, "core.checkpoint");
        TrainCheckpoint ck;
        ck.graph_fingerprint = ckpt.graph_fingerprint;
        ck.config_digest = cfg.Digest();
        ck.storage = cfg.embedding_storage;
        ck.epochs_run = result.epochs_run;
        ck.accountant_steps = accountant->steps();
        ck.noise_multiplier = cfg.noise_multiplier;
        ck.sampling_rate = sampling_rate;
        ck.rng = rng.SaveState();
        ck.loss_curve = result.loss_curve;
        ck.w_in = result.model.w_in;
        ck.w_out = result.model.w_out;
        const Status status = SaveCheckpoint(ck, opts.path);
        SEPRIV_CHECK(status.ok(), "replay checkpoint failed: %s",
                     status.ToString().c_str());
      }
      counters.checkpoints += 1.0;
      counters.checkpoint_bytes += FileBytes(opts.path);
    }
  }

  if (accountant->steps() > 0) {
    Scope span(tracer, "dp.account");
    const DpBound bound = accountant->GetEpsilon(cfg.delta);
    result.spent_epsilon = bound.epsilon;
    result.best_rdp_order = bound.best_order;
    result.spent_delta = accountant->GetDelta(cfg.epsilon);
  }
  if (!ckpt.options.path.empty() && ckpt.options.remove_on_success) {
    std::remove(ckpt.options.path.c_str());
  }
}

void AddEpochCounters(const SePrivGEmbConfig& cfg, size_t num_nodes,
                      const TrainResult& result, const EpochCounters& c,
                      Replay& replay) {
  const double epochs =
      static_cast<double>(std::max<size_t>(1, result.epochs_run));
  const double rows_per_epoch = c.touched_rows / epochs;
  auto& out = replay.counters;
  out.emplace_back("core.noise_values",
                   c.touched_rows * static_cast<double>(cfg.dim));
  out.emplace_back("core.touched_rows_per_epoch", rows_per_epoch);
  out.emplace_back("core.touched_row_fraction",
                   rows_per_epoch / (2.0 * static_cast<double>(num_nodes)));
  out.emplace_back("core.engine_rss_mb",
                   c.accumulator_bytes / (1024.0 * 1024.0));
  out.emplace_back("core.checkpoints", c.checkpoints);
  out.emplace_back("core.checkpoint_bytes", c.checkpoint_bytes);
  out.emplace_back("dp.spent_epsilon", result.spent_epsilon);
}

/// AdjacencyOracle over a GraphStore, as the out-of-core trainer builds it:
/// pins the center's shard on demand and drops the previous pin first, so it
/// never holds more than one pin of its own.
class StoreOracle final : public AdjacencyOracle {
 public:
  explicit StoreOracle(GraphStore& store)
      : store_(store), num_nodes_(store.num_nodes()) {}

  size_t num_nodes() const override { return num_nodes_; }
  bool HasEdge(NodeId u, NodeId v) const override {
    const size_t s = store_.manifest().ShardOfNode(u);
    if (s != cur_shard_) {
      cur_ = PinnedShard();
      cur_ = store_.Pin(s);
      cur_shard_ = s;
    }
    return cur_->HasEdge(u, v);
  }

 private:
  GraphStore& store_;
  size_t num_nodes_;
  mutable PinnedShard cur_;
  mutable size_t cur_shard_ = std::numeric_limits<size_t>::max();
};

PinnedShard PinOrDie(GraphStore& store, size_t s) {
  PinnedShard pin;
  const Status status = store.TryPin(s, &pin);
  SEPRIV_CHECK(status.ok(), "replay shard pin failed: %s",
               status.ToString().c_str());
  return pin;
}

/// Buffer-pool counters under `prefix`: the graph pool's full set when `full`,
/// else the sample pool's per-epoch view. All zero when `pool` is null (an
/// in-memory workload, which pages nothing).
void AddPoolCounters(const char* prefix, const BufferPool* pool,
                     double epochs, bool full, Replay& replay) {
  const BufferPoolStats st =
      pool != nullptr ? pool->stats() : BufferPoolStats{};
  const double pins = static_cast<double>(st.hits + st.misses);
  const double bytes_read =
      pool != nullptr ? static_cast<double>(st.misses + st.prefetch_loads) *
                            static_cast<double>(pool->page_size())
                      : 0.0;
  const std::string p = prefix;
  auto& out = replay.counters;
  out.emplace_back(p + ".hits", static_cast<double>(st.hits));
  out.emplace_back(p + ".misses", static_cast<double>(st.misses));
  out.emplace_back(p + ".hit_ratio",
                   pins > 0 ? static_cast<double>(st.hits) / pins : 0.0);
  if (full) {
    out.emplace_back(p + ".evictions", static_cast<double>(st.evictions));
    out.emplace_back(p + ".prefetch_loads",
                     static_cast<double>(st.prefetch_loads));
    out.emplace_back(p + ".read_retries", static_cast<double>(st.read_retries));
    out.emplace_back(p + ".bytes_read", bytes_read);
  } else {
    out.emplace_back(p + ".bytes_read_per_epoch", bytes_read / epochs);
  }
}

}  // namespace

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes);
}

Replay ReplayInMemory(const Graph& graph, ProximityKind preference,
                      const SePrivGEmbConfig& cfg) {
  SEPRIV_CHECK(cfg.normalize_proximity && cfg.proximity_shards == 1,
               "the replay covers the benchmark's trainer configuration only");
  const ProximityOptions prox_opts;
  Replay replay;
  Tracer tracer;
  EpochCounters counters;
  TrainResult& result = replay.result;
  {
    Scope root(tracer, "publish");
    EdgeProximity prox;
    {
      Scope span(tracer, "proximity.precompute");
      const auto provider = MakeProximity(preference, graph, prox_opts);
      prox = CachedEdgeProximities(graph, *provider, prox_opts,
                                   cfg.ResolvedThreads(),
                                   cfg.ResolvedProximityCachePath());
    }
    result.min_proximity = prox.normalized_min_positive;

    Rng rng(cfg.seed);
    std::unique_ptr<SubgraphSampler> sampler;
    {
      Scope span(tracer, "embedding.sample");
      sampler = std::make_unique<SubgraphSampler>(
          graph, cfg.negatives, rng.Next(), EdgeOrientation::kRandom,
          cfg.negatives_exclude_neighbors);
    }
    {
      Scope span(tracer, "embedding.init");
      result.model = SkipGramModel(graph.num_nodes(), cfg.dim, rng);
    }
    InMemorySampleSource source(sampler->All(), prox.normalized);
    ReplayEpochs(cfg, graph.num_nodes(), result.min_proximity, source,
                 CheckpointWiring{}, rng, tracer, result, counters);
  }
  replay.spans = tracer.spans();
  const double edges = static_cast<double>(graph.num_edges());
  replay.counters.emplace_back("proximity.edges", edges);
  replay.counters.emplace_back("embedding.samples", edges);
  replay.counters.emplace_back("embedding.sample_bytes_written", 0.0);
  AddPoolCounters("storage.graph_pool", nullptr, 1.0, true, replay);
  AddPoolCounters("storage.sample_pool", nullptr, 1.0, false, replay);
  AddEpochCounters(cfg, graph.num_nodes(), result, counters, replay);
  return replay;
}

Replay ReplayOutOfCore(const std::string& shard_dir,
                       const SePrivGEmbConfig& cfg,
                       const OutOfCoreTrainOptions& ooc) {
  SEPRIV_CHECK(!ooc.work_dir.empty() && cfg.normalize_proximity,
               "the replay covers the benchmark's trainer configuration only");
  const ProximityOptions prox_opts;
  Replay replay;
  Tracer tracer;
  EpochCounters counters;
  TrainResult& result = replay.result;
  std::unique_ptr<SsdGraphStore> store;
  double sample_bytes = 0.0;
  {
    Scope root(tracer, "publish");
    store = SsdGraphStore::Open(shard_dir, kGraphPoolPages);
    SEPRIV_CHECK(store != nullptr, "cannot open %s", shard_dir.c_str());
    const size_t n = store->num_nodes();
    const size_t num_shards = store->num_shards();
    ::mkdir(ooc.work_dir.c_str(), 0755);
    ThreadPool pool(cfg.ResolvedThreads());
    const std::string cache_root = ooc.work_dir + "/proxcache";
    const uint64_t graph_fp = store->fingerprint();

    CheckpointWiring ckpt{ooc.checkpoint, graph_fp};
    if (!ckpt.options.path.empty()) {
      Scope span(tracer, "core.checkpoint");
      TrainCheckpoint existing;
      const Status load = LoadCheckpoint(ckpt.options.path, &existing);
      SEPRIV_CHECK(load.code() == StatusCode::kNotFound,
                   "the replay starts fresh; found a checkpoint at %s",
                   ckpt.options.path.c_str());
    }

    std::unique_ptr<DegreeVectorProximity> provider;
    ProximityFinalizer fin;
    {
      Scope span(tracer, "proximity.precompute");
      std::vector<double> degrees(n, 0.0);
      for (size_t s = 0; s < num_shards; ++s) {
        if (s + 1 < num_shards) store->Prefetch(s + 1);
        const PinnedShard pin = PinOrDie(*store, s);
        for (NodeId u = pin->node_begin; u < pin->node_end; ++u) {
          degrees[u] = static_cast<double>(pin->Degree(u));
        }
      }
      provider = std::make_unique<DegreeVectorProximity>(std::move(degrees),
                                                         store->num_edges());
      for (size_t s = 0; s < num_shards; ++s) {
        if (s + 1 < num_shards) store->Prefetch(s + 1);
        const PinnedShard pin = PinOrDie(*store, s);
        const ShardProximity sp = CachedShardProximities(
            pin.view(), s, graph_fp, *provider, prox_opts, pool, cache_root);
        for (size_t k = 0; k < sp.forward.size(); ++k) {
          fin.Accumulate(0.5 * (sp.forward[k] + sp.backward[k]));
        }
      }
      fin.Seal();
    }
    SEPRIV_CHECK(fin.count() == store->num_edges(), "proximity lost edges");
    result.min_proximity = fin.normalized_min_positive();

    Rng rng(cfg.seed);
    const uint64_t sampler_seed = rng.Next();
    {
      Scope span(tracer, "embedding.init");
      result.model = SkipGramModel(n, cfg.dim, rng);
    }

    const std::string samples_path = ooc.work_dir + "/samples.bin";
    std::unique_ptr<SampleStore> samples;
    {
      Scope span(tracer, "embedding.sample");
      {
        StoreOracle oracle(*store);
        SubgraphGenerator gen(oracle, cfg.negatives, sampler_seed,
                              EdgeOrientation::kRandom,
                              cfg.negatives_exclude_neighbors);
        auto writer = SampleStoreWriter::Create(
            samples_path, static_cast<size_t>(cfg.negatives),
            ooc.sample_page_bytes > 0 ? ooc.sample_page_bytes
                                      : kSampleStorePageBytes);
        SEPRIV_CHECK(writer != nullptr, "cannot create %s",
                     samples_path.c_str());
        Subgraph scratch;
        bool ok = true;
        for (size_t s = 0; s < num_shards; ++s) {
          if (s + 1 < num_shards) store->Prefetch(s + 1);
          const PinnedShard pin = PinOrDie(*store, s);
          const ShardView& view = pin.view();
          ShardProximity sp;
          {
            Scope reload(tracer, "proximity.precompute");
            sp = CachedShardProximities(view, s, graph_fp, *provider, prox_opts,
                                        pool, cache_root);
          }
          view.ForEachEdge([&](size_t e, NodeId u, NodeId v) {
            const double w =
                fin.Normalized(0.5 * (sp.forward[e - view.edge_begin] +
                                      sp.backward[e - view.edge_begin]));
            gen.Next(u, v, static_cast<uint32_t>(e), scratch);
            ok = writer->Append(scratch, w) && ok;
          });
        }
        ok = writer->Finish() && ok;
        SEPRIV_CHECK(ok, "sample store write failed: %s",
                     writer->status().ToString().c_str());
      }
      samples = SampleStore::Open(samples_path, ooc.sample_pool_pages);
    }
    SEPRIV_CHECK(samples != nullptr && samples->size() == store->num_edges(),
                 "cannot reopen %s", samples_path.c_str());
    sample_bytes = FileBytes(samples_path);

    ReplayEpochs(cfg, n, result.min_proximity, *samples, ckpt, rng, tracer,
                 result, counters);

    const double epochs =
        static_cast<double>(std::max<size_t>(1, result.epochs_run));
    AddPoolCounters("storage.graph_pool", &store->pool(), epochs, true,
                    replay);
    AddPoolCounters("storage.sample_pool", &samples->pool(), epochs, false,
                    replay);
    samples.reset();
    if (!ooc.keep_sample_store) std::remove(samples_path.c_str());
  }
  replay.spans = tracer.spans();
  const double edges = static_cast<double>(store->num_edges());
  replay.counters.emplace_back("proximity.edges", edges);
  replay.counters.emplace_back("embedding.samples", edges);
  replay.counters.emplace_back("embedding.sample_bytes_written", sample_bytes);
  AddEpochCounters(cfg, store->num_nodes(), result, counters, replay);
  return replay;
}

}  // namespace perfbench
