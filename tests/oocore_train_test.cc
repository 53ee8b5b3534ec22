// Integration tests for the out-of-core training path: TrainOutOfCore must
// reproduce SePrivGEmb::Train() BIT-IDENTICALLY — model matrices, loss
// curve, and privacy accounting — for every graph-store backend, shard
// count, thread count, and buffer-pool budget.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "core/se_privgemb.h"
#include "embedding/subgraph_sampler.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "util/digest.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "test_dir.h"

namespace sepriv {
namespace {

struct TrainDigest {
  uint64_t w_in = 0;
  uint64_t w_out = 0;
  std::vector<double> loss_curve;
  size_t epochs_run = 0;
  uint64_t spent_epsilon_bits = 0;

  explicit TrainDigest(const TrainResult& r)
      : w_in(MatrixDigest(r.model.w_in)),
        w_out(MatrixDigest(r.model.w_out)),
        loss_curve(r.loss_curve),
        epochs_run(r.epochs_run),
        spent_epsilon_bits(std::bit_cast<uint64_t>(r.spent_epsilon)) {}

  bool operator==(const TrainDigest&) const = default;
};

/// What Algorithm 1's out-of-core walk does with each consumer shard's
/// edges, replayed on the resident graph: a window spans the longest run of
/// edges whose distinct far endpoints (v >= the shard's node_end) have rows
/// that fit together in one shard page of NodeIds, and it pins each shard
/// holding one of those rows once.
struct WindowPlan {
  size_t windows = 0;
  size_t foreign_pins = 0;  // distinct foreign shards, summed over windows
  size_t hub_windows = 0;   // windows holding a far row of > half a page
};

WindowPlan PlanWindows(const Graph& g, const ShardManifest& manifest) {
  const size_t capacity = manifest.page_size / sizeof(NodeId);
  WindowPlan plan;
  std::set<NodeId> ids;
  size_t entries = 0;
  const auto close = [&] {
    std::set<size_t> shards;
    bool hub = false;
    for (const NodeId v : ids) {
      shards.insert(manifest.ShardOfNode(v));
      hub = hub || 2 * g.Degree(v) > capacity;
    }
    ++plan.windows;
    plan.foreign_pins += shards.size();
    plan.hub_windows += hub;
    ids.clear();
    entries = 0;
  };
  for (const GraphShardInfo& info : manifest.shards) {
    bool open = false;
    for (auto u = static_cast<NodeId>(info.node_begin); u < info.node_end;
         ++u) {
      for (const NodeId v : g.Neighbors(u)) {
        if (v <= u) continue;
        if (v >= info.node_end && ids.count(v) == 0) {
          if (entries + g.Degree(v) > capacity) close();
          ids.insert(v);
          entries += g.Degree(v);
        }
        open = true;
      }
    }
    if (open) close();
  }
  return plan;
}

class OocoreTrainTest : public ::testing::Test {
 protected:
  std::string TempDirFor(const std::string& name) const {
    return tmp_ / name;
  }

  const TestDir tmp_;

  /// Small, fast configuration still large enough that batches subsample
  /// (gamma < 1) and several shards/pool evictions occur.
  static SePrivGEmbConfig BaseConfig() {
    SePrivGEmbConfig cfg;
    cfg.dim = 8;
    cfg.batch_size = 32;
    cfg.max_epochs = 4;
    cfg.negatives = 3;
    cfg.seed = 13;
    cfg.perturbation = PerturbationStrategy::kNonZero;
    cfg.proximity_cache_path = "-";  // in-memory reference stays cache-free
    return cfg;
  }
};

TEST_F(OocoreTrainTest, MatchesInMemoryTrainingAcrossStoresShardsAndThreads) {
  const Graph g = BarabasiAlbert(300, 4, /*seed=*/21);
  SePrivGEmbConfig cfg = BaseConfig();

  SePrivGEmb ref_trainer(g, ProximityKind::kPreferentialAttachment, cfg);
  const TrainDigest ref(ref_trainer.Train());

  const std::string ssd_root = TempDirFor("sweep");
  std::filesystem::create_directories(ssd_root);

  int cell = 0;
  for (size_t shards : {size_t{1}, size_t{5}}) {
    const std::string shard_dir = ssd_root + "/g" + std::to_string(shards);
    ASSERT_TRUE(WriteGraphShards(g, shard_dir, shards));
    for (size_t threads : {size_t{1}, size_t{2}}) {
      cfg.num_threads = threads;
      for (const bool ssd : {false, true}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads) +
                     " ssd=" + std::to_string(ssd));
        OutOfCoreTrainOptions ooc;
        ooc.work_dir = ssd_root + "/work" + std::to_string(cell++);
        ooc.sample_pool_pages = 2;
        ooc.sample_page_bytes = 4096;  // small pages => many sample shards

        if (ssd) {
          auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
          ASSERT_NE(store, nullptr);
          const TrainDigest got(TrainOutOfCore(
              *store, ProximityKind::kPreferentialAttachment, cfg, ooc));
          EXPECT_EQ(got, ref);
        } else {
          InMemoryGraphStore store(g, shards);
          const TrainDigest got(TrainOutOfCore(
              store, ProximityKind::kPreferentialAttachment, cfg, ooc));
          EXPECT_EQ(got, ref);
        }
      }
    }
  }
}

TEST_F(OocoreTrainTest, MatchesInMemoryForOtherPerturbationAndNormalization) {
  const Graph g = BarabasiAlbert(250, 4, /*seed=*/22);
  const std::string root = TempDirFor("variants");
  std::filesystem::create_directories(root);
  const std::string shard_dir = root + "/g";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 4));

  struct Variant {
    PerturbationStrategy perturbation;
    bool normalize;
    const char* name;
  };
  const Variant variants[] = {
      {PerturbationStrategy::kNone, true, "nonprivate"},
      {PerturbationStrategy::kNaive, true, "naive"},
      {PerturbationStrategy::kNonZero, false, "unnormalized"},
  };
  int cell = 0;
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    SePrivGEmbConfig cfg = BaseConfig();
    cfg.perturbation = v.perturbation;
    cfg.normalize_proximity = v.normalize;
    cfg.num_threads = 2;

    SePrivGEmb ref_trainer(g, ProximityKind::kPreferentialAttachment, cfg);
    const TrainDigest ref(ref_trainer.Train());

    auto store = SsdGraphStore::Open(shard_dir, 2);
    ASSERT_NE(store, nullptr);
    OutOfCoreTrainOptions ooc;
    ooc.work_dir = root + "/work" + std::to_string(cell++);
    ooc.sample_pool_pages = 2;
    ooc.sample_page_bytes = 4096;
    const TrainDigest got(TrainOutOfCore(
        *store, ProximityKind::kPreferentialAttachment, cfg, ooc));
    EXPECT_EQ(got, ref);
  }
}

// Algorithm 1 pins each foreign shard once per window, so the graph pool's
// misses are bounded by the pins the window plan makes: three sequential
// shard walks (degree scan, proximity pass, the sample walk's consumer
// shards) plus one pin per foreign shard of every window. Re-pinning the
// centre's shard for every foreign-centred sample made ~6k misses here.
TEST_F(OocoreTrainTest, AlgorithmOneGraphPoolMissesStayWithinTheWindowPlan) {
  const Graph g = BarabasiAlbert(4000, 5, /*seed=*/1);
  const std::string root = TempDirFor("pins");
  const std::string shard_dir = root + "/g";
  std::filesystem::create_directories(root);
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 16));
  auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
  ASSERT_NE(store, nullptr);
  const size_t num_shards = store->num_shards();
  const WindowPlan plan = PlanWindows(g, store->manifest());

  SePrivGEmbConfig cfg = BaseConfig();
  cfg.max_epochs = 1;
  cfg.num_threads = 1;
  OutOfCoreTrainOptions ooc;
  ooc.work_dir = root + "/work";
  ooc.sample_page_bytes = 4096;
  TrainResult result;
  ASSERT_TRUE(TryTrainOutOfCore(*store, ProximityKind::kPreferentialAttachment,
                                cfg, ooc, &result)
                  .ok());
  const uint64_t bound = 3 * num_shards + plan.foreign_pins;
  EXPECT_LE(store->pool().stats().misses, bound)
      << plan.windows << " windows, " << plan.foreign_pins << " foreign pins";
  EXPECT_LT(bound, 1000u);
}

// Small pages and many shards split every consumer shard's edges into many
// windows. A star-heavy graph puts two hubs at the top of the id range, each
// joined to half of a ring of leaves: a hub's row, more than half a page, is
// foreign to every leaf shard and leaves no room in its window for the other
// hub. Both must reproduce Train() bit for bit.
TEST_F(OocoreTrainTest, WindowedAlgorithmOneMatchesInMemoryTraining) {
  std::vector<Edge> star_edges;
  const size_t leaves = 1200;
  for (size_t v = 0; v < leaves; ++v) {
    star_edges.push_back({static_cast<NodeId>(v),
                          static_cast<NodeId>((v + 1) % leaves)});
    star_edges.push_back({static_cast<NodeId>(v),
                          static_cast<NodeId>(leaves + 2 * v / leaves)});
  }
  struct Case {
    const char* name;
    Graph graph;
    size_t shards;
  };
  const Case cases[] = {
      {"many_shards", BarabasiAlbert(1500, 4, /*seed=*/26), 24},
      {"star_heavy", Graph::FromEdges(leaves + 2, std::move(star_edges)), 8},
  };
  const std::string root = TempDirFor("windows");
  std::filesystem::create_directories(root);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string shard_dir = root + "/" + c.name;
    ASSERT_TRUE(WriteGraphShards(c.graph, shard_dir, c.shards));
    auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
    ASSERT_NE(store, nullptr);
    const WindowPlan plan = PlanWindows(c.graph, store->manifest());
    if (std::string(c.name) == "star_heavy") {
      EXPECT_GT(plan.hub_windows, 0u);
    } else {
      EXPECT_GT(plan.windows, 2 * c.shards);
    }

    SePrivGEmbConfig cfg = BaseConfig();
    cfg.num_threads = 1;
    SePrivGEmb ref_trainer(c.graph, ProximityKind::kPreferentialAttachment,
                           cfg);
    const TrainDigest ref(ref_trainer.Train());
    OutOfCoreTrainOptions ooc;
    ooc.work_dir = root + "/work_" + c.name;
    ooc.sample_page_bytes = 4096;
    const TrainDigest got(TrainOutOfCore(
        *store, ProximityKind::kPreferentialAttachment, cfg, ooc));
    EXPECT_EQ(got, ref);
  }
}

/// Serves a store's pins but drops its prefetch hints, so every page read
/// runs on the caller's thread in a fixed order, and logs each pin with the
/// page-read failpoint's hit count before it.
class PinLog final : public GraphStore {
 public:
  explicit PinLog(GraphStore& inner) : inner_(inner) {}
  const ShardManifest& manifest() const override { return inner_.manifest(); }
  Status TryPin(size_t s, PinnedShard* out) override {
    const uint64_t reads = failpoint::HitCount("page_file.read");
    const Status status = inner_.TryPin(s, out);
    pins.push_back({s, reads, status.ok()});
    return status;
  }

  struct Pin {
    size_t shard;
    uint64_t reads_before;
    bool ok;
  };
  std::vector<Pin> pins;

 private:
  GraphStore& inner_;
};

// A read fault that outlasts the pool's re-reads, landing on the first
// window's row load, ends training with kIoError instead of an abort.
TEST_F(OocoreTrainTest, PersistentFaultOnAWindowRowLoadSurfacesAsIoError) {
  const Graph g = BarabasiAlbert(300, 4, /*seed=*/27);
  const std::string root = TempDirFor("window_fault");
  const std::string shard_dir = root + "/g";
  std::filesystem::create_directories(root);
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 4));
  SePrivGEmbConfig cfg = BaseConfig();
  cfg.num_threads = 1;
  OutOfCoreTrainOptions ooc;
  ooc.sample_page_bytes = 4096;

  // Count the page reads up to that load: a rule that never fires still
  // counts its hits. The degree scan and the proximity pass pin every shard
  // once each; then the sample walk pins consumer shard 0 and the first
  // window's first foreign shard.
  const size_t num_shards = 4;
  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err@1000000000"));
  uint64_t fault_at = 0;
  {
    auto ssd = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
    ASSERT_NE(ssd, nullptr);
    PinLog store(*ssd);
    ooc.work_dir = root + "/count";
    TrainResult result;
    ASSERT_TRUE(TryTrainOutOfCore(store, ProximityKind::kPreferentialAttachment,
                                  cfg, ooc, &result)
                    .ok());
    ASSERT_GT(store.pins.size(), 2 * num_shards + 2);
    const PinLog::Pin& consumer = store.pins[2 * num_shards];
    const PinLog::Pin& row_load = store.pins[2 * num_shards + 1];
    ASSERT_EQ(consumer.shard, 0u);
    ASSERT_GT(row_load.shard, 0u);
    // The row load reads its page: the next pin starts after that read.
    ASSERT_GT(store.pins[2 * num_shards + 2].reads_before,
              row_load.reads_before);
    fault_at = row_load.reads_before + 1;
  }

  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err@" +
                                 std::to_string(fault_at) + "+"));
  auto ssd = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
  ASSERT_NE(ssd, nullptr);
  PinLog store(*ssd);
  ooc.work_dir = root + "/fault";
  TrainResult result;
  const Status s = TryTrainOutOfCore(
      store, ProximityKind::kPreferentialAttachment, cfg, ooc, &result);
  failpoint::ClearAll();
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  // The failed pin is the window's row load, and nothing pinned after it.
  ASSERT_EQ(store.pins.size(), 2 * num_shards + 2);
  EXPECT_FALSE(store.pins.back().ok);
}

TEST_F(OocoreTrainTest, WorkDirReuseHitsWarmCachesAndStaysIdentical) {
  const Graph g = BarabasiAlbert(200, 3, /*seed=*/23);
  const std::string root = TempDirFor("reuse");
  std::filesystem::create_directories(root);
  const std::string shard_dir = root + "/g";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 3));
  const SePrivGEmbConfig cfg = BaseConfig();

  OutOfCoreTrainOptions ooc;
  ooc.work_dir = root + "/work";
  ooc.sample_pool_pages = 2;
  ooc.keep_sample_store = true;

  auto store1 = SsdGraphStore::Open(shard_dir, 2);
  ASSERT_NE(store1, nullptr);
  const TrainDigest cold(TrainOutOfCore(
      *store1, ProximityKind::kPreferentialAttachment, cfg, ooc));
  EXPECT_TRUE(std::filesystem::exists(ooc.work_dir + "/samples.bin"));

  // Second run reuses the fingerprint-keyed per-shard proximity cache and
  // overwrites the sample store; everything must come out bit-identical.
  auto store2 = SsdGraphStore::Open(shard_dir, 2);
  ASSERT_NE(store2, nullptr);
  ooc.keep_sample_store = false;
  const TrainDigest warm(TrainOutOfCore(
      *store2, ProximityKind::kPreferentialAttachment, cfg, ooc));
  EXPECT_EQ(warm, cold);
  EXPECT_FALSE(std::filesystem::exists(ooc.work_dir + "/samples.bin"));
}

TEST_F(OocoreTrainTest, GeneratorStreamMatchesBulkSampler) {
  const Graph g = BarabasiAlbert(180, 4, /*seed=*/24);
  const uint64_t seed = 0xfeedbeef;
  const int k = 5;
  SubgraphSampler bulk(g, k, seed);
  ASSERT_EQ(bulk.size(), g.num_edges());

  GraphAdjacencyOracle oracle(g);
  SubgraphGenerator gen(oracle, k, seed);
  Subgraph s;
  for (size_t e = 0; e < g.Edges().size(); ++e) {
    gen.Next(g.Edges()[e].u, g.Edges()[e].v, static_cast<uint32_t>(e), s);
    const Subgraph& want = bulk.All()[e];
    ASSERT_EQ(s.center, want.center) << "edge " << e;
    ASSERT_EQ(s.context, want.context) << "edge " << e;
    ASSERT_EQ(s.edge_index, want.edge_index);
    ASSERT_EQ(s.negatives, want.negatives) << "edge " << e;
  }
}

TEST_F(OocoreTrainTest, ProximityShardsKnobIsBitIdentical) {
  const Graph g = BarabasiAlbert(150, 3, /*seed=*/25);
  for (const ProximityKind kind : {ProximityKind::kCommonNeighbors,
                                   ProximityKind::kPreferentialAttachment}) {
    SCOPED_TRACE(ProximityKindName(kind));
    SePrivGEmbConfig base = BaseConfig();

    SePrivGEmb plain(g, kind, base);
    const std::vector<double> plain_weights = plain.edge_weights();
    const TrainDigest plain_digest(plain.Train());

    SePrivGEmbConfig sharded_cfg = base;
    sharded_cfg.proximity_shards = 4;
    sharded_cfg.num_threads = 2;
    SePrivGEmb sharded(g, kind, sharded_cfg);
    ASSERT_EQ(sharded.edge_weights().size(), plain_weights.size());
    for (size_t e = 0; e < plain_weights.size(); ++e) {
      ASSERT_EQ(std::bit_cast<uint64_t>(sharded.edge_weights()[e]),
                std::bit_cast<uint64_t>(plain_weights[e]))
          << "edge " << e;
    }
    // Thread count must not matter either; only the proximity evaluation
    // path changed, so training from the same weights matches exactly.
    sharded_cfg.num_threads = 1;
    const TrainDigest sharded_digest(sharded.Train());
    EXPECT_EQ(sharded_digest, plain_digest);
  }
}

}  // namespace
}  // namespace sepriv
