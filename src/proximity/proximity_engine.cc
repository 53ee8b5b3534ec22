#include "proximity/proximity_engine.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/mutex.h"
#include "util/record_file.h"
#include "util/rng.h"

namespace sepriv {
namespace {

// ---------------------------------------------------------------------------
// Direction passes
// ---------------------------------------------------------------------------

/// Splits [0, m) into at most `target` contiguous ranges of roughly equal
/// size whose boundaries never fall inside a run of equal `key(e)` — each
/// distinct source node is computed by exactly one shard, so a shard's
/// provider clone keeps its row cache warm and no row is computed twice.
template <typename KeyFn>
std::vector<std::pair<size_t, size_t>> AlignedShards(size_t m, size_t target,
                                                     const KeyFn& key) {
  std::vector<std::pair<size_t, size_t>> shards;
  if (m == 0) return shards;
  target = std::max<size_t>(1, target);
  const size_t chunk = (m + target - 1) / target;
  size_t begin = 0;
  while (begin < m) {
    size_t end = std::min(m, begin + chunk);
    while (end < m && key(end) == key(end - 1)) ++end;  // don't split a group
    shards.emplace_back(begin, end);
    begin = end;
  }
  return shards;
}

/// Fixed-size pool of provider clones handed out to in-flight chunks. The
/// pool never holds more concurrent chunks than worker threads, so Acquire
/// cannot run dry; a mutex-guarded freelist is plenty (a few transitions per
/// shard, not per edge).
class ClonePool {
 public:
  ClonePool(const ProximityProvider& prototype, size_t count) {
    clones_.reserve(count);
    free_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      clones_.push_back(prototype.Clone());
      free_.push_back(clones_.back().get());
    }
  }

  ProximityProvider* Acquire() SEPRIV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    SEPRIV_CHECK(!free_.empty(), "clone pool exhausted (pool misuse)");
    ProximityProvider* p = free_.back();
    free_.pop_back();
    return p;
  }

  void Release(ProximityProvider* p) SEPRIV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    free_.push_back(p);
  }

 private:
  // clones_ is immutable after the constructor (workers mutate the clones
  // they own, never the vector); only the freelist needs the latch.
  std::vector<std::unique_ptr<ProximityProvider>> clones_;
  std::vector<ProximityProvider*> free_ SEPRIV_GUARDED_BY(mu_);
  Mutex mu_;
};

/// Runs one direction pass: every shard queries a private clone for its
/// index range. `per_index` must write to a per-index slot — determinism
/// then follows from At() being pure in (i, j).
template <typename PerIndex>
void RunPass(const std::vector<std::pair<size_t, size_t>>& shards,
             ClonePool& clones, ThreadPool& pool, const PerIndex& per_index) {
  pool.ParallelFor(shards.size(), /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      ProximityProvider* p = clones.Acquire();
      for (size_t i = shards[s].first; i < shards[s].second; ++i)
        per_index(*p, i);
      clones.Release(p);
    }
  });
}

// ---------------------------------------------------------------------------
// Cache serialisation
// ---------------------------------------------------------------------------

// "SEPRSPXS" as a little-endian u64. v2 moved the file onto the shared
// record frame (util/record_file.h): v1 files fail its digest and magic
// checks, so they are misses and get recomputed.
constexpr uint64_t kCacheMagic = 0x5358505352504553ULL;
constexpr uint64_t kCacheVersion = 2;

/// The ProximityOptions fields in a fixed serialisation order, for both the
/// cache-file header (stored and re-verified field by field on load — a key
/// hash collision can therefore cause a spurious miss, never a wrong hit)
/// and HashProximityOptions. Serialised individually, never memcpy'd as a
/// struct: padding bytes would leak indeterminate memory into the file.
std::vector<uint64_t> OptionWords(const ProximityOptions& opts) {
  return {static_cast<uint64_t>(opts.katz_max_length),
          std::bit_cast<uint64_t>(opts.katz_beta),
          std::bit_cast<uint64_t>(opts.ppr_alpha),
          static_cast<uint64_t>(opts.ppr_iterations),
          static_cast<uint64_t>(opts.dw_window),
          static_cast<uint64_t>(opts.dw_walks_per_node),
          static_cast<uint64_t>(opts.dw_walk_length),
          opts.seed};
}

uint64_t CacheKeyHash(const std::string& provider_name,
                      const ProximityOptions& opts) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ HashProximityOptions(opts);
  for (char c : provider_name) {
    h = HashMix(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

/// One shard's canonical edges materialised for the parallel passes:
/// edge-level memory for ONE shard only, the bound the out-of-core layer is
/// built around.
std::vector<Edge> ShardEdgeList(const ShardView& view) {
  std::vector<Edge> edges;
  edges.reserve(view.edge_count);
  view.ForEachEdge([&edges](size_t, NodeId u, NodeId v) {
    edges.push_back({u, v});
  });
  return edges;
}

std::string ShardCacheFilePath(const std::string& cache_root,
                               uint64_t graph_fingerprint, size_t shard_index,
                               uint64_t shard_fingerprint,
                               const std::string& provider_name,
                               const ProximityOptions& opts) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/shard_%zu_%016llx.bin", shard_index,
                static_cast<unsigned long long>(shard_fingerprint));
  return cache_root + "/" +
         ShardProximityCacheDirName(graph_fingerprint, provider_name, opts) +
         buf;
}

}  // namespace

uint64_t HashProximityOptions(const ProximityOptions& opts) {
  uint64_t h = 0xa0761d6478bd642fULL;
  for (uint64_t word : OptionWords(opts)) h = HashMix(h, word);
  return h;
}

ShardProximity ComputeShardProximities(const ShardView& view,
                                       const ProximityProvider& provider,
                                       ThreadPool& pool) {
  const std::vector<Edge> edges = ShardEdgeList(view);
  const size_t m = edges.size();
  ShardProximity out;
  out.forward.resize(m);
  out.backward.resize(m);
  if (m == 0) return out;

  // Reverse-direction visit order grouped by v (canonical edges are sorted
  // by u), exactly as in the serial engine.
  std::vector<size_t> by_v(m);
  for (size_t e = 0; e < m; ++e) by_v[e] = e;
  std::sort(by_v.begin(), by_v.end(), [&edges](size_t a, size_t b) {
    return edges[a].v != edges[b].v ? edges[a].v < edges[b].v
                                    : edges[a].u < edges[b].u;
  });

  // Over-decompose (4 shards per worker) so a shard that hits expensive hub
  // rows doesn't straggle the pass; clones stay bounded by the thread count.
  // A 1-thread pool runs both passes inline on the calling thread.
  const size_t threads = pool.num_threads();
  const size_t target_shards = threads * 4;
  ClonePool clones(provider, threads);

  const auto fwd_shards = AlignedShards(
      m, target_shards, [&edges](size_t e) { return edges[e].u; });
  RunPass(fwd_shards, clones, pool,
          [&](const ProximityProvider& p, size_t i) {
            out.forward[i] = p.At(edges[i].u, edges[i].v);
          });

  const auto bwd_shards = AlignedShards(
      m, target_shards, [&](size_t e) { return edges[by_v[e]].v; });
  RunPass(bwd_shards, clones, pool,
          [&](const ProximityProvider& p, size_t i) {
            const size_t idx = by_v[i];
            out.backward[idx] = p.At(edges[idx].v, edges[idx].u);
          });

  return out;
}

std::string ShardProximityCacheDirName(uint64_t graph_fingerprint,
                                       const std::string& provider_name,
                                       const ProximityOptions& opts) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "proxshard_%016llx_%016llx",
                static_cast<unsigned long long>(graph_fingerprint),
                static_cast<unsigned long long>(
                    CacheKeyHash(provider_name, opts)));
  return buf;
}

bool SaveShardProximityCache(const std::string& cache_root,
                             uint64_t graph_fingerprint, size_t shard_index,
                             uint64_t shard_fingerprint,
                             const std::string& provider_name,
                             const ProximityOptions& opts,
                             const ShardProximity& prox) {
  if (cache_root.empty()) return false;
  if (prox.forward.size() != prox.backward.size()) return false;
  const std::string path =
      ShardCacheFilePath(cache_root, graph_fingerprint, shard_index,
                         shard_fingerprint, provider_name, opts);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);  // best effort

  const size_t m = prox.forward.size();
  RecordWriter w(kCacheMagic, kCacheVersion,
                 13 * sizeof(uint64_t) + provider_name.size() +
                     2 * m * sizeof(double));
  w.Put(graph_fingerprint);
  w.Put(static_cast<uint64_t>(shard_index));
  w.Put(shard_fingerprint);
  w.Put(static_cast<uint64_t>(m));
  for (uint64_t word : OptionWords(opts)) w.Put(word);
  w.Put(static_cast<uint64_t>(provider_name.size()));
  w.PutBytes(provider_name.data(), provider_name.size());
  w.PutBytes(prox.forward.data(), m * sizeof(double));
  w.PutBytes(prox.backward.data(), m * sizeof(double));

  // Durable atomic publish (write-temp + fsync file and directory + rename):
  // concurrent loaders see either the old complete file or the new complete
  // file, never a torn write — and a crash right after Save returns cannot
  // resurface an empty or garbage file at the final path.
  return w.Publish(path, "proxcache.shard").ok();
}

std::optional<ShardProximity> LoadShardProximityCache(
    const std::string& cache_root, uint64_t graph_fingerprint,
    size_t shard_index, uint64_t shard_fingerprint,
    const std::string& provider_name, const ProximityOptions& opts,
    size_t edge_count) {
  if (cache_root.empty()) return std::nullopt;
  const std::string path =
      ShardCacheFilePath(cache_root, graph_fingerprint, shard_index,
                         shard_fingerprint, provider_name, opts);
  // The record frame's checksum comes first: truncated, appended-to, or
  // bit-flipped files all fail Open before any field is trusted.
  RecordReader r;
  if (!r.Open(path, kCacheMagic, kCacheVersion, "proxcache.shard").ok()) {
    return std::nullopt;
  }
  if (r.Get<uint64_t>() != graph_fingerprint ||
      r.Get<uint64_t>() != shard_index ||
      // The shard fingerprint is verified from the HEADER, not just the file
      // name: a file renamed or hash-colliding into place still cannot serve
      // stale data for a changed shard.
      r.Get<uint64_t>() != shard_fingerprint ||
      r.Get<uint64_t>() != edge_count) {
    return std::nullopt;
  }
  // The full option vector is compared field by field — a key-hash collision
  // in the directory name can only cause a spurious miss, never a wrong hit.
  for (uint64_t expected : OptionWords(opts)) {
    if (r.Get<uint64_t>() != expected) return std::nullopt;
  }
  std::string name(r.GetCount(1), '\0');
  r.GetBytes(name.data(), name.size());
  if (!r.ok() || name != provider_name) return std::nullopt;

  ShardProximity out;
  if (r.remaining() != 2 * edge_count * sizeof(double)) return std::nullopt;
  out.forward.resize(edge_count);
  out.backward.resize(edge_count);
  r.GetBytes(out.forward.data(), edge_count * sizeof(double));
  r.GetBytes(out.backward.data(), edge_count * sizeof(double));
  if (!r.Done()) return std::nullopt;
  return out;
}

ShardProximity CachedShardProximities(const ShardView& view,
                                      size_t shard_index,
                                      uint64_t graph_fingerprint,
                                      const ProximityProvider& provider,
                                      const ProximityOptions& opts,
                                      ThreadPool& pool,
                                      const std::string& cache_root) {
  if (cache_root.empty()) return ComputeShardProximities(view, provider, pool);
  const uint64_t shard_fp = ShardFingerprint(view);
  if (auto cached = LoadShardProximityCache(
          cache_root, graph_fingerprint, shard_index, shard_fp,
          provider.Name(), opts, view.edge_count)) {
    return std::move(*cached);
  }
  ShardProximity prox = ComputeShardProximities(view, provider, pool);
  if (!prox.forward.empty()) {
    SaveShardProximityCache(cache_root, graph_fingerprint, shard_index,
                            shard_fp, provider.Name(), opts, prox);
  }
  return prox;
}

EdgeProximity ShardedEdgeProximities(GraphStore& store,
                                     const ProximityProvider& provider,
                                     const ProximityOptions& opts,
                                     ThreadPool& pool,
                                     const std::string& cache_root) {
  const size_t m = store.num_edges();
  std::vector<double> forward(m), backward(m);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    store.Prefetch(s + 1);
    const PinnedShard pin = store.Pin(s);
    const ShardView& view = pin.view();
    const ShardProximity sp = CachedShardProximities(
        view, s, store.fingerprint(), provider, opts, pool, cache_root);
    SEPRIV_CHECK(sp.forward.size() == view.edge_count,
                 "shard %zu proximity size %zu != edge count %zu", s,
                 sp.forward.size(), view.edge_count);
    std::copy(sp.forward.begin(), sp.forward.end(),
              forward.begin() + static_cast<ptrdiff_t>(view.edge_begin));
    std::copy(sp.backward.begin(), sp.backward.end(),
              backward.begin() + static_cast<ptrdiff_t>(view.edge_begin));
  }
  return FinalizeEdgeProximities(forward, backward);
}

EdgeProximity CachedEdgeProximities(const Graph& graph,
                                    const ProximityProvider& provider,
                                    const ProximityOptions& opts,
                                    size_t num_threads,
                                    const std::string& cache_dir) {
  InMemoryGraphStore store(graph, 1);
  ThreadPool pool(ThreadPool::ResolveThreads(num_threads));
  return ShardedEdgeProximities(store, provider, opts, pool, cache_dir);
}

}  // namespace sepriv
