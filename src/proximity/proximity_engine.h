// Parallel proximity precomputation + persistent edge-weight cache.
//
// ComputeEdgeProximities (proximity.cc) walks every canonical edge twice
// through a single-row-cached provider — two serial O(|E|) passes that
// dominate trainer startup on large graphs now that the batch-gradient hot
// path is parallel. This engine has ONE pipeline for every storage backend:
// a GraphStore's shards are visited in order, and within a shard distinct
// SOURCE nodes are spread across a ThreadPool, each chunk querying its own
// ProximityProvider::Clone() so the per-clone row cache stays warm and no
// mutable state races. A resident Graph is the 1-shard InMemoryGraphStore
// case (CachedEdgeProximities), an SSD-backed graph the N-shard case. Because
// every provider's At() is a pure function of (i, j) — the sampled DeepWalk
// estimator derives its walks from a keyed per-source substream — the output
// is bit-identical to the serial engine for every shard count and thread
// count, including the EdgeProximity min/max/normalized fields (the
// reduction tail is the literal FinalizeEdgeProximities shared with the
// serial path).
//
// The persistent cache amortises the precompute across repeated runs
// (parameter sweeps, the bench/ family, restarted trainers). It has one
// layout: one versioned binary file per shard,
//   <cache_root>/proxshard_<graph-fp>_<key>/shard_<i>_<shard-fp>.bin
// keyed by the graph fingerprint, provider Name(), the full
// ProximityOptions and the shard's own fingerprint. Each file is an SPXS
// version-2 record in the checksummed frame checkpoints and shard manifests
// share (util/record_file.h); version-1 files fail its checks and are
// recomputed. A whole-graph entry is simply the shard_0 file of a 1-shard
// store. Stale, truncated, corrupt, or mismatched files are detected and
// recomputed — never trusted. Every front end constructs its ThreadPool up
// front, so a warm hit also spins up (and joins) the pool's workers.

#ifndef SEPRIVGEMB_PROXIMITY_PROXIMITY_ENGINE_H_
#define SEPRIVGEMB_PROXIMITY_PROXIMITY_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/shard.h"
#include "proximity/proximity.h"
#include "util/thread_pool.h"

namespace sepriv {

/// 64-bit digest of every ProximityOptions field. Part of the cache key, so
/// any option change — even one the current provider ignores — invalidates
/// conservatively (a spurious recompute, never a wrong hit).
uint64_t HashProximityOptions(const ProximityOptions& opts);

/// Whole-graph front end: runs ShardedEdgeProximities over a 1-shard
/// InMemoryGraphStore of `graph` on a pool of `num_threads` workers (0
/// resolves to hardware concurrency), cache-through when `cache_dir` is
/// non-empty. The returned EdgeProximity is bit-identical whether it came
/// from the cold (computed) or warm (loaded) path.
EdgeProximity CachedEdgeProximities(const Graph& graph,
                                    const ProximityProvider& provider,
                                    const ProximityOptions& opts,
                                    size_t num_threads,
                                    const std::string& cache_dir);

// ---------------------------------------------------------------------------
// Shard-granular proximity passes
// ---------------------------------------------------------------------------

/// Raw directional proximities of ONE shard's canonical edges, rebased to
/// [0, edge_count): forward[k] = At(u, v), backward[k] = At(v, u). The
/// global floor/scale reduction is deliberately absent — it needs every
/// shard, and ProximityFinalizer streams it without holding them.
struct ShardProximity {
  std::vector<double> forward;
  std::vector<double> backward;
};

/// Evaluates the provider on one shard's edges using the pool's workers: the
/// forward pass is chunked by source u, the reverse pass by v, and a chunk
/// boundary never splits one source's edges. A 1-thread pool runs both
/// passes inline. Per-edge values equal ComputeEdgeProximities' on the same
/// edges: At() is pure in (i, j).
ShardProximity ComputeShardProximities(const ShardView& view,
                                       const ProximityProvider& provider,
                                       ThreadPool& pool);

/// Directory (no root) a graph+provider+options' per-shard cache entries
/// live under: "proxshard_<graph-fingerprint>_<key-hash>". The GRAPH
/// fingerprint is part of the directory identity, so entries can never be
/// reused across graphs; the per-shard file name and header then carry the
/// SHARD fingerprint, so within one graph a stale or foreign shard file is
/// a miss for exactly that shard — the others stay warm.
std::string ShardProximityCacheDirName(uint64_t graph_fingerprint,
                                       const std::string& provider_name,
                                       const ProximityOptions& opts);

/// Saves one shard's table under cache_root (subdirectory created on
/// demand), write-to-temp + atomic rename. Returns false on I/O failure.
bool SaveShardProximityCache(const std::string& cache_root,
                             uint64_t graph_fingerprint, size_t shard_index,
                             uint64_t shard_fingerprint,
                             const std::string& provider_name,
                             const ProximityOptions& opts,
                             const ShardProximity& prox);

/// Loads one shard's table; nullopt — never stale data — when missing,
/// truncated, checksum-corrupt, the wrong format version, or keyed to a
/// different graph/shard/provider/options/edge-count.
std::optional<ShardProximity> LoadShardProximityCache(
    const std::string& cache_root, uint64_t graph_fingerprint,
    size_t shard_index, uint64_t shard_fingerprint,
    const std::string& provider_name, const ProximityOptions& opts,
    size_t edge_count);

/// Cache-through per-shard pass: load when valid, else compute on `pool`
/// and save. Empty cache_root disables caching.
ShardProximity CachedShardProximities(const ShardView& view,
                                      size_t shard_index,
                                      uint64_t graph_fingerprint,
                                      const ProximityProvider& provider,
                                      const ProximityOptions& opts,
                                      ThreadPool& pool,
                                      const std::string& cache_root);

/// Whole-table front end over the sharded passes: iterates the store's
/// shards SEQUENTIALLY (prefetching shard s+1 while computing shard s, so at
/// most two shards are resident), then runs the shared finalisation.
/// Bit-identical to ComputeEdgeProximities on the equivalent graph for every
/// shard count, thread count, and cache state.
/// Note the returned table is O(|E|) — out-of-core consumers stream through
/// CachedShardProximities + ProximityFinalizer instead.
EdgeProximity ShardedEdgeProximities(GraphStore& store,
                                     const ProximityProvider& provider,
                                     const ProximityOptions& opts,
                                     ThreadPool& pool,
                                     const std::string& cache_root);

}  // namespace sepriv

#endif  // SEPRIVGEMB_PROXIMITY_PROXIMITY_ENGINE_H_
