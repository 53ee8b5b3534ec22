// Traced replay of the publish pipeline.
//
// The replay calls the library's public layer functions in exactly the order
// SePrivGEmb's constructor + Train() and SsdGraphStore::Open +
// TrainOutOfCore call them, wrapping each call in a span and taking counts
// at the same boundaries. Because it consumes the trainer's Rng stream in the
// same order, its Win/Wout are bit-identical to the untraced run; the runner
// reports both digests and run.py marks the run failed when they differ, so
// the replay cannot drift from the real pipeline unnoticed.

#ifndef SEPRIV_PERFBENCH_REPLAY_H_
#define SEPRIV_PERFBENCH_REPLAY_H_

#include <string>
#include <utility>
#include <vector>

#include "core/se_privgemb.h"
#include "graph/graph.h"
#include "proximity/proximity.h"
#include "trace.h"

namespace perfbench {

/// Pages of the out-of-core graph pool, in the publish and its replay alike.
inline constexpr size_t kGraphPoolPages = 4;

/// Every span name a replay may open; spans[0] is always the root
/// "publish". Each replay reports all of them, so a layer a workload does not
/// use reads an explicit 0 rather than going missing.
inline constexpr const char* kSpanNames[] = {
    "publish",         "proximity.precompute", "embedding.sample",
    "embedding.init",  "core.batch_draw",      "core.accumulate",
    "core.perturb",    "core.apply",           "core.checkpoint",
    "dp.account",
};

struct Replay {
  sepriv::TrainResult result;
  std::vector<Span> spans;  // spans[0] is the root "publish" span
  /// Per-layer counts, named as the per-layer metrics they become.
  std::vector<std::pair<std::string, double>> counters;
};

/// Size of the file at `path` in bytes; 0 when it cannot be read.
double FileBytes(const std::string& path);

/// SePrivGEmb(graph, preference, config) followed by Train().
Replay ReplayInMemory(const sepriv::Graph& graph,
                      sepriv::ProximityKind preference,
                      const sepriv::SePrivGEmbConfig& config);

/// SsdGraphStore::Open(shard_dir, kGraphPoolPages) followed by
/// TrainOutOfCore(store, kPreferentialAttachment, config, ooc).
Replay ReplayOutOfCore(const std::string& shard_dir,
                       const sepriv::SePrivGEmbConfig& config,
                       const sepriv::OutOfCoreTrainOptions& ooc);

}  // namespace perfbench

#endif  // SEPRIV_PERFBENCH_REPLAY_H_
