// Calibrated synthetic stand-ins for the six evaluation datasets.
//
// The paper evaluates on Chameleon, PPI, Power, Arxiv, BlogCatalog and DBLP,
// all fetched from the web. This environment is offline, so each dataset is
// replaced by a generator matched on |V|, |E| and coarse structure
// (degree-tail, clustering, diameter). DatasetId below names each
// substitution; MakeDataset (graph/datasets.cc) records why each preserves
// the evaluated behaviour. The `scale`
// parameter shrinks |V| proportionally (edge parameters fixed) so benchmark
// binaries can run a FAST profile.

#ifndef SEPRIVGEMB_GRAPH_DATASETS_H_
#define SEPRIVGEMB_GRAPH_DATASETS_H_

#include <string>
#include <vector>

#include "graph/graph.h"

namespace sepriv {

enum class DatasetId {
  kChameleon,    // wiki page net: 2,277 / 31,421  -> power-law cluster
  kPpi,          // protein net:   3,890 / 76,584  -> Barabási–Albert
  kPower,        // western grid:  4,941 /  6,594  -> Watts–Strogatz + chords
  kArxiv,        // collaboration: 5,242 / 14,496  -> power-law cluster
  kBlogCatalog,  // social:       10,312 / 333,983 -> Barabási–Albert
  kDblp,         // scholarly: 2.24M / 4.35M -> SBM, scaled to 20k nodes
};

/// Paper-reported sizes (for reporting alongside measured stand-in sizes).
struct DatasetSpec {
  DatasetId id;
  const char* name;
  size_t paper_nodes;
  size_t paper_edges;
};

/// All six datasets in paper order.
const std::vector<DatasetSpec>& AllDatasets();

/// Display name, e.g. "Chameleon".
std::string DatasetName(DatasetId id);

/// Builds the stand-in graph. `scale` in (0, 1] shrinks node count
/// proportionally (DBLP is additionally capped at 20k nodes regardless of
/// scale — see the kDblp case in graph/datasets.cc). Deterministic per
/// (id, scale, seed).
Graph MakeDataset(DatasetId id, double scale = 1.0, uint64_t seed = 42);

}  // namespace sepriv

#endif  // SEPRIVGEMB_GRAPH_DATASETS_H_
