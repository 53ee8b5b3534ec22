#include "graph/io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include <sys/stat.h>

#include "util/check.h"

namespace sepriv {
namespace {

// Literal ids are bounded to keep a mistyped file from allocating a graph
// with billions of isolated nodes; sparse exports should use remap_ids.
constexpr uint64_t kMaxLiteralNodeId = 100'000'000;

// Strict non-negative token parse. `ss >> u` on "-1" would wrap to a huge
// uint64_t (strtoull semantics) which remap_ids=true then happily interns
// as a phantom node; negative ids must be a parse FAILURE, not a wrap.
bool ParseNodeId(const std::string& tok, uint64_t* out) {
  if (tok.empty() || tok[0] == '-' || tok[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size() || errno != 0) return false;
  *out = parsed;
  return true;
}

/// Streams the parsed (u, v) id pairs of every edge line to `fn`, applying
/// the remap exactly as ReadEdgeList does: ids are interned in line order,
/// including both endpoints of self-loop lines (the loop is dropped later,
/// its ids are not). With build_remap = false unknown ids are a failure —
/// the file changed between passes. Returns false on I/O or parse errors.
// Determinism audit (sepriv-lint unordered-iteration): every remap table in
// this file is lookup/insert only — new ids are assigned in first-SEEN order
// (remap->size() at insert time), which depends on the file, never on hash
// iteration order. Nothing iterates the maps.
template <typename Fn>
bool ScanEdgeLines(const std::string& path, bool remap_ids,
                   std::unordered_map<uint64_t, NodeId>* remap,
                   bool build_remap, uint64_t* max_id, Fn&& fn) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ss(line);
    std::string tu, tv;
    uint64_t u = 0, v = 0;
    if (!(ss >> tu >> tv) || !ParseNodeId(tu, &u) || !ParseNodeId(tv, &v))
      return false;  // malformed line (missing, negative, non-numeric)
    if (remap_ids) {
      for (uint64_t* id : {&u, &v}) {
        if (build_remap) {
          auto [it, inserted] =
              remap->emplace(*id, static_cast<NodeId>(remap->size()));
          *id = it->second;
        } else {
          const auto it = remap->find(*id);
          if (it == remap->end()) return false;
          *id = it->second;
        }
      }
    } else {
      if (u > kMaxLiteralNodeId || v > kMaxLiteralNodeId) return false;
    }
    if (max_id != nullptr) *max_id = std::max({*max_id, u, v});
    fn(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return true;
}

}  // namespace

std::optional<Graph> ReadEdgeList(const std::string& path, bool remap_ids) {
  std::vector<Edge> edges;
  std::unordered_map<uint64_t, NodeId> remap;
  uint64_t max_id = 0;
  if (!ScanEdgeLines(path, remap_ids, &remap, /*build_remap=*/true, &max_id,
                     [&edges](NodeId u, NodeId v) {
                       edges.push_back({u, v});
                     })) {
    return std::nullopt;
  }
  const size_t n = remap_ids ? remap.size()
                             : (edges.empty() ? 0 : static_cast<size_t>(max_id) + 1);
  return Graph::FromEdges(n, std::move(edges));
}

std::optional<ShardManifest> ReadEdgeListToShards(const std::string& path,
                                                  const std::string& out_dir,
                                                  size_t num_shards,
                                                  bool remap_ids,
                                                  size_t bytes_budget) {
  bytes_budget = std::max<size_t>(bytes_budget, size_t{1} << 16);

  // Pass 1: raw (pre-dedup) canonical degrees + node count. Node-level
  // state only; no edge is stored.
  std::unordered_map<uint64_t, NodeId> remap;
  uint64_t max_id = 0;
  bool any_line = false;
  std::vector<uint64_t> raw_deg;
  if (!ScanEdgeLines(path, remap_ids, &remap, /*build_remap=*/true, &max_id,
                     [&](NodeId u, NodeId v) {
                       any_line = true;
                       if (u == v) return;  // self-loop: dropped, ids kept
                       const NodeId hi = std::max(u, v);
                       if (hi >= raw_deg.size()) raw_deg.resize(hi + 1, 0);
                       ++raw_deg[u];
                       ++raw_deg[v];
                     })) {
    return std::nullopt;
  }
  const size_t n = remap_ids
                       ? remap.size()
                       : (any_line ? static_cast<size_t>(max_id) + 1 : 0);
  raw_deg.resize(n, 0);

  // Plan node groups (working-set bound) and shard cuts (balance) from the
  // raw degrees. Raw counts only over-estimate deduped ones, so sizing the
  // page to the raw payload is always sufficient.
  uint64_t total_raw = 0;
  for (uint64_t d : raw_deg) total_raw += d;
  const size_t requested = std::clamp<size_t>(num_shards, 1, std::max<size_t>(n, 1));
  const uint64_t shard_target = std::max<uint64_t>(1, total_raw / requested);

  struct PlannedShard {
    size_t node_begin, node_end;
    uint64_t raw_adj;
  };
  std::vector<PlannedShard> plan;
  std::vector<size_t> group_end_shard;  // plan index one past each group
  if (n == 0) {
    plan.push_back({0, 0, 0});  // empty graph: one empty shard
    group_end_shard.push_back(1);
  } else {
    size_t group_begin = 0;
    while (group_begin < n) {
      size_t group_end = group_begin;
      uint64_t group_bytes = 0;
      size_t shard_begin = group_begin;
      uint64_t shard_raw = 0;
      while (group_end < n) {
        const uint64_t node_bytes =
            raw_deg[group_end] * sizeof(NodeId) + sizeof(uint64_t);
        if (group_end > group_begin && group_bytes + node_bytes > bytes_budget)
          break;
        group_bytes += node_bytes;
        shard_raw += raw_deg[group_end];
        ++group_end;
        if (shard_raw >= shard_target && group_end < n) {
          plan.push_back({shard_begin, group_end, shard_raw});
          shard_begin = group_end;
          shard_raw = 0;
        }
      }
      // Trailing partial shard (non-empty except when the budget break fell
      // exactly on a shard cut).
      if (group_end > shard_begin) {
        plan.push_back({shard_begin, group_end, shard_raw});
      }
      group_end_shard.push_back(plan.size());
      group_begin = group_end;
    }
  }

  uint64_t max_payload = internal::ShardPayloadBytes(0, 0);
  for (const PlannedShard& s : plan) {
    max_payload = std::max<uint64_t>(
        max_payload,
        internal::ShardPayloadBytes(s.node_end - s.node_begin, s.raw_adj));
  }
  constexpr size_t kPageAlign = 4096;
  const size_t page_size =
      static_cast<size_t>((max_payload + kPageAlign - 1) / kPageAlign *
                          kPageAlign);

  ::mkdir(out_dir.c_str(), 0755);
  auto file = PageFile::Create(out_dir + "/graph.shards", page_size);
  if (file == nullptr) return std::nullopt;

  // Pass 2: one file scan per group. Build the group's rows (with
  // duplicates) into a budget-bounded buffer, dedup in place, and emit its
  // shards with running global offsets and edge numbering.
  ShardManifest manifest;
  manifest.num_nodes = n;
  manifest.page_size = page_size;
  uint64_t global_adj = 0;
  uint64_t edge_cursor = 0;
  std::vector<std::byte> page(page_size);
  size_t plan_begin = 0;
  for (size_t g = 0; g < group_end_shard.size(); ++g) {
    const size_t plan_end = group_end_shard[g];
    const size_t ga = plan[plan_begin].node_begin;
    const size_t gb = plan[plan_end - 1].node_end;
    const size_t nodes_g = gb - ga;

    std::vector<uint64_t> start(nodes_g + 1, 0);
    for (size_t i = 0; i < nodes_g; ++i) start[i + 1] = start[i] + raw_deg[ga + i];
    std::vector<NodeId> entries(start[nodes_g]);
    std::vector<uint64_t> cursor(start.begin(), start.end() - 1);
    const bool scan_ok = ScanEdgeLines(
        path, remap_ids, &remap, /*build_remap=*/false, nullptr,
        [&](NodeId u, NodeId v) {
          if (u == v) return;
          if (u >= ga && u < gb) entries[cursor[u - ga]++] = v;
          if (v >= ga && v < gb) entries[cursor[v - ga]++] = u;
        });
    if (!scan_ok) return std::nullopt;
    for (size_t i = 0; i < nodes_g; ++i) {
      if (cursor[i] != start[i + 1]) return std::nullopt;  // file changed
    }

    // Dedup each row in place; offsets become GLOBAL deduped values.
    std::vector<uint64_t> off64(nodes_g + 1);
    off64[0] = global_adj;
    size_t write = 0;
    for (size_t i = 0; i < nodes_g; ++i) {
      const size_t lo = start[i], hi = start[i + 1];
      std::sort(entries.begin() + static_cast<ptrdiff_t>(lo),
                entries.begin() + static_cast<ptrdiff_t>(hi));
      size_t len = 0;
      for (size_t k = lo; k < hi; ++k) {
        if (len == 0 || entries[write + len - 1] != entries[k]) {
          entries[write + len++] = entries[k];
        }
      }
      write += len;
      off64[i + 1] = off64[i] + len;
    }
    global_adj = off64[nodes_g];

    for (size_t p = plan_begin; p < plan_end; ++p) {
      const PlannedShard& s = plan[p];
      ShardView view;
      view.node_begin = static_cast<NodeId>(s.node_begin);
      view.node_end = static_cast<NodeId>(s.node_end);
      view.adj_begin = off64[s.node_begin - ga];
      view.edge_begin = edge_cursor;
      view.edge_count = 0;  // SerializeShardPage counts canonical edges
      view.offsets = off64.data() + (s.node_begin - ga);
      view.adjacency = entries.data() + (off64[s.node_begin - ga] - off64[0]);
      const GraphShardInfo info = internal::SerializeShardPage(view, page);
      size_t page_index = 0;
      if (!file->TryAppendPage(page.data(), &page_index).ok()) {
        return std::nullopt;
      }
      manifest.shards.push_back(info);
      edge_cursor += info.edge_count;
    }
    plan_begin = plan_end;
  }
  if (global_adj % 2 != 0) return std::nullopt;
  manifest.num_edges = global_adj / 2;
  if (edge_cursor != manifest.num_edges) return std::nullopt;
  if (!file->TrySync().ok()) return std::nullopt;
  file.reset();

  // The whole-graph fingerprint folds num_edges BEFORE the offsets, so it
  // cannot be streamed above; recompute it from the (verified) shards with
  // one cheap sequential pass, then publish the final manifest.
  if (!internal::SaveShardManifest(manifest, out_dir)) return std::nullopt;
  auto store = SsdGraphStore::Open(out_dir, /*budget_pages=*/2);
  if (store == nullptr) return std::nullopt;
  manifest.graph_fingerprint = ComposeGraphFingerprint(*store);
  store.reset();
  if (!internal::SaveShardManifest(manifest, out_dir)) return std::nullopt;
  return manifest;
}

bool WriteEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# seprivgemb edge list: " << graph.Summary() << "\n";
  for (const Edge& e : graph.Edges()) out << e.u << " " << e.v << "\n";
  return static_cast<bool>(out);
}

}  // namespace sepriv
