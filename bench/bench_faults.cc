// Fault-injection benchmark: out-of-core training throughput under injected
// IO fault rates, and the latency of crash recovery.
//
// Part 1 shards a Barabási–Albert graph and runs TryTrainOutOfCore at
// page-read fault rates 0 / 1% / 5% ("page_file.read=err~P@seed"): the
// buffer pool's bounded retries absorb the faults, so every completed run
// must stay BIT-IDENTICAL to the fault-free one — the benchmark measures
// what that absorption costs (wall time, retry counters). A run that hits
// the same fault kMaxIoAttempts times in a row degrades to a structured
// error, which is recorded, not crashed on.
//
// Part 2 measures the crash-recovery path: checkpoint save and load latency
// at model scale, and a resume-from-last-epoch run versus the full retrain
// it replaces.
//
// Environment knobs:
//   SEPRIV_BENCH_FAULT_NODES   graph size            (default 2000)
//   SEPRIV_BENCH_FAULT_DIM     embedding dimension   (default 16)
//   SEPRIV_BENCH_FAULT_EPOCHS  training epochs       (default 4)
//   SEPRIV_BENCH_FAULT_SHARDS  shard count           (default 8)
//   SEPRIV_BENCH_FAULT_DIR     scratch dir (default /tmp/sepriv_faults)
//
// `--json <path>` writes the rows machine-readably (bench_json.h).

#include <sys/stat.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "core/checkpoint.h"
#include "core/se_privgemb.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "util/digest.h"
#include "util/env.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  return sepriv::ParseSizeEnv(name, /*max=*/1000000000, fallback);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sepriv;

  const size_t nodes = EnvSize("SEPRIV_BENCH_FAULT_NODES", 2000);
  const size_t dim = EnvSize("SEPRIV_BENCH_FAULT_DIM", 16);
  const size_t epochs = EnvSize("SEPRIV_BENCH_FAULT_EPOCHS", 4);
  const size_t num_shards = EnvSize("SEPRIV_BENCH_FAULT_SHARDS", 8);
  const std::string dir_env = GetStringEnv("SEPRIV_BENCH_FAULT_DIR");
  const std::string scratch =
      dir_env.empty() ? "/tmp/sepriv_faults" : dir_env;

  SePrivGEmbConfig cfg;
  cfg.dim = dim;
  cfg.batch_size = 128;
  cfg.max_epochs = epochs;
  cfg.negatives = 5;
  cfg.perturbation = PerturbationStrategy::kNonZero;
  cfg.seed = 7;
  cfg.proximity_cache_path = "-";

  // sepriv-privflow: allow(leak): public-by-policy: prints aggregate timing/retry metrics of synthetic benchmark graphs
  std::printf("# bench_faults\n");
  std::printf("# BA n=%zu dim=%zu epochs=%zu shards=%zu\n", nodes, dim,
              epochs, num_shards);

  Graph graph = BarabasiAlbert(nodes, 5, /*seed=*/1);
  std::printf("# graph: |V|=%zu |E|=%zu\n", graph.num_nodes(),
              graph.num_edges());

  ::mkdir(scratch.c_str(), 0755);  // EEXIST is fine
  const std::string shard_dir = scratch + "/graph";
  if (!WriteGraphShards(graph, shard_dir, num_shards)) {
    std::fprintf(stderr, "cannot write shards under %s\n", shard_dir.c_str());
    return 1;
  }

  bench::BenchJson json("bench_faults");
  json.AddMeta("nodes", std::to_string(nodes));
  json.AddMeta("dim", std::to_string(dim));
  json.AddMeta("epochs", std::to_string(epochs));
  json.AddMeta("shards", std::to_string(num_shards));

  // --- Part 1: training throughput under injected page-read fault rates ---

  std::printf("%-20s %10s %10s %12s %10s\n", "config", "time_s",
              "vs_clean", "read_retries", "identical");

  const double rates[] = {0.0, 0.01, 0.05};
  uint64_t clean_in = 0, clean_out = 0;
  double clean_s = 0.0;
  bool all_ok = true;

  for (const double rate : rates) {
    auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
    if (!store) {
      std::fprintf(stderr, "cannot open shard store %s\n", shard_dir.c_str());
      return 1;
    }
    OutOfCoreTrainOptions ooc;
    ooc.work_dir = scratch + "/work_r" + std::to_string(int(rate * 100));

    if (rate > 0.0) {
      char spec[64];
      std::snprintf(spec, sizeof(spec), "page_file.read=err~%g@777", rate);
      if (!failpoint::SetSpec(spec)) return 1;
    }

    WallTimer timer;
    TrainResult got;
    const Status status = TryTrainOutOfCore(
        *store, ProximityKind::kPreferentialAttachment, cfg, ooc, &got);
    const double secs = timer.ElapsedSeconds();
    failpoint::ClearAll();

    const BufferPoolStats stats = store->pool().stats();
    const bool completed = status.ok();
    bool identical = false;
    if (completed) {
      const uint64_t d_in = MatrixDigest(got.model.w_in);
      const uint64_t d_out = MatrixDigest(got.model.w_out);
      if (rate == 0.0) {
        clean_in = d_in;
        clean_out = d_out;
        clean_s = secs;
        identical = true;
      } else {
        // Absorbed faults must not change a single bit of the result.
        identical = d_in == clean_in && d_out == clean_out;
      }
    }
    // The clean run must complete and every completed run must match it; a
    // high-rate run MAY degrade to a structured error (never a crash).
    if (rate == 0.0) all_ok = all_ok && completed;
    if (completed) all_ok = all_ok && identical;

    char name[48];
    std::snprintf(name, sizeof(name), "train/fault_rate_%g", rate);
    std::printf("%-20s %10.2f %9.2fx %12" PRIu64 " %10s\n", name, secs,
                secs > 0 ? clean_s / secs : 0.0, stats.read_retries,
                completed ? (identical ? "yes" : "NO") : "(error)");
    // sepriv-privflow: allow(leak): public-by-policy: record carries config echoes and aggregate metrics of a synthetic graph
    json.AddRecord(
        name,
        {{"time_s", secs},
         {"completed", completed ? 1.0 : 0.0},
         {"identical", identical ? 1.0 : 0.0},
         {"read_retries", static_cast<double>(stats.read_retries)},
         {"pool_misses", static_cast<double>(stats.misses)}});
  }

  // --- Part 2: crash-recovery latency ---------------------------------------

  // Checkpoint save/load at model scale.
  const std::string ck_path = scratch + "/bench.ck";
  SePrivGEmb trainer(graph, ProximityKind::kPreferentialAttachment, cfg);

  TrainCheckpointOptions at_last;
  at_last.path = ck_path;
  // Save only at the last epoch boundary before completion, so the file
  // left behind simulates a crash one epoch short of the finish line.
  at_last.every_epochs = epochs > 1 ? epochs - 1 : 1;
  at_last.remove_on_success = false;

  WallTimer full_timer;
  TrainResult full;
  if (!trainer.TrainResumable(at_last, &full).ok()) {
    std::fprintf(stderr, "resumable reference run failed\n");
    return 1;
  }
  const double full_s = full_timer.ElapsedSeconds();

  TrainCheckpoint ck;
  WallTimer load_timer;
  if (!LoadCheckpoint(ck_path, &ck).ok()) {
    std::fprintf(stderr, "cannot load %s\n", ck_path.c_str());
    return 1;
  }
  const double load_s = load_timer.ElapsedSeconds();

  WallTimer save_timer;
  // sepriv-privflow: allow(leak): checkpoint written to the bench scratch dir for a synthetic graph; timing artifact only
  if (!SaveCheckpoint(ck, ck_path + ".copy").ok()) {
    std::fprintf(stderr, "cannot save %s.copy\n", ck_path.c_str());
    return 1;
  }
  const double save_s = save_timer.ElapsedSeconds();

  // Resume from the epoch-(E-1) checkpoint: the crash-restart path.
  SePrivGEmb resumed(graph, ProximityKind::kPreferentialAttachment, cfg);
  WallTimer resume_timer;
  TrainResult resumed_result;
  if (!resumed.ResumeFromCheckpoint(at_last, &resumed_result).ok()) {
    std::fprintf(stderr, "resume failed\n");
    return 1;
  }
  const double resume_s = resume_timer.ElapsedSeconds();
  const bool resume_identical =
      MatrixDigest(resumed_result.model.w_in) ==
          MatrixDigest(full.model.w_in) &&
      resumed_result.loss_curve == full.loss_curve;
  all_ok = all_ok && resume_identical;

  const double ck_mb =
      static_cast<double>((ck.w_in.size() + ck.w_out.size()) *
                          sizeof(double)) /
      (1024.0 * 1024.0);
  std::printf("# checkpoint %.2f MiB: save %.4fs load %.4fs\n", ck_mb,
              save_s, load_s);
  std::printf("# resume from epoch %" PRIu64 "/%zu: %.2fs vs full %.2fs "
              "(%.1fx), identical: %s\n",
              ck.epochs_run, epochs, resume_s, full_s,
              resume_s > 0 ? full_s / resume_s : 0.0,
              resume_identical ? "yes" : "NO");

  json.AddRecord("checkpoint/save", {{"time_s", save_s}, {"mib", ck_mb}});
  json.AddRecord("checkpoint/load", {{"time_s", load_s}, {"mib", ck_mb}});
  json.AddRecord("checkpoint/resume_last_epoch",
                 {{"time_s", resume_s},
                  {"full_train_s", full_s},
                  {"speedup_vs_full", resume_s > 0 ? full_s / resume_s : 0.0},
                  {"identical", resume_identical ? 1.0 : 0.0}});

  if (const char* path = bench::JsonPathFromArgs(argc, argv)) {
    // sepriv-privflow: allow(leak): public-by-policy: publishes the aggregate-metric records collected above
    if (!json.Write(path)) return 1;
  }
  return all_ok ? 0 : 1;
}
