// perfbench_runner: runs one benchmark workload of the SE-PrivGEmb publish
// pipeline (graph in, private Win/Wout out, utility scored) and writes the raw
// measurements as one JSON object to --out. perfbench/run.py builds this
// binary, runs it, checks the outputs and reduces the measurements to the
// metrics BENCHMARK.json declares.
//
//   perfbench_runner <e2e|trace|reference> --workload <name> --seed <n>
//                    --seconds <s> --workdir <dir> --out <file>
//
// Modes:
//   e2e        publish untraced while another publish fits in --seconds (at
//              least once);
//   trace      alternate an untraced publish with a traced replay (replay.h)
//              while another pair fits in --seconds;
//   reference  out-of-core workload only: publish the same graph and config
//              through the in-memory trainer, for the digest comparison.
//
// In e2e and trace mode the inputs are rebuilt after every publish, for
// kSetupShare of that publish's time, and the rebuilds are what set-up time
// is measured on (see SampleSetup).
//
// Every seed the run uses (graph, trainer, evaluation) derives from --seed;
// the library receives only the generated inputs.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "core/se_privgemb.h"
#include "eval/strucequ.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "linalg/kernels.h"
#include "linalg/simd/cpu_features.h"
#include "replay.h"
#include "util/digest.h"
#include "util/env.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace sepriv;
namespace fs = std::filesystem;

// Fixed by the benchmark, never by the environment.
constexpr size_t kBaEdgesPerNode = 5;
constexpr size_t kShards = 16;
constexpr size_t kSamplePoolPages = 4;
constexpr size_t kCheckpointEvery = 50;
// Share of each publish's time spent rebuilding the inputs after it.
constexpr double kSetupShare = 0.05;

struct Workload {
  const char* name;
  size_t nodes;
  size_t epochs;
  ProximityKind preference;
  bool out_of_core;
  // Trainer and linalg threads. The out-of-core epoch loop runs one
  // ParallelFor per sample-store shard in a batch, ~20 joins of a few samples
  // each per epoch: with 4 threads it ran no faster than with 1, and its time
  // followed the host scheduler's wake-up latency (4.4–8.5 s for 400 epochs
  // against 4.5–4.7 s on one thread). Digests do not depend on the count.
  size_t threads;
};

constexpr Workload kWorkloads[] = {
    {"se-katz-ba10k", 10000, 200, ProximityKind::kKatz, false, 4},
    {"ooc-deg-ba20k", 20000, 200, ProximityKind::kPreferentialAttachment,
     true, 1},
};

struct Args {
  std::string mode;
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  std::string workdir;
  std::string out;
};

/// Independent streams of the benchmark seed.
enum SeedStream : uint64_t { kGraphSeed = 1, kTrainSeed, kEvalSeed };

uint64_t DeriveSeed(uint64_t seed, SeedStream stream) {
  return HashMix(HashMix(0x5e9b1e7c4a11f00dULL, seed), stream);
}

SePrivGEmbConfig TrainerConfig(const Workload& w, uint64_t seed) {
  SePrivGEmbConfig cfg;
  cfg.dim = 128;
  cfg.batch_size = 128;
  cfg.negatives = 5;
  cfg.max_epochs = w.epochs;
  cfg.perturbation = PerturbationStrategy::kNonZero;
  cfg.noise_multiplier = 5.0;
  cfg.clip_threshold = 2.0;
  cfg.epsilon = 3.5;
  cfg.delta = 1e-5;
  cfg.seed = DeriveSeed(seed, kTrainSeed);
  cfg.num_threads = w.threads;
  cfg.proximity_cache_path = "-";  // cold precompute on every publish
  return cfg;
}

/// The inputs of one workload and the time it took to build them.
struct Inputs {
  Graph graph;
  std::string shard_dir;  // out of core: where the shards were written
  double generate_s = 0.0;
  double write_shards_s = 0.0;
  double shard_bytes = 0.0;

  double setup_s() const { return generate_s + write_shards_s; }
};

Inputs Setup(const Workload& w, uint64_t seed, const std::string& shard_dir) {
  Inputs in;
  WallTimer t;
  in.graph = BarabasiAlbert(w.nodes, kBaEdgesPerNode,
                            DeriveSeed(seed, kGraphSeed));
  in.generate_s = t.ElapsedSeconds();
  if (w.out_of_core) {
    in.shard_dir = shard_dir;
    t.Reset();
    SEPRIV_CHECK(WriteGraphShards(in.graph, shard_dir, kShards),
                 "cannot write shards under %s", shard_dir.c_str());
    in.write_shards_s = t.ElapsedSeconds();
    in.shard_bytes = FileBytes(shard_dir + "/graph.shards");
  }
  return in;
}

OutOfCoreTrainOptions OutOfCoreOptions(const std::string& work_dir) {
  OutOfCoreTrainOptions ooc;
  ooc.work_dir = work_dir;
  ooc.sample_pool_pages = kSamplePoolPages;
  ooc.checkpoint.path = work_dir + "/train.ckpt";
  ooc.checkpoint.every_epochs = kCheckpointEvery;
  return ooc;
}

/// One untraced publish; `*seconds` is the wall time from the input graph to
/// the published model.
TrainResult Publish(const Workload& w, const Inputs& in,
                    const SePrivGEmbConfig& cfg, const std::string& work_dir,
                    double* seconds) {
  WallTimer t;
  if (!w.out_of_core) {
    SePrivGEmb trainer(in.graph, w.preference, cfg);
    TrainResult result = trainer.Train();
    *seconds = t.ElapsedSeconds();
    return result;
  }
  auto store = SsdGraphStore::Open(in.shard_dir, kGraphPoolPages);
  SEPRIV_CHECK(store != nullptr, "cannot open %s", in.shard_dir.c_str());
  TrainResult result = TrainOutOfCore(*store, w.preference, cfg,
                                      OutOfCoreOptions(work_dir));
  *seconds = t.ElapsedSeconds();
  return result;
}

/// StrucEqu of the published Win, and its eval seconds.
double Utility(const Inputs& in, uint64_t seed, const TrainResult& r,
               double* seconds) {
  WallTimer t;
  StrucEquOptions opts;
  opts.seed = DeriveSeed(seed, kEvalSeed);
  const double u = StrucEqu(in.graph, r.model.w_in, opts);
  *seconds = t.ElapsedSeconds();
  return u;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// Appends to a JSON text; names and strings are plain ASCII identifiers.
class Json {
 public:
  /// Inserts an already formatted JSON value.
  Json& Raw(const std::string& value) {
    Sep();
    text_ += value;
    return *this;
  }
  Json& Key(const std::string& k) {
    Sep();
    text_ += '"' + k + "\":";
    fresh_ = true;
    return *this;
  }
  Json& Str(const std::string& s) {
    Sep();
    text_ += '"' + s + '"';
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[32];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    text_ += buf;
    return *this;
  }
  Json& Open(char c) {
    Sep();
    text_ += c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    text_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return text_; }

 private:
  void Sep() {
    if (!fresh_) text_ += ',';
    fresh_ = false;
  }
  std::string text_;
  bool fresh_ = true;
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Scores the published model and appends its result object to `j`: the
/// fields shared by untraced publishes and traced replays.
void Record(Json& j, const Inputs& in, uint64_t seed,
            const SePrivGEmbConfig& cfg, const TrainResult& r,
            double publish_s) {
  double eval_s = 0.0;
  const double utility = Utility(in, seed, r, &eval_s);
  j.Key("publish_s").Num(publish_s);
  j.Key("digest").Str(Hex(MatrixDigest(r.model.w_in)) + ":" +
                      Hex(MatrixDigest(r.model.w_out)));
  j.Key("epochs_run").Num(static_cast<double>(r.epochs_run));
  j.Key("epochs_configured").Num(static_cast<double>(cfg.max_epochs));
  j.Key("spent_epsilon").Num(r.spent_epsilon);
  j.Key("target_epsilon").Num(cfg.epsilon);
  j.Key("utility").Num(utility);
  j.Key("eval_s").Num(eval_s);
}

void WriteSetup(Json& j, const Inputs& in) {
  j.Open('{');
  j.Key("setup_s").Num(in.setup_s());
  j.Key("generate_s").Num(in.generate_s);
  j.Key("write_shards_s").Num(in.write_shards_s);
  j.Key("shard_bytes").Num(in.shard_bytes);
  j.Close('}');
}

void WriteReplay(Json& j, const Replay& rp) {
  j.Key("spans").Open('[');
  for (const Span& s : rp.spans) {
    j.Open('[').Str(s.name).Num(s.start).Num(s.end).Num(s.parent).Close(']');
  }
  j.Close(']');
  j.Key("span_names").Open('[');
  for (const char* name : kSpanNames) j.Str(name);
  j.Close(']');
  j.Key("counters").Open('{');
  for (const auto& [name, value] : rp.counters) j.Key(name).Num(value);
  j.Close('}');
}

const char* CompilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// One untraced publish in a fresh work directory, recorded in `j`.
void PublishAndRecord(Json& j, const Args& a, const Workload& w,
                      const Inputs& in, const SePrivGEmbConfig& cfg,
                      const std::string& work_dir) {
  double publish_s = 0.0;
  const TrainResult r = Publish(w, in, cfg, work_dir, &publish_s);
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  j.Open('{');
  Record(j, in, a.seed, cfg, r, publish_s);
  j.Close('}');
}

/// Rebuilds the inputs, each time from scratch, until `budget_s` has passed
/// (at least once), and records every build in `setups`. The builds are
/// thrown away; the publishes keep using the first set of inputs.
///
/// One build takes 10–100 ms, and a burst of host load can slow every build
/// in a stretch of seconds. Called after every publish, the builds are
/// spread over the whole run, and run.py reports the fastest of them.
void SampleSetup(Json& setups, const Args& a, double budget_s) {
  const std::string shard_dir = a.workdir + "/setup-sample";
  WallTimer t;
  do {
    WriteSetup(setups, Setup(*a.workload, a.seed, shard_dir));
    std::error_code ec;
    fs::remove_all(shard_dir, ec);
  } while (t.ElapsedSeconds() < budget_s);
}

void RunE2e(const Args& a, Json& j) {
  const Workload& w = *a.workload;
  const SePrivGEmbConfig cfg = TrainerConfig(w, a.seed);
  Json setups;
  setups.Open('[');
  const Inputs in = Setup(w, a.seed, a.workdir + "/graph");

  j.Key("publishes").Open('[');
  WallTimer clock;
  int i = 0;
  double last_s = 0.0;
  do {
    WallTimer t;
    PublishAndRecord(j, a, w, in, cfg,
                     a.workdir + "/publish-" + std::to_string(i++));
    SampleSetup(setups, a, kSetupShare * t.ElapsedSeconds());
    last_s = t.ElapsedSeconds();
  } while (clock.ElapsedSeconds() + last_s <= a.seconds);
  j.Close(']');
  setups.Close(']');
  j.Key("setup").Raw(setups.text());
}

void RunTrace(const Args& a, Json& j) {
  const Workload& w = *a.workload;
  const SePrivGEmbConfig cfg = TrainerConfig(w, a.seed);
  Json setups;
  setups.Open('[');
  const Inputs in = Setup(w, a.seed, a.workdir + "/graph");

  // Each replay is reduced to its JSON as soon as it ends, so at most one
  // model is resident at a time.
  Json replays;
  replays.Open('[');
  j.Key("publishes").Open('[');
  WallTimer clock;
  int i = 0;
  double last_s = 0.0;
  do {
    WallTimer t;
    PublishAndRecord(j, a, w, in, cfg,
                     a.workdir + "/publish-" + std::to_string(i));
    const std::string replay_dir = a.workdir + "/replay-" + std::to_string(i);
    const Replay rp =
        w.out_of_core
            ? ReplayOutOfCore(in.shard_dir, cfg, OutOfCoreOptions(replay_dir))
            : ReplayInMemory(in.graph, w.preference, cfg);
    std::error_code ec;
    fs::remove_all(replay_dir, ec);
    const Span& root = rp.spans.front();
    replays.Open('{');
    Record(replays, in, a.seed, cfg, rp.result, root.end - root.start);
    WriteReplay(replays, rp);
    replays.Close('}');
    ++i;
    SampleSetup(setups, a, kSetupShare * t.ElapsedSeconds());
    last_s = t.ElapsedSeconds();
  } while (clock.ElapsedSeconds() + last_s <= a.seconds);
  j.Close(']');
  replays.Close(']');
  j.Key("replays").Raw(replays.text());
  setups.Close(']');
  j.Key("setup").Raw(setups.text());
}

void RunReference(const Args& a, Json& j) {
  Workload in_memory = *a.workload;
  SEPRIV_CHECK(in_memory.out_of_core,
               "reference mode is for out-of-core workloads");
  in_memory.out_of_core = false;
  const Inputs in = Setup(in_memory, a.seed, "");
  j.Key("publishes").Open('[');
  PublishAndRecord(j, a, in_memory, in, TrainerConfig(in_memory, a.seed), "");
  j.Close(']');
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2 || argc % 2 != 0) return false;  // mode, then key/value pairs
  a->mode = argv[1];
  std::string workload;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      char* end = nullptr;
      a->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || value[0] == '-') return false;
    } else if (key == "--seconds") {
      char* end = nullptr;
      a->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !std::isfinite(a->seconds) ||
          a->seconds < 0.0) {
        return false;
      }
    } else if (key == "--workdir") {
      a->workdir = value;
    } else if (key == "--out") {
      a->out = value;
    } else {
      return false;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) a->workload = &w;
  }
  return (a->mode == "e2e" || a->mode == "trace" || a->mode == "reference") &&
         a->workload != nullptr && !a->workdir.empty() && !a->out.empty();
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench_runner: refusing to measure a build without "
               "NDEBUG (debug checks change the program)\n");
  return 2;
#endif
  if (!GetStringEnv("SEPRIV_FAILPOINTS").empty()) {
    std::fprintf(stderr,
                 "perfbench_runner: refusing to run with SEPRIV_FAILPOINTS "
                 "set (fault injection changes the program)\n");
    return 2;
  }
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner <e2e|trace|reference> --workload "
                 "<name> --seed <n> --seconds <s> --workdir <dir> --out "
                 "<file>\n");
    return 2;
  }
  kernels::SetLinalgThreads(a.workload->threads);
  fs::create_directories(a.workdir);

  Json j;
  j.Open('{');
  j.Key("workload").Str(a.workload->name);
  j.Key("mode").Str(a.mode);
  if (a.mode == "e2e") {
    RunE2e(a, j);
  } else if (a.mode == "trace") {
    RunTrace(a, j);
  } else {
    RunReference(a, j);
  }
  j.Key("peak_rss_mb").Num(static_cast<double>(PeakRssBytes()) /
                           (1024.0 * 1024.0));
  j.Key("env").Open('{');
  j.Key("simd").Str(simd::LevelName(simd::ActiveLevel()));
  j.Key("threads").Num(static_cast<double>(
      TrainerConfig(*a.workload, a.seed).ResolvedThreads()));
  j.Key("linalg_threads").Num(static_cast<double>(kernels::LinalgThreads()));
  j.Key("nproc").Num(static_cast<double>(std::thread::hardware_concurrency()));
  j.Key("compiler").Str(CompilerName());
  j.Close('}');
  j.Close('}');

  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n", a.out.c_str());
    return 1;
  }
  const bool ok =
      std::fwrite(j.text().data(), 1, j.text().size(), f) == j.text().size();
  return (std::fclose(f) == 0 && ok) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
