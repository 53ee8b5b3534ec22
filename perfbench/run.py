#!/usr/bin/env python3
"""The SE-PrivGEmb publish benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds perfbench_runner (library included)
from source into .bench_build/perfbench, runs one workload in a fresh work
directory under .bench_build/perfbench-work, checks every publish, removes
the work directory, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Build logs and diagnostics go to stderr. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_ROOT = ROOT / ".bench_build" / "perfbench-work"
RUNNER = BUILD_DIR / "perfbench_runner"
WORKLOADS = ("se-katz-ba10k", "ooc-deg-ba20k")
OUT_OF_CORE = ("ooc-deg-ba20k",)
TIME_LIMIT_S = 170  # every run must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared_units(trace):
    """{metric: unit} of the mode's metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    harness.validate_metric_names(units)
    return units


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the library sources (src/) are missing; run from a checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", "4", "--target",
         "perfbench_runner"],
        check=True, stdout=sys.stderr)


def run_runner(mode, args, workdir, deadline):
    out = Path(workdir) / f"{mode}.json"
    cmd = [str(RUNNER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(Path(workdir) / mode), "--out", str(out)]
    # subprocess.run kills the child and waits for it on timeout.
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")
    if os.environ.get("SEPRIV_FAILPOINTS"):
        fail("refusing to run with SEPRIV_FAILPOINTS set: fault injection "
             "measures a different program")
    units = declared_units(args.trace)
    # The compiler and the runner put scratch files under TMPDIR; keep them
    # inside the checkout.
    tmp = WORK_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    build()
    # The first run in a checkout builds; the time limit covers the runs.
    deadline = time.monotonic() + TIME_LIMIT_S

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    # SIGTERM unwinds through the finally below, so the work directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        reference = None
        if args.workload in OUT_OF_CORE:
            ref = run_runner("reference", args, workdir, deadline)
            reference = ref["publishes"][0]["digest"]
        mode = "trace" if args.trace else "e2e"
        raw = run_runner(mode, args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, failures = harness.reduce_trace(raw, list(units), reference)
    else:
        metrics, failures = harness.reduce_e2e(raw, reference)
    times = [round(p["publish_s"], 3) for p in raw["publishes"]]
    print(f"perfbench: untraced publish_s samples {times}", file=sys.stderr)
    for i, f in enumerate(failures):
        for check in f:
            print(f"perfbench: attempt {i} failed: {check}", file=sys.stderr)
    result = harness.result_line(metrics, units, failures)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"env={json.dumps(raw['env'], sort_keys=True)}")
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    try:
        main()
    except (harness.HarnessError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        fail(f"{type(e).__name__}: {e}")
