"""Reduction and output checks of perfbench runs.

Pure functions over the raw JSON perfbench_runner writes, kept apart from
run.py's build-and-launch code so tests/test_harness.py can exercise them on
hand-made inputs.
"""

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

ROOT_SPAN = "publish"

# Per-layer figures read from the input builds of a traced run, reduced as
# setup_s is (setup_figure).
SETUP_METRICS = {
    "graph.generate_s": "generate_s",
    "graph.write_shards_s": "write_shards_s",
    "graph.shard_bytes": "shard_bytes",
}


class HarnessError(Exception):
    """The benchmark itself is inconsistent; no result may be printed."""


def self_times(spans):
    """Sums each span name's self time: its duration minus the part of it
    that its direct children cover.

    `spans` is a list of [name, start, end, parent], parent an index into the
    list or -1.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[int(parent)].append(i)
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def validate_metric_names(names):
    bad = [n for n in names if not METRIC_NAME.fullmatch(n)]
    if bad:
        raise HarnessError(f"invalid metric names: {bad}")


def attempt_failures(attempt, reference_digest=None):
    """Output checks of one publish (or replay). Returns the failed checks."""
    failures = []
    if attempt["spent_epsilon"] > attempt["target_epsilon"]:
        failures.append(
            f"spent epsilon {attempt['spent_epsilon']} exceeds target "
            f"{attempt['target_epsilon']}")
    if attempt["epochs_run"] != attempt["epochs_configured"]:
        failures.append(
            f"ran {attempt['epochs_run']} of "
            f"{attempt['epochs_configured']} epochs")
    u = attempt["utility"]
    if u is None or not math.isfinite(u):
        failures.append(f"utility {u} is not finite")
    if reference_digest is not None and attempt["digest"] != reference_digest:
        failures.append(
            f"digest {attempt['digest']} != in-memory reference "
            f"{reference_digest}")
    return failures


def setup_figure(builds, key):
    """The fastest of the run's input builds.

    A build takes 10-100 ms, and bursts of host load slow every build for
    seconds at a time, so the median of a run's builds follows the bursts;
    the fastest build, with builds spread over the whole run, much less."""
    return min(b[key] for b in builds)


def _median_finite(values):
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def reduce_e2e(raw, reference_digest=None):
    """Returns (end-to-end metrics, failures) of an untraced run; `failures`
    holds one list of failed checks per publish."""
    publishes = raw["publishes"]
    first = publishes[0]["digest"]
    failures = []
    for p in publishes:
        f = attempt_failures(p, reference_digest)
        if p["digest"] != first:
            f.append(f"digest {p['digest']} != first publish's {first}")
        failures.append(f)
    metrics = {
        "setup_s": setup_figure(raw["setup"], "setup_s"),
        "publish_s": statistics.median(p["publish_s"] for p in publishes),
        "peak_rss_mb": raw["peak_rss_mb"],
        "utility": _median_finite(p["utility"] for p in publishes),
    }
    return metrics, failures


def replay_figures(replay):
    """Per-layer figures of one traced replay: `<span>_s` self times, the
    replay's counters, and the trace bookkeeping.

    Every name in the replay's `span_names` gets a `<span>_s` figure, 0 when
    the replay never opened that span; a span outside `span_names` is an
    error."""
    spans = replay["spans"]
    if not spans or spans[0][0] != ROOT_SPAN or spans[0][3] != -1:
        raise HarnessError("a replay must open with the root publish span")
    names = replay["span_names"]
    unknown = {s[0] for s in spans} - set(names)
    if unknown:
        raise HarnessError(f"spans {sorted(unknown)} are not in span_names")
    selfs = self_times(spans)
    figures = {f"{name}_s": selfs.get(name, 0.0)
               for name in names if name != ROOT_SPAN}
    figures["trace.publish_s"] = spans[0][2] - spans[0][1]
    figures["trace.untimed_s"] = selfs[ROOT_SPAN]
    figures.update(replay["counters"])
    precompute = figures.get("proximity.precompute_s", 0.0)
    figures["proximity.edges_per_s"] = (
        figures["proximity.edges"] / precompute if precompute > 0 else 0.0)
    return figures


def reduce_trace(raw, declared, reference_digest=None):
    """Returns (per-layer metrics, failures) of a traced run; `failures` holds
    one list of failed checks per (untraced publish, traced replay) pair.

    `declared` is the list of per-layer metric names. Each replay must
    report every one of them that is not read from the set-up, eval or
    overhead; a layer the workload does not use reports an explicit 0.
    """
    publishes, replays = raw["publishes"], raw["replays"]
    if len(publishes) != len(replays):
        raise HarnessError("every traced replay needs its untraced twin")
    failures = []
    per_replay = []
    for p, r in zip(publishes, replays):
        f = attempt_failures(p, reference_digest)
        f += [f"replay: {x}" for x in attempt_failures(r)]
        if r["digest"] != p["digest"]:
            f.append(f"replay digest {r['digest']} != untraced {p['digest']}")
        failures.append(f)
        per_replay.append(replay_figures(r))

    unknown = set().union(*per_replay) - set(declared)
    if unknown:
        raise HarnessError(f"undeclared per-layer figures: {sorted(unknown)}")
    from_replay = set(declared) - set(SETUP_METRICS) - {"eval.s",
                                                        "trace.overhead_s"}
    for fig in per_replay:
        missing = from_replay - set(fig)
        if missing:
            raise HarnessError(
                f"a replay did not report {sorted(missing)}")
    metrics = {}
    for name in declared:
        if name in SETUP_METRICS:
            metrics[name] = setup_figure(raw["setup"], SETUP_METRICS[name])
        elif name == "eval.s":
            metrics[name] = statistics.median(
                x["eval_s"] for x in publishes + replays)
        elif name != "trace.overhead_s":
            metrics[name] = statistics.median(fig[name] for fig in per_replay)
    # Tracing cost: the traced replay against the untraced publish.
    untraced = statistics.median(p["publish_s"] for p in publishes)
    metrics["trace.overhead_s"] = metrics["trace.publish_s"] - untraced
    return metrics, failures


def result_line(metrics, units, failures):
    """The benchmark's final output object. `units` maps every metric the
    mode must report to its unit; a missing or extra metric is a harness
    error, never a silently partial result."""
    validate_metric_names(metrics)
    if set(metrics) != set(units):
        raise HarnessError(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            "BENCHMARK.json")
    failed = sum(1 for f in failures if f)
    return {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in sorted(metrics)
        },
    }
