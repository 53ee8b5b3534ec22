#!/usr/bin/env python3
"""Fails when a bench_oocore cell's graph-pool misses pass twice the baseline.

    python3 tools/check_oocore_misses.py FRESH.json BENCH_oocore.json

Both files are bench_json.h output ({"records": [{"name": ...}]}). Every
committed train/* record must appear in FRESH with pool_misses at most twice
its committed value. Misses count shard reads, not time, so a loose factor
catches a read-pattern regression without tripping on the host's timing
noise. Standard library only; exits 1 on a regression or a missing record.
"""

import json
import sys

PREFIX = "train/"
FIELD = "pool_misses"
FACTOR = 2.0


def records(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f)["records"]}


def main(fresh_path, baseline_path):
    fresh = records(fresh_path)
    baseline = {name: r for name, r in records(baseline_path).items()
                if name.startswith(PREFIX)}
    if not baseline:
        print(f"no {PREFIX}* records in {baseline_path}")
        return 1
    failures = 0
    for name, base in sorted(baseline.items()):
        limit = FACTOR * base[FIELD]
        got = fresh.get(name, {}).get(FIELD)
        if got is None:
            print(f"{name}: no {FIELD} in {fresh_path}")
            failures += 1
            continue
        verdict = "ok" if got <= limit else "REGRESSED"
        print(f"{name}: {FIELD} {got:g} (committed {base[FIELD]:g},"
              f" limit {limit:g}) {verdict}")
        failures += got > limit
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
