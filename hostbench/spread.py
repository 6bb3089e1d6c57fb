#!/usr/bin/env python3
"""Run-to-run spread and A/B comparison for the host-time benchmark.

Runs N fresh benchmark processes per workload for each of two labelled
sets, alternating which set runs first; pair ``i`` of both sets uses
seed ``FIRST_SEED + i``, and every run lasts ``run_seconds`` from
BENCHMARK.json. For each end-to-end metric it prints each
set's median, quartiles and (Q3-Q1)/median beside the metric's bound
from BENCHMARK.json, and how far set B's median is from set A's.

With ``--ab NAME=VALUE`` set B runs with that environment variable set,
and the table also counts the pairs in which B read worse than A.
Run from the repository root::

    python3 hostbench/spread.py --workloads rm_pairs --runs 10
    python3 hostbench/spread.py --workloads rm_pairs,paged_openloop --runs 10 \\
        --ab REPRO_EC_NATIVE=0
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int, env: Dict[str, str]) -> Optional[Dict]:
    """The run's end-to-end metrics, or None when it failed (reported)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        print(f"{workload} seed {seed} FAILED: {proc.stderr.strip()}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: the workloads BENCHMARK.json names")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--ab", default=None, metavar="NAME=VALUE")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    env_a = dict(os.environ)
    env_b = dict(os.environ)
    if args.ab:
        name, sep, value = args.ab.partition("=")
        if not sep or not name:
            parser.error("--ab takes NAME=VALUE")
        env_b[name] = value
    label_b = args.ab or "A again"
    any_failed = False

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for workload in workloads:
        sides: Dict[str, List[Dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            seed = FIRST_SEED + i
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                env = env_a if side == "A" else env_b
                sides[side].append(run_once(workload, seed, seconds, env))
            print(f"{workload} pair {i + 1}/{args.runs} seed {seed}: " + ", ".join(
                f"{s} {sides[s][-1]['page_ops_per_s']:.1f}" if sides[s][-1] else f"{s} failed"
                for s in ("A", "B")
            ), file=sys.stderr, flush=True)

        failed = {side: sum(run is None for run in runs) for side, runs in sides.items()}
        any_failed = any_failed or any(failed.values())
        # Pairs where either side failed are left out of every statistic.
        pairs = [(a, b) for a, b in zip(sides["A"], sides["B"]) if a and b]
        print(f"\n{workload}: {args.runs} runs per set, {seconds} s each; "
              f"A = unchanged, B = {label_b}; failed runs A {failed['A']}, "
              f"B {failed['B']}; {len(pairs)} complete pairs")
        if not pairs:
            continue
        print(f"{'metric':<16}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>9}{'bound':>7}{'B vs A':>9}{'B worse':>9}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            medians = {}
            for k, side in enumerate(("A", "B")):
                values = [pair[k][name] for pair in pairs]
                q1, med, q3 = quartiles(values)
                medians[side] = med
                spread = (q3 - q1) / med if med else 0.0
                extra = ""
                if side == "B":
                    shift = sign * (med - medians["A"]) / medians["A"] if medians["A"] else 0.0
                    worse = sum(sign * (b[name] - a[name]) > 0 for a, b in pairs)
                    extra = f"{shift:>+9.3f}{worse:>6}/{len(pairs)}"
                print(f"{name if side == 'A' else '':<16}{side:>4}{med:>14.6g}"
                      f"{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{bound:>7.2f}{extra}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
