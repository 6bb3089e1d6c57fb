#!/usr/bin/env python3
"""Host-time benchmark of the Hydra simulator, at a fixed reference host speed.

Run from the repository root::

    python3 hostbench/run.py --workload rm_pairs --seed 1 --seconds 15 --trace 0

One process, no threads. The run drives rounds of the workload for
``--seconds``, in whole cycles of the run's sub-seeds; each round is
set-up (build the cluster, preload pages) then drive. Every round is bracketed by the reference
kernel (``refkernel.py``) and its wall seconds are scaled to a reference
host speed. Every round's simulated outputs must equal
those of the earlier rounds on the same sub-seed and the values pinned
for the run's input seed (``pins.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one
profiled, instrumented round and prints the per-layer metrics. The last
line of standard output is the result object; the line before it holds
the run's provenance and raw timings. Spans are written under
``.bench_build/hostbench/spans/`` when the run ends.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
# Sub-seeds per run: round i drives input i mod CYCLE, so the simulated
# latency percentiles pool CYCLE independent inputs (one input's p99 rests
# on a few dozen samples and swings by 10-25% from seed to seed).
CYCLE = {"full": 8, "tiny": 2}
SUBSEEDS = 16  # sub-seed stride per input seed; must be >= every CYCLE value

sys.path.insert(0, HERE)

import refkernel  # noqa: E402  (imports nothing from src/)


def prepare_environment() -> None:
    """Point imports at this checkout's ``src/`` and the native kernel
    cache at the benchmark's build directory; exit nonzero without a
    result when the program is not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program under {SRC}/repro; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(BUILD, "native")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def drive_once(workload):
    """Set up and drive one round, untimed (pin generation, self-tests)."""
    state = workload.build()
    workload.preload(state)
    return workload.drive(state)


def run_round(workload, spans, ref_before: float, instruments=None, profile=None) -> Dict:
    """One timed round, bracketed by the reference kernel: ``ref_before``
    is the kernel time measured just before (the previous round's
    ``ref_after_s``); the kernel runs again right after the round."""
    from layers import registry_counts

    with spans.span("round"):
        t0 = time.perf_counter()
        with spans.span("setup"):
            with spans.span("build"):
                state = workload.build()
            with spans.span("preload"):
                workload.preload(state)
        t1 = time.perf_counter()
        if instruments is not None:
            counts_before = registry_counts(workload.clusters_of(state))
            counts_before.update(instruments.counts)
        with spans.span("drive"):
            if profile is not None:
                profile.enable()
            outcome = workload.drive(state)
            if profile is not None:
                profile.disable()
        t2 = time.perf_counter()
    result = {
        "raw_setup_s": t1 - t0,
        "raw_drive_s": t2 - t1,
        "attempted": outcome.attempted,
        "ok": outcome.ok,
        "wrong": outcome.wrong,
        "samples": outcome.samples,
        "fingerprint": outcome.fingerprint,
    }
    if instruments is not None:
        after = registry_counts(outcome.clusters)
        after.update(instruments.counts)
        result["counts"] = {
            key: after[key] - counts_before.get(key, 0) for key in after
        }
        result["counts"]["chaos.checks"] = outcome.checks
    del state, outcome
    ref_after = refkernel.measure()
    result.update(ref_before_s=ref_before, ref_after_s=ref_after,
                  scale=refkernel.scale(ref_before, ref_after))
    return result


def _percentile(values: List[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def end_to_end_metrics(cycle: List[Dict], rounds: List[Dict]) -> Dict[str, Dict]:
    """Host metrics over every round; simulated ones over one cycle of
    sub-seeds, so they are a pure function of the run seed."""
    # The rate of one cycle at each sub-seed's median drive time. Sub-seeds
    # differ in cost per operation (chaos campaigns widely), so a median
    # over per-round rates would hinge on which sub-seeds land mid-ranking.
    n = len(cycle)
    drive_s = [statistics.median(r["raw_drive_s"] * r["scale"] for r in rounds[j::n])
               for j in range(n)]
    setups = [r["raw_setup_s"] * r["scale"] for r in rounds]
    attempted = sum(r["attempted"] for r in cycle)
    ok = sum(r["ok"] for r in cycle)
    samples = [s for r in cycle for s in r["samples"]]
    return {
        "page_ops_per_s": {"value": ok / sum(drive_s), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "op_ok_frac": {"value": ok / attempted, "unit": "frac"},
        "sim_p50_us": {"value": _percentile(samples, 50), "unit": "us"},
        "sim_p99_us": {"value": _percentile(samples, 99), "unit": "us"},
    }


def per_layer_metrics(traced: Dict, profile, untraced: List[Dict], size: str) -> Dict:
    from layers import LAYERS, layer_self_seconds, repro_calls

    ops = max(1, traced["ok"])
    counts = traced["counts"]
    self_s = layer_self_seconds(profile, SRC)

    def per_op(key):
        return counts.get(key, 0) / ops

    def frac(num, den):
        return num / den if den else 0.0

    reads = counts.get("rm.events.reads", 0)
    hits = counts.get("vmm.stats.hits", 0)
    faults = counts.get("vmm.stats.faults", 0)
    plan_hits = counts.get("ec.plan_hits", 0)
    # The traced round drives sub-seed 0: compare with the untraced ones.
    round_s = [(r["raw_setup_s"] + r["raw_drive_s"]) * r["scale"]
               for r in untraced[::CYCLE[size]]]
    traced_s = (traced["raw_setup_s"] + traced["raw_drive_s"]) * traced["scale"]
    values = {f"{layer}.self_us_per_op": (self_s.get(layer, 0.0) * 1e6 / ops, "us/op")
              for layer in LAYERS}
    values.update({
        "repro.calls_per_op": (repro_calls(profile, SRC) / ops, "1/op"),
        "sim.processes_per_op": (per_op("sim.processes"), "1/op"),
        "sim.timers_per_op": (per_op("sim.timers"), "1/op"),
        "net.verbs_per_op": (per_op("nic.ops_tx"), "1/op"),
        "net.bytes_per_op": (per_op("nic.bytes_tx"), "B/op"),
        "ec.calls_per_op": (per_op("ec.calls"), "1/op"),
        "ec.bytes_per_op": (per_op("ec.bytes"), "B/op"),
        "ec.plan_hit_frac": (
            frac(plan_hits, plan_hits + counts.get("ec.plan_misses", 0)), "frac"),
        "core.decoded_read_frac": (frac(counts.get("rm.events.decoded_reads", 0), reads), "frac"),
        "core.corrected_reads": (counts.get("rm.events.corrected_reads", 0), "count"),
        "core.regenerations": (counts.get("rm.events.regenerations", 0), "count"),
        "core.parity_writes_per_op": (per_op("rm.events.parity_writes"), "1/op"),
        "vmm.hit_frac": (frac(hits, hits + faults), "frac"),
        "vmm.faults_per_op": (per_op("vmm.stats.faults"), "1/op"),
        "vmm.writebacks_per_op": (per_op("vmm.stats.page_outs"), "1/op"),
        "obs.frames": (counts.get("obs.frames", 0), "count"),
        "obs.spans_per_op": (per_op("obs.spans"), "1/op"),
        "chaos.checks": (counts.get("chaos.checks", 0), "count"),
        "chaos.violations": (traced["fingerprint"].get("violations", 0), "count"),
        "trace.overhead_frac": (traced_s / statistics.median(round_s) - 1.0, "frac"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def provenance(kernel: str, native_load_s: float) -> Dict:
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ec_backend": kernel,
        "native_load_s": native_load_s,
        "native_cache": os.path.relpath(os.environ["REPRO_NATIVE_CACHE"], ROOT),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "reference_nominal_s": refkernel.NOMINAL_S,
        "reference_elasticity": refkernel.ELASTICITY,
    }


def _git_revision() -> Optional[str]:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    return None


def sub_seeds(seed: int, size: str) -> List[int]:
    """The ``CYCLE[size]`` sub-seeds of run seed ``seed``, taken from its
    pinned input seed."""
    import pins

    return [pins.input_seed(seed, size) * SUBSEEDS + j for j in range(CYCLE[size])]


def cycle_of(workload_name: str, seed: int, size: str) -> List:
    """The run's workload inputs, one per sub-seed."""
    from workloads import WORKLOADS

    return [WORKLOADS[workload_name](sub, size) for sub in sub_seeds(seed, size)]


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
              size: str = "full") -> Dict:
    """Run the benchmark in this process; returns the result object plus
    ``details``. Raises :class:`pins.PinMismatch` on a wrong output and
    :class:`pins.MissingPin` when the input seed has no pin."""
    import pins
    from layers import Instruments, Spans
    from repro.ec.native import native_kernel_name

    t0 = time.perf_counter()
    kernel = native_kernel_name()  # users pay the .so build once: not in a round
    native_load_s = time.perf_counter() - t0

    table = pins.load()
    cycle = cycle_of(workload_name, seed, size)
    spans = Spans()

    def checked(result: Dict, expected: Optional[Dict], label: str) -> Dict:
        if result["wrong"]:
            raise pins.PinMismatch("read_data", 0, result["wrong"], label)
        if result["fingerprint"].get("violations", 0):
            raise pins.PinMismatch("violations", 0, result["fingerprint"]["violations"], label)
        if expected is not None:
            pins.compare(expected["fingerprint"], result["fingerprint"], label)
        return result

    warmup = checked(run_round(cycle[0], spans, refkernel.measure()), None,
                     "warm-up round")
    rounds: List[Dict] = []
    ref = warmup["ref_after_s"]
    start = time.perf_counter()
    # Whole cycles only, so every sub-seed weighs the same in the medians
    # however many rounds fit in ``seconds``.
    while len(rounds) % len(cycle) or not rounds or time.perf_counter() - start < seconds:
        spans.round_id += 1
        j = len(rounds) % len(cycle)
        expected = rounds[j] if len(rounds) >= len(cycle) else (warmup if j == 0 else None)
        rounds.append(checked(run_round(cycle[j], spans, ref), expected,
                              f"round {len(rounds) + 1}"))
        ref = rounds[-1]["ref_after_s"]
        if len(rounds) > len(cycle):
            del rounds[-1]["samples"]  # one cycle's samples suffice; keep RSS flat
        if len(rounds) == len(cycle):
            pins.check(table, workload_name, size, pins.input_seed(seed, size),
                       [r["fingerprint"] for r in rounds])

    if trace:
        spans.round_id += 1
        instruments = Instruments(spans)
        profile = cProfile.Profile()
        with instruments.installed():
            traced = checked(run_round(cycle[0], spans, ref, instruments, profile),
                             rounds[0], "traced round")
        metrics = per_layer_metrics(traced, profile, rounds, size)
    else:
        metrics = end_to_end_metrics(rounds[:len(cycle)], rounds)

    details = provenance(kernel, native_load_s)
    details.update(
        workload=workload_name,
        seed=seed,
        size=size,
        trace=int(trace),
        input_seed=pins.input_seed(seed, size),
        sub_seeds=sub_seeds(seed, size),
        sim_samples=sum(len(r["samples"]) for r in rounds[:len(cycle)]),
        rounds=[
            {k: r[k] for k in ("raw_setup_s", "raw_drive_s", "ref_before_s",
                               "ref_after_s", "scale")}
            for r in rounds
        ],
    )
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{workload_name}-seed{seed}-trace{int(trace)}.json")
    with open(spans_path, "w") as fh:
        json.dump(spans.records, fh)
    details["spans"] = os.path.relpath(spans_path, ROOT)

    attempted = sum(r["attempted"] for r in rounds)
    ok = sum(r["ok"] for r in rounds)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
        "details": details,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rm_pairs", "paged_openloop", "chaos_soak"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    prepare_environment()
    import pins

    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (pins.PinMismatch, pins.MissingPin) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details = result.pop("details")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
