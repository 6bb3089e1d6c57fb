"""Self-tests of the host-time benchmark (tiny sizes, a few seconds each).

Run from the repository root::

    python3 -m pytest hostbench/test_hostbench.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.prepare_environment()

import pins  # noqa: E402
import refkernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_pins(name):
    result = run.benchmark(name, seed=0, seconds=0, trace=False, size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_pin_is_rejected(monkeypatch):
    table = pins.load()
    fingerprints = [run.drive_once(w).fingerprint for w in run.cycle_of("rm_pairs", 0, "tiny")]
    pins.check(table, "rm_pairs", "tiny", 0, fingerprints)

    perturbed = copy.deepcopy(table)
    perturbed["rm_pairs"]["tiny"]["0"]["sim_now_us"] = "0" * 16
    with pytest.raises(pins.PinMismatch) as excinfo:
        pins.check(perturbed, "rm_pairs", "tiny", 0, fingerprints)
    assert excinfo.value.field == "sim_now_us"

    moved = copy.deepcopy(fingerprints)
    moved[1]["pages_sha256"] = "0" * 16
    with pytest.raises(pins.PinMismatch) as excinfo:
        pins.check(table, "rm_pairs", "tiny", 0, moved)
    assert excinfo.value.field == "pages_sha256"

    monkeypatch.setattr(pins, "load", lambda: perturbed)
    with pytest.raises(pins.PinMismatch, match="sim_now_us"):
        run.benchmark("rm_pairs", seed=0, seconds=0, trace=False, size="tiny")


def test_every_run_seed_is_checked_against_a_pin(monkeypatch):
    seed = 1 + pins.PINNED_SEEDS["tiny"]
    result = run.benchmark("rm_pairs", seed=seed, seconds=0, trace=False, size="tiny")
    assert result["details"]["input_seed"] == 1
    assert result["details"]["sub_seeds"] == run.sub_seeds(1, "tiny")

    unpinned = copy.deepcopy(pins.load())
    del unpinned["rm_pairs"]["tiny"]["1"]
    monkeypatch.setattr(pins, "load", lambda: unpinned)
    with pytest.raises(pins.MissingPin, match="input seed 1"):
        run.benchmark("rm_pairs", seed=seed, seconds=0, trace=False, size="tiny")


def test_chaos_violation_fails_the_run(monkeypatch):
    chaos = WORKLOADS["chaos_soak"]
    drive = chaos.drive

    def violating(self, state):
        outcome = drive(self, state)
        outcome.fingerprint["violations"] = 1
        return outcome

    monkeypatch.setattr(chaos, "drive", violating)
    with pytest.raises(pins.PinMismatch, match="violations"):
        run.benchmark("chaos_soak", seed=0, seconds=0, trace=False, size="tiny")


@pytest.mark.xfail(strict=True, reason=(
    "known program defect: these default chaos campaigns end with durability "
    "violations, so chaos_soak fails on input seeds 8, 10 and 13 and stays out "
    "of BENCHMARK.json until the fix; then pin those seeds and put it back"))
@pytest.mark.parametrize("campaign", [135, 160, 211])
def test_default_chaos_campaign_keeps_its_data(campaign):
    from repro.chaos import ChaosConfig, run_chaos

    assert run_chaos(campaign, ChaosConfig()).violations == []


def test_reference_scaling_is_applied(monkeypatch):
    # A host running the reference kernel at half the nominal speed:
    # every round's wall time shrinks by 0.5 ** ELASTICITY.
    monkeypatch.setattr(refkernel, "measure", lambda: 2 * refkernel.NOMINAL_S)
    factor = 0.5 ** refkernel.ELASTICITY
    result = run.benchmark("rm_pairs", seed=0, seconds=0, trace=False, size="tiny")
    rounds = result["details"]["rounds"]
    assert all(r["scale"] == pytest.approx(factor) for r in rounds)
    assert result["metrics"]["page_ops_per_s"]["value"] == pytest.approx(
        result["attempted"] / sum(factor * r["raw_drive_s"] for r in rounds)
    )
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(
        statistics.median(factor * r["raw_setup_s"] for r in rounds)
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    result = run.benchmark(name, seed=0, seconds=0, trace=True, size="tiny")
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["chaos.violations"]["value"] == 0
    assert metrics["repro.calls_per_op"]["value"] > 0
    if name == "paged_openloop":
        assert metrics["ec.calls_per_op"]["value"] == 0
        assert metrics["vmm.faults_per_op"]["value"] > 0
    else:
        assert metrics["ec.calls_per_op"]["value"] > 0
    if name == "chaos_soak":
        assert metrics["chaos.checks"]["value"] > 0
        assert metrics["obs.frames"]["value"] > 0


def test_openloop_matches_the_loadgen_point():
    from repro.harness.scenarios import run_open_loop_point

    workload = WORKLOADS["paged_openloop"](3, "tiny")
    outcome = run.drive_once(workload)
    point = run_open_loop_point(
        rate_per_sec=workload.RATE, seed=3, duration_us=workload.duration_us
    )
    assert point["issued"] == outcome.attempted
    assert point["samples"] == [round(s, 6) for s in outcome.samples]


def test_cli_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "rm_pairs", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    details = json.loads(lines[-2])["details"]
    assert details["ec_backend"] and details["src_sha256"]
    assert details["native_cache"].startswith(".bench_build")


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "rm_pairs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
