"""The three benchmark workloads, driven through the simulator's public API.

Each workload is split into the phases the runner times separately:
``build`` and ``preload`` (together the set-up), then ``drive``. A
workload object is built from ``(seed, size)`` alone and does exactly
the same simulated work every time it is driven, so its fingerprint is
a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.chaos import ChaosConfig, run_chaos
from repro.cluster import Cluster
from repro.core import HydraDeployment
from repro.harness import build_hydra_cluster
from repro.harness.microbench import page_generator, run_process
from repro.harness.scenarios import build_pool
from repro.net import NetworkConfig
from repro.sim import RandomSource
from repro.vmm import PagedMemory
from repro.workloads import OpenLoopWorkload, make_arrivals

_UNTIL = 1e12


@dataclass
class Outcome:
    """What one drive phase produced."""

    attempted: int
    ok: int
    samples: List[float]  # simulated request latencies, us
    fingerprint: Dict  # simulated outputs checked against the pins
    clusters: List = field(default_factory=list)  # for per-layer counts
    checks: int = 0  # invariant checks the chaos monitor ran
    wrong: int = 0  # reads that returned other bytes than were written


def _sha(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _hist_sha(*recorders) -> str:
    return _sha([recorder.hist.to_dict() for recorder in recorders])


class RmPairs:
    """Closed loop, one client: write-then-read pairs over 64 hot pages on
    the default healthy 12-machine RS(8+2) cluster, real payloads,
    telemetry off (the shape of ``repro perf``'s ``rm_end_to_end``)."""

    name = "rm_pairs"
    SIZES = {"full": 1000, "tiny": 40}  # write+read pairs per round
    HOT_PAGES = 64

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.pairs = self.SIZES[size]
        make_page = page_generator(seed=seed)
        self.pages = [make_page(pid) for pid in range(self.HOT_PAGES)]
        rng = np.random.default_rng((seed, 0x524D))
        self.order = rng.integers(0, self.HOT_PAGES, self.pairs).tolist()

    def build(self):
        return build_hydra_cluster(machines=12, k=8, r=2, delta=1, seed=self.seed)

    def preload(self, hydra) -> None:
        rm = hydra.remote_memory(0)
        sim = hydra.sim

        def writer():
            for pid, page in enumerate(self.pages):
                yield rm.write(pid, page)

        run_process(sim, sim.process(writer(), name="bench-preload"), until=_UNTIL)

    @staticmethod
    def clusters_of(hydra) -> List:
        return [hydra.cluster]

    def drive(self, hydra) -> Outcome:
        rm = hydra.remote_memory(0)
        sim = hydra.sim
        pages = self.pages
        digest = hashlib.sha256()
        samples: List[float] = []
        ok = [0]
        wrong = [0]

        def driver():
            for pid in self.order:
                start = sim.now
                yield rm.write(pid, pages[pid])
                samples.append(sim.now - start)
                ok[0] += 1
                start = sim.now
                data = yield rm.read(pid)
                samples.append(sim.now - start)
                digest.update(data)
                if data == pages[pid]:
                    ok[0] += 1
                else:
                    wrong[0] += 1

        run_process(sim, sim.process(driver(), name="bench-rm"), until=_UNTIL)
        return Outcome(
            attempted=2 * self.pairs,
            ok=ok[0],
            samples=samples,
            fingerprint={
                "ops": 2 * self.pairs,
                "sim_now_us": sim.now,
                "pages_sha256": digest.hexdigest()[:16],
                "hist_sha256": _hist_sha(rm.read_latency, rm.write_latency),
            },
            clusters=[hydra.cluster],
            wrong=wrong[0],
        )


class PagedOpenloop:
    """Open-loop Poisson GET/SET traffic (zipf 0.99, 90% GET) over 512
    pages through ``PagedMemory`` holding half of them locally, phantom
    payloads — one fixed point of the loadgen sweep, at 60k req/s, about
    three quarters of the ~80k req/s capacity."""

    name = "paged_openloop"
    SIZES = {"full": 100_000.0, "tiny": 5_000.0}  # simulated us of arrivals
    RATE = 60_000.0
    PAGES = 512
    FIT = 0.5

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.duration_us = self.SIZES[size]

    def build(self):
        cluster, pool = build_pool("hydra", 12, self.seed, payload_mode="phantom")
        pager = PagedMemory(pool, resident_pages=int(self.PAGES * self.FIT))
        return cluster, pager

    def preload(self, state) -> None:
        cluster, pager = state
        run_process(cluster.sim, pager.preload(range(self.PAGES)), until=_UNTIL)

    @staticmethod
    def clusters_of(state) -> List:
        return [state[0]]

    def drive(self, state) -> Outcome:
        cluster, pager = state
        rng = RandomSource(self.seed, "openloop/hydra/poisson")
        arrivals = make_arrivals("poisson", rng.child("arrivals"), self.RATE)
        work = OpenLoopWorkload(pager, rng.child("ops"), arrivals, self.PAGES)
        result = run_process(cluster.sim, work.run(self.duration_us), until=_UNTIL)
        return Outcome(
            attempted=result.issued,
            ok=result.completed,
            samples=result.latency_samples.tolist(),
            fingerprint={
                "ops": result.issued,
                "sim_now_us": cluster.sim.now,
                "pages_sha256": _sha(
                    [sorted(pager.stats.counts.items()), pager.resident_count]
                ),
                "hist_sha256": _hist_sha(work.latency),
            },
            clusters=[cluster],
        )


class ChaosSoak:
    """One default-config chaos campaign (12 machines, RS(4+2), sampler,
    health and flight recorder on, invariant checks).

    The campaign builds its cluster inside ``run_chaos``; the set-up
    phase builds and preloads one cluster of the same shape so that
    cluster construction cost shows in ``setup_s`` here too. That cluster
    is a proxy the campaign never uses: ``setup_s`` misses the campaign's
    own monitor, injectors and deployment, and the drive phase (so
    ``page_ops_per_s``) includes the campaign's own build and preload.
    """

    name = "chaos_soak"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.config = ChaosConfig() if size == "full" else ChaosConfig.quick()

    def build(self):
        config = self.config
        cluster = Cluster(
            machines=config.machines,
            memory_per_machine=config.memory_per_machine,
            network=NetworkConfig(
                jitter_sigma=config.jitter_sigma,
                straggler_prob=config.straggler_prob,
            ),
            seed=self.seed,
        )
        rm = HydraDeployment(cluster, config.hydra_config(), seed=self.seed).manager(0)
        cluster.obs.enable_monitoring(cluster, rms=[rm], period_us=config.control_period_us)
        return cluster, rm

    def preload(self, state) -> None:
        cluster, rm = state
        make_page = page_generator(page_size=self.config.hydra_config().page_size)

        def writer():
            for pid in range(self.config.pages):
                yield rm.write(pid, make_page(pid))

        run_process(cluster.sim, cluster.sim.process(writer()), until=_UNTIL)

    @staticmethod
    def clusters_of(state) -> List:
        return []  # the campaigns build their own clusters

    def drive(self, state) -> Outcome:
        result = run_chaos(self.seed, self.config)
        workload = result.report["workload"]
        rm = result.cluster.obs.sampler.rms[0]
        samples: List[float] = []
        for recorder in (rm.read_latency, rm.write_latency):
            if not recorder.exact:
                raise RuntimeError(f"{recorder.name}: latency reservoir overflowed")
            samples.extend(recorder.samples)
        counters = result.report["invariants"]["counters"]
        report = result.report_json()
        return Outcome(
            attempted=workload["reads"] + workload["writes"] + workload["errors"],
            ok=workload["reads"] + workload["writes"],
            samples=samples,
            fingerprint={
                "ops": workload["reads"] + workload["writes"] + workload["errors"],
                "sim_now_us": result.cluster.sim.now,
                "report_sha256": _sha(report.encode()),
                "hist_sha256": _sha(result.report["latency"]),
                "violations": len(result.violations),
            },
            clusters=[result.cluster],
            checks=counters["durability_checks"] + counters["reads_checked"],
        )


WORKLOADS = {cls.name: cls for cls in (RmPairs, PagedOpenloop, ChaosSoak)}
