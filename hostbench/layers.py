"""Per-layer attribution for the traced run.

Three sources, all taken over the drive phase of one round:

* host self time per ``src/repro/<layer>/`` package, from cProfile
  tottime, with numpy and builtin time charged to the layer that called
  it;
* exact work counts from class-level wrappers on the engine and the
  codec, installed before the cluster is built (the NIC caches a bound
  ``call_later`` at construction), and restored afterwards;
* exact counts the program already keeps in each cluster's metrics
  registry (NIC verbs and bytes, RM events, pager stats).
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List

from repro.ec.pagecodec import PageCodec
from repro.ec.plancache import PlanCache
from repro.ec.rs import ReedSolomonCode
from repro.obs.metrics import ScalarCounter
from repro.sim.engine import Process, Simulator, Timeout

LAYERS = ("sim", "net", "core", "ec", "cluster", "vmm", "workloads", "obs", "chaos")

# The codec entry points the data path calls. The RM calls
# ``codec.code.encode``/``encode_page``/``reencode_split`` on the
# ReedSolomonCode directly, so wrapping PageCodec alone would miss them.
_CODEC_METHODS = {
    PageCodec: ("split", "join", "split_pages", "join_pages", "encode_batch",
                "decode_batch", "correct_batch", "encode", "decode",
                "decode_verified", "verify", "correct"),
    ReedSolomonCode: ("encode", "encode_page", "decode", "reencode_split",
                      "verify", "decode_verified", "correct"),
}


def _payload_bytes(args) -> int:
    total = 0
    for arg in args:
        if isinstance(arg, (bytes, bytearray)):
            total += len(arg)
        elif hasattr(arg, "nbytes"):
            total += arg.nbytes
        elif isinstance(arg, dict):
            total += sum(getattr(v, "nbytes", 0) for v in arg.values())
        elif isinstance(arg, (list, tuple)):
            total += sum(len(v) for v in arg if isinstance(v, (bytes, bytearray)))
    return total


class Instruments:
    """Counts gathered by the wrappers while :meth:`installed` is active."""

    def __init__(self, spans):
        self.spans = spans
        self.counts: Dict[str, int] = defaultdict(int)
        self._codec_depth = 0

    def _codec_wrapper(self, cls, name, original):
        inst = self

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            if inst._codec_depth:
                return original(self, *args, **kwargs)
            inst._codec_depth = 1
            inst.counts["ec.calls"] += 1
            inst.counts["ec.bytes"] += _payload_bytes(args)
            with inst.spans.span(f"ec.{cls.__name__}.{name}"):
                try:
                    return original(self, *args, **kwargs)
                finally:
                    inst._codec_depth = 0

        return wrapper

    def _patches(self):
        counts = self.counts
        process_init = Process.__init__
        timeout_init = Timeout.__init__
        call_later = Simulator.call_later
        call_later_batch = Simulator.call_later_batch
        plan_get = PlanCache.get

        def process(self, *args, **kwargs):
            counts["sim.processes"] += 1
            process_init(self, *args, **kwargs)

        def timeout(self, *args, **kwargs):
            counts["sim.timers"] += 1
            timeout_init(self, *args, **kwargs)

        def later(self, delay, fn):
            counts["sim.timers"] += 1
            call_later(self, delay, fn)

        def later_batch(self, delay, fns):
            fns = list(fns)
            counts["sim.timers"] += len(fns)
            call_later_batch(self, delay, fns)

        def get(self, key):
            value = plan_get(self, key)
            counts["ec.plan_hits" if value is not None else "ec.plan_misses"] += 1
            return value

        patches = [
            (Process, "__init__", process),
            (Timeout, "__init__", timeout),
            (Simulator, "call_later", later),
            (Simulator, "call_later_batch", later_batch),
            (PlanCache, "get", get),
        ]
        for cls, names in _CODEC_METHODS.items():
            for name in names:
                patches.append((cls, name, self._codec_wrapper(cls, name, getattr(cls, name))))
        return patches

    @contextmanager
    def installed(self):
        saved = []
        try:
            for cls, name, replacement in self._patches():
                saved.append((cls, name, cls.__dict__[name]))
                setattr(cls, name, replacement)
            yield self
        finally:
            for cls, name, original in reversed(saved):
                setattr(cls, name, original)


def registry_counts(clusters: Iterable) -> Dict[str, int]:
    """Scalar counters of every cluster's registry, summed over machines:
    ``nic.3.ops_tx`` and ``nic.7.ops_tx`` both land in ``nic.ops_tx``."""
    totals: Dict[str, int] = defaultdict(int)
    for cluster in clusters:
        for name, metric in cluster.obs.metrics.items():
            if isinstance(metric, ScalarCounter):
                key = ".".join(p for p in name.split(".") if not p.isdigit())
                totals[key] += metric.value
        sampler = cluster.obs.sampler
        totals["obs.frames"] += sampler.frames if sampler is not None else 0
        tracer = cluster.obs.tracer
        totals["obs.spans"] += len(tracer.spans) + tracer.dropped
    return totals


_LAYER_RE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def layer_self_seconds(profile: cProfile.Profile, src_root: str) -> Dict[str, float]:
    """cProfile tottime grouped by ``src/repro/<layer>/`` package.

    Time in a function outside the package (numpy, builtins, stdlib) is
    charged to the layers of its callers, in proportion to the time each
    caller accounts for; chains of outside functions are followed up to
    the first package frame. Time that never reaches one (the benchmark's
    own frames) is left out.
    """
    stats = pstats.Stats(profile).stats
    src_root = os.path.realpath(src_root)
    memo: Dict = {}

    def own_layer(func):
        filename = func[0]
        if not filename.startswith(src_root):
            return None
        match = _LAYER_RE.search(filename[len(src_root):])
        return match.group(1) if match else "repro"

    def shares(func, visiting) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in visiting or func not in stats:
            return {}
        visiting = visiting | {func}
        callers = stats[func][4]
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
        result: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            for name, share in shares(caller, visiting).items():
                result[name] += share * weight / total
        memo[func] = dict(result)
        return memo[func]

    seconds: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for name, share in shares(func, frozenset()).items():
            seconds[name] += tottime * share
    return seconds


def repro_calls(profile: cProfile.Profile, src_root: str) -> int:
    """Calls (generator resumptions included) into functions under ``src_root``."""
    src_root = os.path.realpath(src_root)
    return sum(
        nc for func, (_cc, nc, _tt, _ct, _callers) in pstats.Stats(profile).stats.items()
        if func[0].startswith(src_root)
    )


class Spans:
    """Host-time spans of the benchmark's own calls, kept in memory.

    Each span records name, start, end and parent (host seconds since
    the run started); every span of one round carries the round's id.
    """

    def __init__(self):
        self.records: List[dict] = []
        self.round_id = 0
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.records),
            "name": name,
            "round": self.round_id,
            "parent": self._stack[-1] if self._stack else None,
            "start_s": time.perf_counter() - self._t0,
            "end_s": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_s"] = time.perf_counter() - self._t0
