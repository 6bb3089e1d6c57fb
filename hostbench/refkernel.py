"""Fixed reference kernel that measures how fast the host runs right now.

Host speed on a shared machine drifts by tens of percent within minutes,
far more than the changes the benchmark has to resolve. Every timed
round is therefore bracketed by this kernel, and the round's wall
seconds are scaled by ``(NOMINAL_S / measured) ** ELASTICITY`` — the
time the round would have taken on a host where this kernel takes
exactly ``NOMINAL_S``.

The kernel has the same instruction mix as the simulator's hot loop: a
heap-ordered event queue dispatching generator processes, each step
doing a small numpy XOR over a split-sized buffer. It imports nothing
from the program under test, so no change to the program can change
the reference.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

import numpy as np

# Seconds the kernel takes on the reference host. Any constant works —
# it only fixes the unit of the scaled metrics — so it is the kernel's
# median time on an idle 2-core x86-64 VM, rounded.
NOMINAL_S = 0.070

# How strongly a round's time follows the kernel's when the host slows
# down: interference slows this small compute-bound loop more than the
# simulator, whose rounds also wait on memory. On a shared 2-core VM the
# slope of log(round time) on log(kernel time) within a run was 0.6-0.66
# (rm_pairs, paged_openloop) and 0.4 (chaos_soak); across runs, spread
# of the scaled medians was smallest for exponents of 0.6-0.8 and 2-3x
# larger at 1.0.
ELASTICITY = 0.7

_PROCESSES = 48
_STEPS = 1000
_SPLIT = 512
_CHECKSUM = 12300288


def _kernel() -> int:
    rnd = random.Random(0x48594452)
    blocks = np.frombuffer(rnd.randbytes(8 * _SPLIT), dtype=np.uint8).reshape(8, _SPLIT)
    acc = np.zeros(_SPLIT, dtype=np.uint8)
    gaps = [rnd.random() for _ in range(1024)]

    def process(pid: int):
        for step in range(_STEPS):
            np.bitwise_xor(acc, blocks[(pid + step) & 7], out=acc)
            yield gaps[(pid * 31 + step) & 1023]

    queue = []
    seq = 0
    for pid in range(_PROCESSES):
        seq += 1
        queue.append((0.0, seq, process(pid)))
    heapq.heapify(queue)
    dispatched = 0
    while queue:
        now, _, gen = heapq.heappop(queue)
        dispatched += 1
        try:
            gap = next(gen)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (now + gap, seq, gen))
    return dispatched * 256 + int(acc.sum()) % 256


def scale(before_s: float, after_s: float) -> float:
    """Factor that maps a round's wall seconds to reference-host seconds,
    from the kernel times measured right before and right after it."""
    return (NOMINAL_S / ((before_s + after_s) / 2)) ** ELASTICITY


def measure() -> float:
    """Wall seconds of one kernel run, taken right after a full collection
    so the program's heap cannot slow it."""
    gc.collect()
    t0 = time.perf_counter()
    checksum = _kernel()
    elapsed = time.perf_counter() - t0
    if checksum != _CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {checksum} != {_CHECKSUM}")
    return elapsed
