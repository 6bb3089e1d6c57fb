"""Pinned simulated outputs per (workload, size, seed), and the check.

A host-side change must leave every simulated output unchanged. Each
round's fingerprint holds the operation count, final simulated clock,
page digest, latency-histogram digest, and for chaos the report digest
and violation count. Per field, the digest of those values over the
run's cycle of sub-seeds must equal the value pinned for its input seed.

The table covers input seeds ``0 .. PINNED_SEEDS[size] - 1``; a run seed
``s`` drives input seed ``s mod PINNED_SEEDS[size]``, so every run is
checked against a pin. Regenerate the table (only when a change sets out
to alter simulated results, and say so) from the repository root::

    python3 hostbench/pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Optional

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
PINNED_SEEDS = {"full": 32, "tiny": 4}


class PinMismatch(Exception):
    """A simulated output differs from its pinned or first-round value."""

    def __init__(self, field: str, expected, got, where: str):
        super().__init__(
            f"{where}: simulated output {field!r} is {got!r}, expected {expected!r}"
        )
        self.field = field


class MissingPin(Exception):
    """The table holds no pin for a run's input seed."""


def input_seed(seed: int, size: str) -> int:
    """The pinned input seed that run seed ``seed`` drives."""
    return seed % PINNED_SEEDS[size]


def load(path: str = PINS_PATH) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def compare(expected: Dict, got: Dict, where: str) -> None:
    """Raise :class:`PinMismatch` naming the first field that differs."""
    for field in sorted(set(expected) | set(got)):
        if expected.get(field) != got.get(field):
            raise PinMismatch(field, expected.get(field), got.get(field), where)


def digest(fingerprints: List[Dict]) -> Dict[str, str]:
    """One digest per field over a run's cycle of sub-seed fingerprints,
    so a mismatch still names the field."""
    fields = sorted({field for fp in fingerprints for field in fp})
    return {
        field: hashlib.sha256(
            json.dumps([fp.get(field) for fp in fingerprints]).encode()
        ).hexdigest()[:16]
        for field in fields
    }


def check(table: Dict, workload: str, size: str, seed: int,
          fingerprints: List[Dict]) -> None:
    """Check a run's cycle of fingerprints against the pin for input seed
    ``seed``; raise :class:`MissingPin` when the table has none."""
    pinned: Optional[Dict] = table.get(workload, {}).get(size, {}).get(str(seed))
    if pinned is None:
        raise MissingPin(
            f"{workload} input seed {seed} ({size}) has no pinned outputs; "
            f"pins.json covers input seeds 0-{PINNED_SEEDS[size] - 1} except "
            f"those whose campaigns end with invariant violations"
        )
    compare(pinned, digest(fingerprints), f"{workload} input seed {seed} ({size})")


def main() -> int:
    import run

    run.prepare_environment()
    from workloads import WORKLOADS

    table: Dict = {}
    for name in WORKLOADS:
        for size, count in PINNED_SEEDS.items():
            for seed in range(count):
                fingerprints = [run.drive_once(w).fingerprint
                                for w in run.cycle_of(name, seed, size)]
                if any(fp.get("violations", 0) for fp in fingerprints):
                    # A run of this seed fails; pin nothing for it.
                    print(name, size, seed, "has invariant violations: not pinned",
                          file=sys.stderr, flush=True)
                    continue
                table.setdefault(name, {}).setdefault(size, {})[str(seed)] = (
                    digest(fingerprints)
                )
                print(name, size, seed, file=sys.stderr, flush=True)
    with open(PINS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
