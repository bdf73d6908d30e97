"""Machine-speed calibration for the perf ledger — nothing else lives here.

``benchmarks/perf/run.py`` (the only place this repo measures speed, see
``benchmarks/perf/README.md``) imports ``calibrate`` from exactly this path
to report ``machine.calib_mops`` beside every run; that directory is frozen
between benchmark PRs, so the name and the module stay put.  The timing
harnesses that used to sit next to it are gone: add workloads to the ledger,
not benches to ``src/repro``.
"""

from __future__ import annotations

import time

__all__ = ["calibrate"]


def calibrate(n: int = 2_000_000) -> float:
    """Ops/sec of a fixed pure-Python loop (attribute walks + int math).

    The loop shape intentionally resembles the simulator's instruction mix
    (method calls, attribute loads, small-int arithmetic), so wall-clock
    numbers taken on different machines can be compared through it.
    """

    class _Cell:
        __slots__ = ("v",)

        def __init__(self) -> None:
            self.v = 0

        def bump(self, d: int) -> int:
            self.v = (self.v + d) & 0xFFFFFFFF
            return self.v

    cell = _Cell()
    bump = cell.bump
    t0 = time.perf_counter()
    for i in range(n):
        bump(i)
    dt = time.perf_counter() - t0
    return n / dt if dt > 0 else float("inf")
