#!/usr/bin/env python3
"""Record every fluid solve of one ledger rep, then replay and time them.

Builds one hybrid ledger world with the ledger's own builders
(``benchmarks/perf/workloads.py``, imported read-only, seed 42), runs it once
with ``repro.fluid.model.solve_rates`` wrapped from outside, and keeps each
call's arguments and result.  It then calls ``solve_rates`` again on every
recorded input, ``--rounds`` times, asserting that the rates and link loads
equal (``==``) the ones the run got, and times each call.

It prints one JSON row: the number of solves, of single-flow solves and of
single-rank solves, and per flows-per-solve bucket (1, 2-4, 5-8, 9-16, 17+)
the solves and the replay seconds, with the total; seconds are the fastest
of the rounds.  A solver change is held to the run's own inputs this way:
the replay fails on the first solve whose answer moved.

Usage:
    python scripts/solver_replay.py --world bulk_fluid
    python scripts/solver_replay.py --world longtrace_hybrid --rounds 5
    python scripts/solver_replay.py --world bulk_fluid --scale 0.05 --rounds 1

docs/PERFORMANCE.md ("The solver") quotes its rows.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

import workloads  # noqa: E402  (the ledger's workload builders)

from repro.fluid import model  # noqa: E402

SEED = 42
#: flows-per-solve buckets: (label, largest size in it)
BUCKETS = (("1", 1), ("2-4", 4), ("5-8", 8), ("9-16", 16), ("17+", None))


def _bucket(n: int) -> str:
    return next(label for label, top in BUCKETS if top is None or n <= top)


def record(world: str, scale: float) -> list:
    """``(caps, ranks, paths, link_caps, rates, load)`` per solve of one rep."""
    calls = []
    solve = model.solve_rates
    snap = []  # the last copy of the driver's link capacities

    def recording(caps, ranks, paths, link_caps):
        nonlocal snap
        rates, load = solve(caps, ranks, paths, link_caps)
        if link_caps != snap:
            snap = list(link_caps)
        paths = [list(p) for p in paths]
        calls.append((list(caps), list(ranks), paths, snap, list(rates), dict(load)))
        return rates, load

    workload = workloads.SIM_WORKLOADS[world]
    built = workload.build(SEED, scale)
    model.solve_rates = recording
    try:
        if not workload.run(built):
            raise SystemExit(f"{world}: flows left unfinished")
    finally:
        model.solve_rates = solve
    return calls


def replay(calls: list) -> dict:
    """Replay seconds per bucket; raises on the first solve whose answer moved."""
    solve = model.solve_rates
    seconds = dict.fromkeys((label for label, _ in BUCKETS), 0.0)
    gc.collect()
    for i, (caps, ranks, paths, link_caps, rates, load) in enumerate(calls):
        t0 = perf_counter()
        got = solve(caps, ranks, paths, link_caps)
        seconds[_bucket(len(caps))] += perf_counter() - t0
        if got != (rates, load):
            raise AssertionError(f"solve {i} ({len(caps)} flows) answered differently on replay")
    return seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--world", required=True, choices=("bulk_fluid", "longtrace_hybrid"))
    ap.add_argument("--scale", type=float, default=1.0, help="the ledger's workload scale")
    ap.add_argument("--rounds", type=int, default=3, help="replays of the recorded solves")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    calls = record(args.world, args.scale)
    rounds = [replay(calls) for _ in range(args.rounds)]
    solves = dict.fromkeys((label for label, _ in BUCKETS), 0)
    for caps, *_ in calls:
        solves[_bucket(len(caps))] += 1
    print(json.dumps({
        "world": args.world,
        "scale": args.scale,
        "seed": SEED,
        "rounds": args.rounds,
        "solves": len(calls),
        "single_flow": solves["1"],
        "single_rank": sum(len(set(ranks)) == 1 for _, ranks, *_ in calls),
        "buckets": {
            label: {"solves": solves[label], "replay_s": round(min(r[label] for r in rounds), 4)}
            for label, _ in BUCKETS
        },
        "replay_s": round(min(sum(r.values()) for r in rounds), 4),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
