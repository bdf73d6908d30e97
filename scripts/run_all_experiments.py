#!/usr/bin/env python3
"""Run every registered experiment through the parallel runner.

Each experiment's independent points are sharded across a process pool
(``--jobs``, default: all cores) and its reduced result is written to one
JSON artifact per experiment under ``--out``.  With ``--cache`` a rerun
skips every point whose result is already on disk, so an interrupted sweep
resumes where it stopped.

With ``--server`` the sweep runs against a ``python -m repro serve`` daemon
instead of local worker processes — the daemon's warm fleet, cache and
in-flight dedupe are shared with every other client (see docs/SERVE.md).

Usage:
    python scripts/run_all_experiments.py                       # everything, parallel
    python scripts/run_all_experiments.py --serial              # one process
    python scripts/run_all_experiments.py --only fig8,fig10c
    python scripts/run_all_experiments.py --cache .cache/repro --out results/
    python scripts/run_all_experiments.py --server /tmp/repro.sock

Expect tens of minutes for the full set; ``--only`` is the practical way to
iterate on one figure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import repro.api as api
from repro.analysis import buffer_bandwidth_ratios, start_strategy_costs
from repro.experiments.report import print_table
from repro.runner import RunnerError
from repro.runner.cache import json_safe


def _analysis_tables() -> None:
    """The two pure-analysis tables that need no simulation."""
    print("Fig 2 — buffer/bandwidth ratios")
    print_table(
        ["chip", "year", "MB/Tbps"],
        [(n, y, round(r, 1)) for n, y, r in buffer_bandwidth_ratios()],
    )
    print("\nTable 2 — analytic start-strategy costs (n = 8 RTTs)")
    costs = start_strategy_costs(8)
    print_table(
        ["strategy", "bytes delayed (BDP)", "max extra buffer (BDP)"],
        [(k, v["bytes_delayed_bdp"], v["max_extra_buffer_bdp"]) for k, v in costs.items()],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        metavar="N",
        help="worker processes per experiment (default: all cores)",
    )
    parser.add_argument(
        "--serial", action="store_true", help="run everything in this process (implies --jobs 1)"
    )
    parser.add_argument("--cache", metavar="DIR", help="content-addressed result cache directory")
    parser.add_argument(
        "--server",
        metavar="ADDR",
        help="run on a serving daemon (host:port or unix socket path) instead "
        "of local workers; --jobs/--cache are then the daemon's concern",
    )
    parser.add_argument(
        "--out", default="results", metavar="DIR", help="per-experiment JSON artifact directory"
    )
    parser.add_argument(
        "--only",
        metavar="NAMES",
        help="comma-separated experiment names to run (default: all registered)",
    )
    parser.add_argument(
        "--no-tables", action="store_true", help="skip the pure-analysis tables"
    )
    args = parser.parse_args()
    jobs = 1 if args.serial else max(1, args.jobs)

    names = api.experiments()
    if args.only:
        wanted = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            print(f"unknown experiments: {unknown}; known: {names}", file=sys.stderr)
            return 2
        names = wanted

    if not args.no_tables:
        _analysis_tables()

    os.makedirs(args.out, exist_ok=True)
    t_start = time.time()
    failures = []
    descriptions = api.describe()
    for name in names:
        report: dict = {}
        t0 = time.time()
        try:
            if args.server:
                result = api.run(name, server=args.server, report=report)
            else:
                result = api.run(
                    name, jobs=jobs, cache=args.cache, progress=True, report=report
                )
        except (RunnerError, api.ServeError) as exc:
            failures.append(name)
            print(f"FAILED {name}: {exc}", file=sys.stderr)
            continue
        artifact = {
            "experiment": name,
            "description": descriptions.get(name, ""),
            "report": report,
            "result": json_safe(result),
        }
        path = os.path.join(args.out, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(
            f"{name}: {report.get('points', '?')} points, "
            f"{report.get('cache_hits', 0)} cached, "
            f"{time.time() - t0:.1f}s -> {path}"
        )

    print(f"\nTotal wall time: {time.time() - t_start:.0f} s ({len(names)} experiments, jobs={jobs})")
    if failures:
        print(f"failed: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
