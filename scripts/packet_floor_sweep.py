#!/usr/bin/env python3
"""ROADMAP item 2(i)/(ii): sweep the packet-phase floor against FCT error.

After a fluid exit the hybrid driver stays in packet mode for at least the
floor in force.  The floor starts at ``_MIN_PACKET_NS``; a contention exit
(or drain failure) from an epoch shorter than ``_SHORT_EPOCH_NS`` doubles it,
up to ``_MAX_PACKET_NS``; any other exit resets it.  This script patches
those three constants of ``repro.fluid.hybrid`` from outside, one setting at
a time, and runs per setting:

* the ledger trace (``longtrace_hybrid``: ``PAPER_LONG_CFG`` cut to 200 ms,
  trace seed 42) and three held-out 100 ms traces (trace seeds 1, 2, 3),
  built exactly as ``benchmarks/perf/workloads.py`` builds the ledger
  workload.  Each is compared with its pure-packet twin per size group, as
  the ledger's ``fidelity`` does;
* ``midscale_contended`` — 12 × 1 MB two-rank PrioPlus flows staggered 50 µs
  on a k=4 / 100G fat-tree (``tests/hybrid_twins.py``'s
  ``midscale_world(12, 1_000_000, 50_000)``) — whose mean FCT is compared
  with its packet twin.

A setting is ``BASE:THRESHOLD:CAP`` in µs; ``CAP`` equal to ``BASE`` turns
the back-off off, so ``100:100:100`` is the fixed 100 µs floor the driver
had before the back-off.  Packet twins do not depend on the setting; they
are simulated once (17-34 M events each at full size, about a minute per
100 ms on one core) and cached in ``--twins``.

Usage:
    python scripts/packet_floor_sweep.py --twins twins.json
    python scripts/packet_floor_sweep.py --scale 0.01 --settings 15:100:800,100:100:100

docs/PERFORMANCE.md ("What a packet phase costs") holds the table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

import workloads  # noqa: E402  (the ledger's workload builders)

from repro.cc import Swift, SwiftParams  # noqa: E402
from repro.core import ChannelConfig, PrioPlusCC  # noqa: E402
from repro.experiments.launch import run_until_flows_done  # noqa: E402
from repro.fluid import HybridDriver, hybrid  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.topology import fat_tree  # noqa: E402
from repro.transport.flow import Flow  # noqa: E402
from repro.transport.sender import FlowSender  # noqa: E402

#: (trace seed, share of the ledger's 200 ms): the ledger trace, then three held out
TRACES = ((42, 1.0), (1, 0.5), (2, 0.5), (3, 0.5))
DEFAULT_SETTINGS = (
    "100:100:100,50:100:50,30:100:30,20:100:20,10:100:10,"
    "50:100:800,30:100:800,20:100:800,10:100:800,"
    "15:100:800,25:100:800,40:100:800,"
    "20:50:800,20:75:800,20:150:800,20:200:800,20:100:400,20:100:1600,30:200:1600"
)


def _midscale_contended():
    """12 × 1 MB PrioPlus flows on two ranks, 50 µs apart, k=4 / 100G."""
    sim = Simulator(11)
    net, hosts = fat_tree(sim, k=4, rate_bps=100e9)
    half = len(hosts) // 2
    channels = ChannelConfig(n_priorities=2)
    flows = []
    for i in range(12):
        vprio = 1 + (i % 2)
        f = Flow(
            i + 1, hosts[i % half], hosts[half + (i * 3) % half], 1_000_000,
            vpriority=vprio, start_ns=i * 50_000,
        )
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)), channels, vpriority=vprio, probe_first=False
        )
        FlowSender(sim, net, f, cc, rto_ns=10**10)
        flows.append(f)
    return sim, net, flows


def _midscale_mean_fct(fluid: bool) -> float:
    sim, net, flows = _midscale_contended()
    driver = HybridDriver(sim, net) if fluid else None
    assert run_until_flows_done(sim, flows, 10_000_000_000, driver=driver)
    return sum(f.fct_ns() for f in flows) / len(flows)


def _trace_rep(seed: int, scale: float, packet_twin: bool) -> dict:
    """One run of the ledger workload on trace ``seed``: its stats and wall."""
    workloads.TRACE_SEED = seed
    rep = workloads.sim_rep(workloads.SIM_WORKLOADS["longtrace_hybrid"], 42, scale, packet_twin=packet_twin)
    stats = rep["stats"]
    assert stats["all_done"] and stats["n_done"] == stats["n_flows"], (seed, stats["n_done"])
    return {"wall_s": rep["wall_s"], **stats}


def _errors(groups: dict, twin: dict) -> tuple:
    """``(|mean FCT error|, worst size-group error)`` against the twin."""
    errs = {
        g: abs(rec["mean_us"] - twin[g]["mean_us"]) / twin[g]["mean_us"]
        for g, rec in groups.items()
        if twin.get(g) and twin[g]["count"] and rec["count"]
    }
    return errs["all"], max(v for g, v in errs.items() if g != "all")


def _twins(path, scale: float) -> dict:
    """Per trace: the packet twin's size groups (cached in ``path``) and the
    ``midscale_contended`` packet mean FCT."""
    cache = json.loads(Path(path).read_text()) if path and Path(path).exists() else {}
    for seed, share in TRACES:
        key = f"{seed}@{share * scale:g}"
        if key not in cache:
            print(f"# packet twin of trace {seed} at {200 * share * scale:g} ms", file=sys.stderr, flush=True)
            rep = _trace_rep(seed, share * scale, packet_twin=True)
            cache[key] = {"events": rep["events"], "groups": rep["groups"]}
    if "midscale_contended" not in cache:
        cache["midscale_contended"] = _midscale_mean_fct(fluid=False)
    if path:
        Path(path).write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")
    return cache


def _set(base_us: int, threshold_us: int, cap_us: int) -> None:
    hybrid._MIN_PACKET_NS = base_us * 1000
    hybrid._SHORT_EPOCH_NS = threshold_us * 1000
    hybrid._MAX_PACKET_NS = cap_us * 1000


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--settings", default=DEFAULT_SETTINGS, help="comma-separated BASE:THRESHOLD:CAP in µs")
    ap.add_argument("--scale", type=float, default=1.0, help="share of every trace's length")
    ap.add_argument("--twins", help="JSON file caching the packet twins across runs")
    ap.add_argument("--reps", type=int, default=1, help="ledger-trace runs per setting; wall is their min")
    args = ap.parse_args()

    twins = _twins(args.twins, args.scale)
    print(
        "setting(us)      ledger: events    wall_s  epochs | held-out events       "
        "| 4-trace mean: group_err_max  |mean_err| | midscale_contended"
    )
    for setting in args.settings.split(","):
        _set(*(int(v) for v in setting.split(":")))
        runs, group_errs, mean_errs = [], [], []
        for seed, share in TRACES:
            rep = _trace_rep(seed, share * args.scale, packet_twin=False)
            if seed == TRACES[0][0]:
                for _ in range(args.reps - 1):
                    rep["wall_s"] = min(rep["wall_s"], _trace_rep(seed, share * args.scale, False)["wall_s"])
            assert rep["drain_failures"] == 0, (setting, seed)
            mean_err, group_err = _errors(rep["groups"], twins[f"{seed}@{share * args.scale:g}"]["groups"])
            runs.append(rep)
            group_errs.append(group_err)
            mean_errs.append(mean_err)
        contended = _midscale_mean_fct(fluid=True) / twins["midscale_contended"] - 1
        ledger = runs[0]
        print(
            f"{setting:<16} {ledger['events']:>14} {ledger['wall_s']:>9.3f} {ledger['epochs']:>7} |"
            f" {' / '.join(str(r['events']) for r in runs[1:]):<21} |"
            f" {sum(group_errs) / len(group_errs):>27.3f} {sum(mean_errs) / len(mean_errs):>10.4f} |"
            f" {contended:>+17.1%}",
            flush=True,
        )


if __name__ == "__main__":
    main()
