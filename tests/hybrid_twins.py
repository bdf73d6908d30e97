"""The hybrid golden worlds, their pure-packet twins, and the fidelity ratchet.

``tests/golden/hybrid_results.json`` pins what the hybrid core produces on
eight worlds, byte for byte (``tests/golden_battery.py`` compares and
rewrites it); it says nothing about how far that sits from packets.  ``tests/golden/hybrid_twins.json`` does: each world was run once
with no driver (its *twin*), and for every group of flows — virtual
priority for the four driver worlds, ``fct_by_group`` for the four trace
worlds, and ``all`` — the file holds the twin's mean and p99 FCT (µs) and
a bound on ``|hybrid / twin - 1|`` for each.  The trace worlds are
``PAPER_LONG_CFG``'s seed-42 trace cut to 20 ms and three traces held out
from it (seeds 1, 2, 3) cut to 30 ms, where each exits fluid on contention
(at 20 ms seeds 1 and 2 run one epoch to the deadline).

``tests/test_fluid.py::test_hybrid_golden_stays_within_its_twin_bounds``
reads both files and asserts every bound, so a golden regeneration that
worsens fidelity fails even after its bytes are rewritten.  A bound only
ever goes down: a fix that tightens one lowers it in the same commit, and
``--write`` keeps the smaller of the committed bound and the current error
rounded up to the next 0.01.

This ratchet is the one judge of the hybrid's fidelity, tuned constants
included.  The rule: a tuned constant takes the cheapest value, counted in
summed hybrid events over these worlds, at which every twin bound holds.
``--sweep`` applies it to the packet floor (``_MIN_PACKET_NS`` /
``_SHORT_EPOCH_NS`` / ``_MAX_PACKET_NS`` of :mod:`repro.fluid.hybrid`,
given as ``BASE:THRESHOLD:CAP`` in µs): per setting it runs every world
hybrid against the committed twins and prints the summed events, the
fluid epochs and every breached bound; no twin is re-simulated.

Usage::

    PYTHONPATH=src python tests/hybrid_twins.py --check   # re-run every twin, compare ==
    PYTHONPATH=src python tests/hybrid_twins.py --write   # rewrite the file (twins + bounds)
    PYTHONPATH=src python tests/hybrid_twins.py --sweep 15:100:800,100:100:100

``--check`` takes ~60 s on one core of a Xeon VM (``bulk_waves`` ~18 s,
each trace twin 8-13 s); the three other twins take under a second and
tier-1 re-runs them.  A ``--sweep`` setting takes ~1.2 s.
"""

from __future__ import annotations

import json
import math
import random
import sys
from functools import partial
from pathlib import Path

from repro.cc import Swift, SwiftParams
from repro.core import ChannelConfig, PrioPlusCC
from repro.experiments.flowsched import FlowSchedConfig
from repro.experiments.launch import run_until_flows_done
from repro.experiments.modes import Mode
from repro.experiments.paper_scale import PAPER_LONG_CFG, run_paper_scale
from repro.fluid import HybridDriver
from repro.fluid import hybrid as fluid_hybrid
from repro.sim.engine import Simulator
from repro.sim.switch import SwitchConfig
from repro.topology import fat_tree, paper_fabric, star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender

GOLDEN = Path(__file__).parent / "golden"
HYBRID_GOLDEN_PATH = GOLDEN / "hybrid_results.json"
TWINS_PATH = GOLDEN / "hybrid_twins.json"


# ----------------------------------------------------------------------
# the worlds
# ----------------------------------------------------------------------
def star_world(n_flows, size_bytes, stagger_ns, seed=3, ranks=(1,)):
    """``n_flows`` PrioPlus flows into one receiver, ``stagger_ns`` apart;
    flow i holds virtual priority ``ranks[i % len(ranks)]``."""
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=4, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, n_flows, rate_bps=10e9, link_delay_ns=1000, switch_cfg=cfg)
    channels = ChannelConfig(n_priorities=2)
    flows = []
    for i in range(n_flows):
        vprio = ranks[i % len(ranks)]
        f = Flow(i + 1, senders[i], recv, size_bytes, vpriority=vprio, start_ns=i * stagger_ns)
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)), channels, vpriority=vprio, probe_first=False
        )
        FlowSender(sim, net, f, cc, rto_ns=10**10)
        flows.append(f)
    return sim, net, flows


def midscale_world(n_flows, flow_bytes, stagger_ns):
    """Staggered two-rank PrioPlus flows crossing a k=4 / 100G fat-tree."""
    sim = Simulator(11)
    net, hosts = fat_tree(sim, k=4, rate_bps=100e9)
    half = len(hosts) // 2
    channels = ChannelConfig(n_priorities=2)
    flows = []
    for i in range(n_flows):
        vprio = 1 + (i % 2)
        f = Flow(
            i + 1,
            hosts[i % half],
            hosts[half + (i * 3) % half],
            flow_bytes,
            vpriority=vprio,
            start_ns=i * stagger_ns,
        )
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)), channels, vpriority=vprio, probe_first=False
        )
        FlowSender(sim, net, f, cc, rto_ns=10**10)
        flows.append(f)
    return sim, net, flows


def bulk_waves_world(waves=20, per_wave=8, flow_bytes=2_000_000, gap_ns=50_000):
    """Waves of ``per_wave`` ~2 MB single-rank transfers on the 320-host
    paper fabric, each host to the host half the fabric away (always across
    the core).  Several waves overlap and hash onto different core links,
    so the live flows fall into several connected components."""
    sim = Simulator(7)
    rng = random.Random(42)
    net, hosts = paper_fabric(sim)
    channels = ChannelConfig(n_priorities=1)
    half = len(hosts) // 2
    wave_span_ns = int(flow_bytes * 8e9 / 100e9) + gap_ns
    flows = []
    for w in range(waves):
        for j in range(per_wave):
            slot = (w * per_wave + j) % half
            size = flow_bytes + rng.randrange(-flow_bytes // 100, flow_bytes // 100 + 1)
            f = Flow(
                len(flows) + 1, hosts[slot], hosts[half + slot], size,
                vpriority=1, start_ns=w * wave_span_ns,
            )
            cc = PrioPlusCC(
                Swift(SwiftParams(target_scaling=False)), channels, vpriority=1, probe_first=False
            )
            FlowSender(sim, net, f, cc, rto_ns=10**10)
            flows.append(f)
    return sim, net, flows


def hybrid_point(world, deadline_ns):
    sim, net, flows = world
    driver = HybridDriver(sim, net)
    assert run_until_flows_done(sim, flows, deadline_ns, driver=driver)
    return {
        "fct_ns": [f.fct_ns() for f in flows],
        "now": sim.now,
        "events": sim.events_processed,
        "driver": driver.stats,
    }


def run_stats(result):
    """The driver counters of one hybrid run with its event count, from
    either shape of result (:func:`hybrid_point`'s or a trace world's)."""
    if "driver" in result:
        return dict(result["driver"], events=result["events"])
    return result["fluid"]


def _trace_cfg(ms, seed=42):
    """``PAPER_LONG_CFG``'s trace ``seed`` cut to ``ms`` milliseconds."""
    return FlowSchedConfig(**dict(PAPER_LONG_CFG, duration_ns=ms * 1_000_000, seed=seed))


#: the trace worlds (PrioPlus × 8, streaming, on the 320-host paper fabric):
#: the seed-42 trace and three held out from it
_TRACES = {
    "paper_long_20ms": _trace_cfg(20),
    **{f"paper_long_30ms_seed{seed}": _trace_cfg(30, seed) for seed in (1, 2, 3)},
}

#: world builders of the four driver worlds and their hybrid deadlines
_BUILDERS = {
    "star": (lambda: star_world(3, 200_000, 150_000), 2_000_000_000),
    "midscale": (lambda: midscale_world(6, 400_000, 400_000), 10_000_000_000),
    "midscale_contended": (lambda: midscale_world(12, 1_000_000, 50_000), 10_000_000_000),
    "bulk_waves": (bulk_waves_world, 100_000_000),
}


def _trace_point(name, fluid=True):
    return run_paper_scale(Mode.PRIOPLUS, 8, _TRACES[name], fluid=fluid, streaming=True)


#: the eight golden worlds, each a thunk that builds, runs hybrid and reports
HYBRID_WORLDS = {
    "star": lambda: hybrid_point(*_world("star")),
    "midscale": lambda: hybrid_point(*_world("midscale")),
    "midscale_contended": lambda: hybrid_point(*_world("midscale_contended")),
    "paper_long_20ms": partial(_trace_point, "paper_long_20ms"),
    "bulk_waves": lambda: hybrid_point(*_world("bulk_waves")),
    **{name: partial(_trace_point, name) for name in _TRACES if name != "paper_long_20ms"},
}


def _world(name):
    build, deadline = _BUILDERS[name]
    return build(), deadline


# ----------------------------------------------------------------------
# twins and the ratchet
# ----------------------------------------------------------------------
def _stats_us(fcts_ns):
    """Mean and p99 (the sorted sample at ``int(0.99 * n)``) in µs."""
    fcts = sorted(fcts_ns)
    p99 = fcts[min(len(fcts) - 1, int(0.99 * len(fcts)))]
    return {"mean_us": sum(fcts) / len(fcts) / 1e3, "p99_us": p99 / 1e3}


def group_stats(result, vpriority=None):
    """``{group: {"mean_us", "p99_us"}}`` of one run: from ``fct_by_group``
    for a trace world, else by ``vpriority`` (one entry per flow of
    ``fct_ns``); ``all`` in both."""
    if "fct_by_group" in result:
        groups = dict(result["fct_by_group"], all=result["fct"]["all"])
        return {str(g): {k: s[k] for k in ("mean_us", "p99_us")} for g, s in groups.items()}
    fcts = result["fct_ns"]
    by_rank = {}
    for rank, fct in zip(vpriority, fcts):
        by_rank.setdefault(str(rank), []).append(fct)
    return {g: _stats_us(v) for g, v in dict(by_rank, all=fcts).items()}


def run_twin(name):
    """World ``name`` with no driver: its ``vpriority`` list (driver worlds
    only) and its per-group twin statistics."""
    if name in _TRACES:
        result = _trace_point(name, fluid=False)
        assert result["all_done"], name
        return {"groups": group_stats(result)}
    (sim, _, flows), _ = _world(name)
    assert run_until_flows_done(sim, flows, 10_000_000_000), name
    vpriority = [f.vpriority for f in flows]
    fcts = [f.fct_ns() for f in flows]
    return {"vpriority": vpriority, "groups": group_stats({"fct_ns": fcts}, vpriority)}


def measured(twin):
    """A committed twin entry without its bounds: what :func:`run_twin` returns."""
    groups = {g: {k: s[k] for k in ("mean_us", "p99_us")} for g, s in twin["groups"].items()}
    return dict(twin, groups=groups)


def errors(twins, hybrid):
    """``{(world, group, stat): |hybrid / twin - 1|}`` for every group; the
    hybrid run must have exactly the twin's groups."""
    out = {}
    for name, twin in twins.items():
        seen = group_stats(hybrid[name], twin.get("vpriority"))
        assert seen.keys() == twin["groups"].keys(), (name, sorted(seen))
        for group, want in twin["groups"].items():
            for stat in ("mean", "p99"):
                got = seen[group][f"{stat}_us"]
                out[name, group, stat] = abs(got / want[f"{stat}_us"] - 1)
    return out


def breaches(twins, hybrid):
    """Every ``(world, group, stat, error, bound)`` whose error exceeds its bound."""
    out = []
    for (name, group, stat), err in errors(twins, hybrid).items():
        bound = twins[name]["groups"][group][f"{stat}_bound"]
        if err > bound:
            out.append((name, group, stat, err, bound))
    return out


def _ceil_cent(x):
    """``x`` rounded up to the next 0.01 (float noise below 1e-9 cents ignored)."""
    return math.ceil(round(x * 100, 9)) / 100


#: the packet floor's constants in :mod:`repro.fluid.hybrid`, in the order
#: of a ``BASE:THRESHOLD:CAP`` setting
FLOOR = ("_MIN_PACKET_NS", "_SHORT_EPOCH_NS", "_MAX_PACKET_NS")


def sweep(settings, twins):
    """Per ``BASE:THRESHOLD:CAP`` setting (µs), the packet floor patched to
    it and every world run hybrid: ``(setting, events, epochs, breaches)``
    rows, summed over the worlds, with :func:`breaches` against ``twins``.
    The constants are restored afterwards."""
    saved = [getattr(fluid_hybrid, const) for const in FLOOR]
    rows = []
    try:
        for setting in settings:
            for const, us in zip(FLOOR, setting.split(":"), strict=True):
                setattr(fluid_hybrid, const, int(us) * 1000)
            runs = {name: run() for name, run in HYBRID_WORLDS.items()}
            stats = [run_stats(r) for r in runs.values()]
            rows.append((
                setting,
                sum(s["events"] for s in stats),
                sum(s["fluid_epochs"] for s in stats),
                breaches(twins, runs),
            ))
    finally:
        for const, value in zip(FLOOR, saved):
            setattr(fluid_hybrid, const, value)
    return rows


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="re-run every twin, compare with ==")
    mode.add_argument("--write", action="store_true", help=f"rewrite {TWINS_PATH.name}")
    mode.add_argument(
        "--sweep",
        metavar="BASE:THRESHOLD:CAP,...",
        help="run every world hybrid per packet-floor setting (µs) against the committed twins",
    )
    args = parser.parse_args(argv)
    committed = json.loads(TWINS_PATH.read_text()) if TWINS_PATH.exists() else {}
    if args.sweep:
        print(f"{'setting (µs)':<14} {'events':>9} {'epochs':>6} {'breaches':>8}")
        for setting, events, epochs, bad in sweep(args.sweep.split(","), committed):
            print(f"{setting:<14} {events:>9} {epochs:>6} {len(bad):>8}")
            for row in bad:
                print("  over bound: %s %s %s %.4f > %.2f" % row)
        return 0
    golden = json.loads(HYBRID_GOLDEN_PATH.read_text())
    twins = {name: run_twin(name) for name in HYBRID_WORLDS}
    if args.check:
        drift = [n for n in twins if n not in committed or twins[n] != measured(committed[n])]
        bad = breaches(committed, golden)
        for row in bad:
            print("over bound: %s %s %s %.4f > %.2f" % row, file=sys.stderr)
        if drift:
            print(f"twins differ from {TWINS_PATH.name}: {', '.join(drift)}", file=sys.stderr)
        return 1 if drift or bad else 0
    for (name, group, stat), err in errors(twins, golden).items():
        old = committed.get(name, {}).get("groups", {}).get(group, {}).get(f"{stat}_bound")
        bound = _ceil_cent(err) if old is None else min(old, _ceil_cent(err))
        twins[name]["groups"][group][f"{stat}_bound"] = bound
    TWINS_PATH.write_text(json.dumps(twins, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
