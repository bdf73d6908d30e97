"""The golden batteries: one harness runs, compares, instruments and rewrites them.

Two pinned world sets, each canonicalised to JSON and compared byte for byte
with its committed file:

* ``core`` (:data:`BATTERY` -> ``tests/golden/core_results.json``): 17 packet
  scenarios covering every hot-path mechanism the simulator has -- PrioPlus
  probing, PFC pause/resume, ECN marking, INT stamping (HPCC), shared-buffer
  drops with RTO recovery, ECMP multipath on a fat-tree, a mid-flight link
  cut, a fault plan -- plus four points of the scenario layer above it
  (``run_flowsched`` list / streaming, ``run_coflow_mode`` lossless / lossy).
  The file was generated from the pre-optimisation core: it is the proof that
  the fused tx/deliver events, the allocation-free scheduling fast path and
  packet pooling changed no reduced result.
* ``hybrid`` (``tests.hybrid_twins.HYBRID_WORLDS`` ->
  ``tests/golden/hybrid_results.json``): the eight hybrid fluid/packet worlds
  whose fidelity the twin ratchet bounds.  The file was first written at
  d78b1bc by the numpy solver and regenerated when packet phases began ending
  on the quiet grid, when the packet floor began backing off and when entry
  began withdrawing the packets in flight (every FCT held each time).

Every mode runs both batteries.  With ``--audit`` and/or ``--obs`` each world
runs with fresh sinks from :data:`SINKS` on one probe; its results must stay
byte-identical (no sink feeds back into the simulation), the audit clean, and
every live sink must have heard the run (:func:`deaf`).  ``--obs all`` adds a
:class:`~repro.telemetry.Recorder` streaming Perfetto, with the tracer's
spans, into a temporary directory.  Usage::

    PYTHONPATH=src python tests/golden_battery.py                   # compare
    PYTHONPATH=src python tests/golden_battery.py --audit=strict --obs all
    PYTHONPATH=src python tests/golden_battery.py --write           # rewrite both

Rewrite only for a *deliberate* semantic change; a hybrid rewrite lands only
with the twin ratchet green (``tests/hybrid_twins.py``).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.audit import Auditor
from repro.cc import Hpcc, Swift, SwiftParams
from repro.cc.base import CongestionControl
from repro.experiments.ablations import (
    run_cardinality_ablation,
    run_collision_avoidance_ablation,
    run_filter_ablation,
)
from repro.experiments.coflow_scenario import CoflowConfig, build_workload, run_coflow_mode
from repro.experiments.fig8_testbed import run_staircase
from repro.experiments.fig10_micro import _run_fig10c
from repro.experiments.fig12_coflow import ci_config_kwargs
from repro.experiments.flowsched import FlowSchedConfig, run_flowsched
from repro.experiments.modes import Mode
from repro.experiments.quickstart import run_quickstart
from repro.obs import ChannelInspector, EngineProfiler, PacketTracer, TimeSeriesSampler
from repro.probe import installed
from repro.runner.cache import json_safe
from repro.sim.engine import Simulator
from repro.sim.pfc import PfcConfig
from repro.sim.switch import SwitchConfig
from repro.telemetry import PerfettoWriter, Recorder
from repro.topology import fat_tree, leaf_spine, star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender

ROOT = Path(__file__).resolve().parents[1]
CORE_PATH = ROOT / "tests" / "golden" / "core_results.json"


# ----------------------------------------------------------------------
# custom micro-scenarios (cheap, and tighter on hot-path semantics than the
# figure experiments: they pin drops, retransmits, PFC counts and the clock)
# ----------------------------------------------------------------------
def _flow_stats(sim: Simulator, net, flows: List[Flow]) -> dict:
    return {
        "now": sim.now,
        "fcts": [f.fct_ns() if f.done else None for f in flows],
        "retransmits": [f.retransmits for f in flows],
        "probes": [f.probes_sent for f in flows],
        "drops": net.total_drops(),
        "pfc_pauses": net.total_pfc_pauses(),
    }


def pfc_incast() -> dict:
    """Static-xoff incast on a slow bottleneck: many PAUSE/RESUME cycles."""
    sim = Simulator(3)
    cfg = SwitchConfig(
        n_queues=2,
        buffer_bytes=64_000,
        headroom_per_port_per_prio=8_000,
        pfc=PfcConfig(enabled=True, xoff_bytes=4_000, dynamic=False),
    )
    net, senders, recv = star(sim, 3, rate_bps=100e9, link_delay_ns=100, switch_cfg=cfg)
    net.path_ports(senders[0], recv)[-1].ns_per_byte = 8.0  # ~1 Gbps bottleneck
    flows = [Flow(i + 1, senders[i], recv, 80_000) for i in range(3)]
    for f in flows:
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=80_000), rto_ns=10**12)
    sim.run(until=2_000_000_000)
    return _flow_stats(sim, net, flows)


def lossy_rto_recovery() -> dict:
    """Tiny lossy buffer (PFC off): tail drops, dup-ACK and RTO retransmits."""
    sim = Simulator(7)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=20_000, pfc=PfcConfig(enabled=False))
    net, senders, recv = star(sim, 4, rate_bps=10e9, link_delay_ns=1_000, switch_cfg=cfg)
    flows = [Flow(i + 1, senders[i], recv, 120_000) for i in range(4)]
    for f in flows:
        FlowSender(sim, net, f, Swift(SwiftParams(target_scaling=False)), rto_ns=400_000)
    sim.run(until=1_000_000_000)
    return _flow_stats(sim, net, flows)


def cut_mid_flight() -> dict:
    """Fibre cut while packets are queued and one is mid-transmission.

    Pins the cut semantics the fused tx/deliver event must preserve: queued
    packets drop, the in-flight packet still delivers, RTO recovers the rest
    after restore().
    """
    sim = Simulator(11)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=1_000, switch_cfg=cfg)
    flows = [Flow(i + 1, senders[i], recv, 150_000) for i in range(2)]
    for f in flows:
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=150_000), rto_ns=300_000)
    sim.run(until=30_000)  # mid-transfer: switch queue built, port transmitting
    sw = net.switches[0]
    dropped = net.set_link_state(sw, recv, up=False)
    sim.run(until=80_000)
    rx_during_cut = recv.rx_packets
    net.set_link_state(sw, recv, up=True)
    sim.run(until=1_000_000_000)
    out = _flow_stats(sim, net, flows)
    out["cut_dropped"] = dropped
    out["rx_packets_at_restore"] = rx_during_cut
    return out


def faulted_flap_mid_run() -> dict:
    """Declarative fault plan: a spine uplink flaps twice mid-transfer.

    Pins the whole repro.faults stack — schedule expansion from the plan's
    own RNG, blackhole drops during the detection window, route
    reconvergence, restore, and RTO/go-back-N recovery — byte-for-byte.
    """
    from repro.faults import FaultInjector, FaultPlan, FaultSpec, Schedule

    sim = Simulator(17)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, hosts = leaf_spine(
        sim, n_leaves=2, hosts_per_leaf=1, n_spines=2, host_rate_bps=10e9,
        oversubscription=1.0, link_delay_ns=1_000, switch_cfg=cfg,
    )
    plan = FaultPlan(
        [
            FaultSpec(
                "link_down",
                ["leaf0", "spine0"],
                Schedule("flap", at_ns=40_000, duration_ns=60_000, period_ns=200_000, count=2),
            )
        ],
        seed=23,
        detection_ns=20_000,
    )
    injector = FaultInjector(sim, net, plan).arm()
    flows = [Flow(1, hosts[0], hosts[1], 400_000), Flow(2, hosts[1], hosts[0], 250_000)]
    for f in flows:
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=64_000), rto_ns=200_000)
    sim.run(until=1_000_000_000)
    out = _flow_stats(sim, net, flows)
    out["faults"] = injector.stats()
    return out


def hpcc_fat_tree() -> dict:
    """HPCC (INT stamping on every hop) across a k=4 fat-tree with ECMP."""
    sim = Simulator(5)
    cfg = SwitchConfig(n_queues=3, buffer_bytes=8 * 1024 * 1024)
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9, switch_cfg=cfg)
    flows = []
    for i in range(4):
        f = Flow(i + 1, hosts[i], hosts[-(i + 1)], 60_000, priority=i % 2)
        flows.append(f)
        FlowSender(sim, net, f, Hpcc(), rto_ns=10**9)
    sim.run(until=1_000_000_000)
    return _flow_stats(sim, net, flows)


def paused_priority_star() -> dict:
    """Strict-priority scheduling with one class paused mid-run."""
    sim = Simulator(13)
    cfg = SwitchConfig(n_queues=4, buffer_bytes=8 * 1024 * 1024)
    net, senders, recv = star(sim, 2, rate_bps=10e9, link_delay_ns=500, switch_cfg=cfg)
    flows = [
        Flow(1, senders[0], recv, 100_000, priority=0),
        Flow(2, senders[1], recv, 100_000, priority=2),
    ]
    for f in flows:
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=100_000), rto_ns=10**12)
    bottleneck = net.path_ports(senders[0], recv)[-1]
    sim.at(20_000, bottleneck.set_paused, 0, True)
    sim.at(120_000, bottleneck.set_paused, 0, False)
    sim.run(until=1_000_000_000)
    return _flow_stats(sim, net, flows)


# ----------------------------------------------------------------------
# scenario layer: workload -> binder -> drive loop -> reduction
# ----------------------------------------------------------------------
def _flowsched(mode: str, streaming: bool) -> dict:
    cfg = FlowSchedConfig(rate_bps=100e9, duration_ns=60_000, size_scale=0.1)
    return run_flowsched(mode, 4, cfg, streaming=streaming)


def _coflow(mode: str, lossy: bool) -> dict:
    cfg = CoflowConfig(seed=7, **ci_config_kwargs(duration_ns=400_000, lossy=lossy))
    jobs, groups = build_workload(cfg)
    return run_coflow_mode(mode, cfg, jobs, groups, False)


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------
_STAIR = dict(rate=10e9, stagger_ns=300_000, flows_per_prio=2, seed=1)

#: the core battery: world name -> thunk running it
BATTERY: Dict[str, Callable[[], object]] = {
    "quickstart": lambda: run_quickstart(low_bytes=600_000, high_bytes=200_000),
    "fig8_prioplus": lambda: run_staircase(mode=Mode.PRIOPLUS, priorities=(1, 2, 3, 4), **_STAIR),
    "fig8_swift_targets": lambda: run_staircase(
        mode=Mode.SWIFT_TARGETS, priorities=(1, 2, 3, 4), **_STAIR
    ),
    "fig10c_dual_rtt": lambda: _run_fig10c(
        dual_rtt=True, n_each=2, rate=10e9, duration_ns=1_200_000, hi_start_ns=200_000, seed=1
    ),
    "ablation_collision": lambda: run_collision_avoidance_ablation(
        collision_avoidance=True, n_low=4, rate=10e9, duration_ns=800_000
    ),
    "ablation_filter": lambda: run_filter_ablation(filter_consecutive=2, duration_ns=600_000),
    "ablation_cardinality": lambda: run_cardinality_ablation(
        cardinality_estimation=True, n_flows=8, rate=10e9, duration_ns=500_000
    ),
    "pfc_incast": pfc_incast,
    "lossy_rto_recovery": lossy_rto_recovery,
    "cut_mid_flight": cut_mid_flight,
    "faulted_flap_mid_run": faulted_flap_mid_run,
    "hpcc_fat_tree": hpcc_fat_tree,
    "paused_priority_star": paused_priority_star,
    "flowsched_list": lambda: _flowsched(Mode.PRIOPLUS, streaming=False),
    "flowsched_streaming": lambda: _flowsched(Mode.PRIOPLUS_LEDBAT, streaming=True),
    "coflow_list": lambda: _coflow(Mode.PRIOPLUS, lossy=False),
    # Physical + short RTO with PFC off: the one cell where lossy != lossless
    "coflow_lossy": lambda: _coflow(Mode.PHYSICAL, lossy=True),
}


def batteries() -> Dict[str, tuple]:
    """Battery name -> (its worlds, its committed file)."""
    from tests.hybrid_twins import HYBRID_GOLDEN_PATH, HYBRID_WORLDS

    return {"core": (BATTERY, CORE_PATH), "hybrid": (HYBRID_WORLDS, HYBRID_GOLDEN_PATH)}


# ----------------------------------------------------------------------
# the sinks: one table, one install, one finalize, one "heard the run" check
# ----------------------------------------------------------------------
#: kind -> factory(sinks made so far, the world's scratch directory).  The
#: auditor is keyed by its mode, as ``--audit`` names it; the recorder comes
#: last so its Perfetto file carries the tracer's spans
SINKS: Dict[str, Callable[[dict, str], object]] = {
    "strict": lambda made, tmp: Auditor("strict"),
    "warn": lambda made, tmp: Auditor("warn"),
    "trace": lambda made, tmp: PacketTracer(sample_every=1),
    "inspect": lambda made, tmp: ChannelInspector(),
    "sample": lambda made, tmp: TimeSeriesSampler(stride_ns=50_000),
    "profile": lambda made, tmp: EngineProfiler(),
    "record": lambda made, tmp: Recorder(
        PerfettoWriter(os.path.join(tmp, "trace.json"), tracer=made.get("trace"))
    ),
}

#: the introspection sinks, and what each ``--obs`` choice installs
OBS = ("trace", "inspect", "sample", "profile")
OBS_KINDS = {**{kind: (kind,) for kind in OBS}, "all": OBS + ("record",)}


_AUDITED = ("clock", "buffer_bytes", "sender_window", "pfc_causality", "fluid_ledger")
_EVERY_BATTERY = ("events", "cwnd", "clock", "buffer_bytes", "sender_window", "traced",
                  "transitions", "samples", "profiled")

#: battery -> (counters its live sinks must raise summed over its worlds,
#: counters they must raise in every world)
HEARD = {
    "core": (_EVERY_BATTERY + ("pfc_causality", "probe.sent", "pfc.pauses"), ()),
    "hybrid": (_EVERY_BATTERY + ("traced_withdrawn",),
               ("regime", "fluid_ledger", "regime_rows", "withdrawn")),
}


def _heard(made: Mapping[str, object]) -> Dict[str, int]:
    """What the live sinks heard of one world, as counters (a sink that is
    not live adds none)."""
    row: Dict[str, int] = {}
    if "record" in made:
        snap = made["record"].snapshot()
        counts, counters = snap["event_counts"], snap["metrics"]["counters"]
        row.update(events=sum(counts.values()), cwnd=counts.get("cwnd", 0),
                   regime=counts.get("regime", 0))
        row.update({name: counters.get(name, 0) for name in ("probe.sent", "pfc.pauses")})
    auditor = made.get("strict") or made.get("warn")
    if auditor is not None:
        report = auditor.report
        row["violations"] = report.violation_count
        row["audit_checks"] = sum(report.checks.values())
        row.update({name: report.checks.get(name, 0) for name in _AUDITED})
        row["withdrawn"] = report.ledger["withdrawn"]
    if "trace" in made:
        snap = made["trace"].snapshot()
        row.update(traced=snap["started"], traced_withdrawn=snap["withdrawn"])
    if "inspect" in made:
        row["transitions"] = sum(len(r.transitions) for r in made["inspect"].flows.values())
    if "sample" in made:
        row.update(samples=made["sample"].samples_taken,
                   regime_rows=made["sample"].snapshot()["regime_rows"])
    if "profile" in made:
        row["profiled"] = made["profile"].events
    return row


def deaf(battery: str, heard: Mapping[str, Mapping[str, int]]) -> List[str]:
    """Every way the sinks failed ``battery``'s run (``[]``: each heard it):
    a :data:`HEARD` counter of a live sink at 0, or an audit violation."""
    summed, every = HEARD[battery]
    total: Dict[str, int] = {}
    for row in heard.values():
        for name, n in row.items():
            total[name] = total.get(name, 0) + n
    failures = [f"{name} is 0 over the battery" for name in summed if total.get(name) == 0]
    for world, row in heard.items():
        failures += [f"{world}: {name} is 0" for name in every if row.get(name) == 0]
        if row.get("violations"):
            failures.append(f"{world}: {row['violations']} audit violations")
    return failures


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
def run(battery: Mapping[str, Callable[[], object]], sinks: Sequence[str] = ()):
    """Run every world of ``battery`` with fresh ``sinks`` (kinds of
    :data:`SINKS`) live on one probe; ``({world: json_safe result},
    {world: what the sinks heard})``."""
    results: Dict[str, object] = {}
    heard: Dict[str, Dict[str, int]] = {}
    for name, world in battery.items():
        with tempfile.TemporaryDirectory() as tmp:
            made: Dict[str, object] = {}
            for kind, make in SINKS.items():
                if kind in sinks:
                    made[kind] = make(made, tmp)
            with installed(*made.values()):
                results[name] = json_safe(world())
            for sink in made.values():  # the tracer before the recorder writing its spans
                if isinstance(sink, Recorder):
                    sink.close()
                elif hasattr(sink, "finalize"):
                    sink.finalize()
            heard[name] = _heard(made)
    return results, heard


def canonical(results: Mapping[str, object]) -> str:
    return json.dumps(results, sort_keys=True, indent=1)


def diverged(results: Mapping[str, object], path: Path) -> Optional[str]:
    """``None`` when ``results`` canonicalise to ``path``'s bytes, else the
    first world that does not (or ``"the world set"``)."""
    committed = path.read_text()
    if canonical(results) + "\n" == committed:
        return None
    old = json.loads(committed)
    return next(
        (name for name, r in results.items() if canonical(r) != canonical(old.get(name))),
        "the world set",
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Compare both golden batteries with their committed files, "
        "optionally under probe sinks, or rewrite the files."
    )
    parser.add_argument("--write", action="store_true",
                        help="rewrite both committed files from a plain run")
    parser.add_argument(
        "--audit", nargs="?", const="strict", choices=("strict", "warn"), default=None,
        help="run under the invariant auditor: fails on any violation and on any "
        "divergence from the committed files; combines with --obs",
    )
    parser.add_argument(
        "--obs", choices=tuple(OBS_KINDS), default=None,
        help="run with repro.obs sinks live (all: every one plus a Perfetto-streaming "
        "recorder): fails on any divergence or a sink that heard nothing; combines "
        "with --audit",
    )
    args = parser.parse_args(argv)
    sinks = ((args.audit,) if args.audit else ()) + (OBS_KINDS[args.obs] if args.obs else ())
    if args.write and sinks:
        parser.error("--write rewrites the files from a plain run")
    under = " ".join(([f"--audit={args.audit}"] if args.audit else [])
                     + ([f"--obs {args.obs}"] if args.obs else [])) or "no sink"
    failed = worlds = 0
    for battery, (world_set, path) in batteries().items():
        results, heard = run(world_set, sinks)
        worlds += len(results)
        if args.write:
            path.write_text(canonical(results) + "\n")
            print(f"wrote {path.name} ({len(results)} worlds)")
            continue
        problems = deaf(battery, heard)
        wrong = diverged(results, path)
        if wrong is not None:
            problems.append(f"{wrong} diverged from {path.name} under {under}")
        for problem in problems:
            print(f"FAILED {battery}: {problem}")
        failed += bool(problems)
        checks = sum(row.get("audit_checks", 0) for row in heard.values())
        print(f"{battery}: {len(results)} worlds under {under}"
              + (f", {checks} audit checks" if args.audit else "")
              + ("" if problems else f", byte-identical to {path.name}"))
    print(f"{'FAILED' if failed else 'OK'}: {worlds} worlds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))  # run as a script: make ``tests`` importable
    raise SystemExit(main())
