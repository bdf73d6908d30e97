"""Pinned-seed golden battery: proves hot-path changes are byte-identical.

The battery runs a fixed set of small simulation scenarios chosen to cover
every hot-path mechanism the simulator has — PrioPlus probing, PFC
pause/resume, ECN marking, INT stamping (HPCC), shared-buffer drops with RTO
recovery, ECMP multipath on a fat-tree, and a mid-flight link cut — plus four
points of the scenario layer above it (``run_flowsched`` list / streaming,
``run_coflow_mode`` lossless / lossy), and canonicalises their result dicts
to JSON.

``tests/test_golden_results.py`` compares the battery against the committed
``tests/golden/core_results.json``.  The committed file was generated from the
pre-optimisation simulation core, so the test is the proof that the fused
tx/deliver events, the allocation-free scheduling fast path and packet pooling
did not change a single reduced result.

Regenerate (only when a *deliberate* semantic change is made)::

    PYTHONPATH=src python -m tests.golden_battery --write
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.sim.engine import Simulator
from repro.sim.pfc import PfcConfig
from repro.sim.switch import SwitchConfig
from repro.topology import fat_tree, leaf_spine, star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "core_results.json")


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
# scenario layer: workload -> binder -> drive loop -> reduction (packet-only:
# this battery also runs under --audit, and the auditor does not know the
# fluid regime yet — hybrid worlds are pinned by tests/golden/hybrid_results.json)
# ----------------------------------------------------------------------
def _flowsched(mode: str, streaming: bool) -> dict:
    cfg = FlowSchedConfig(rate_bps=100e9, duration_ns=60_000, size_scale=0.1)
    return run_flowsched(mode, 4, cfg, streaming=streaming)


def _coflow(mode: str, lossy: bool) -> dict:
    cfg = CoflowConfig(**ci_config_kwargs(duration_ns=400_000, lossy=lossy))
    jobs, groups = build_workload(cfg)
    return run_coflow_mode(mode, cfg, jobs, groups)


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------
_STAIR = dict(rate=10e9, stagger_ns=300_000, flows_per_prio=2, seed=1)

BATTERY: List[Tuple[str, Callable[[], object]]] = [
    ("quickstart", lambda: run_quickstart(low_bytes=600_000, high_bytes=200_000)),
    ("fig8_prioplus", lambda: run_staircase(mode=Mode.PRIOPLUS, priorities=(1, 2, 3, 4), **_STAIR)),
    (
        "fig8_swift_targets",
        lambda: run_staircase(mode=Mode.SWIFT_TARGETS, priorities=(1, 2, 3, 4), **_STAIR),
    ),
    (
        "fig10c_dual_rtt",
        lambda: _run_fig10c(
            dual_rtt=True, n_each=2, rate=10e9, duration_ns=1_200_000, hi_start_ns=200_000, seed=1
        ),
    ),
    (
        "ablation_collision",
        lambda: run_collision_avoidance_ablation(
            collision_avoidance=True, n_low=4, rate=10e9, duration_ns=800_000
        ),
    ),
    ("ablation_filter", lambda: run_filter_ablation(filter_consecutive=2, duration_ns=600_000)),
    (
        "ablation_cardinality",
        lambda: run_cardinality_ablation(
            cardinality_estimation=True, n_flows=8, rate=10e9, duration_ns=500_000
        ),
    ),
    ("pfc_incast", pfc_incast),
    ("lossy_rto_recovery", lossy_rto_recovery),
    ("cut_mid_flight", cut_mid_flight),
    ("faulted_flap_mid_run", faulted_flap_mid_run),
    ("hpcc_fat_tree", hpcc_fat_tree),
    ("paused_priority_star", paused_priority_star),
    ("flowsched_list", lambda: _flowsched(Mode.PRIOPLUS, streaming=False)),
    ("flowsched_streaming", lambda: _flowsched(Mode.PRIOPLUS_LEDBAT, streaming=True)),
    ("coflow_list", lambda: _coflow(Mode.PRIOPLUS, lossy=False)),
    # Physical + short RTO with PFC off: the one cell where lossy != lossless
    ("coflow_lossy", lambda: _coflow(Mode.PHYSICAL, lossy=True)),
]


def run_battery() -> Dict[str, object]:
    from repro.runner.cache import json_safe

    return {name: json_safe(fn()) for name, fn in BATTERY}


#: the --obs kinds and the scope each installs around every scenario
_OBS_KINDS = ("trace", "sample", "profile", "inspect")


def run_battery_instrumented(
    audit: Optional[str] = None, obs: Optional[str] = None
) -> Tuple[Dict[str, object], Dict[str, dict], Dict[str, dict]]:
    """Run every scenario with probe sinks live on one shared probe.

    ``audit`` (``"strict"`` / ``"warn"``) installs a fresh
    :class:`repro.audit.Auditor` per scenario; ``obs`` is one of ``trace``
    (packet tracer, sample_every=1), ``sample`` (time-series sampler),
    ``profile`` (engine self-profiler), ``inspect`` (PrioPlus channel
    inspector) or ``all`` (all four at once).  Both may be given: every sink
    then fans out from the same hook sites.  Returns ``(results,
    audit_reports, obs_stats)``; the results must be byte-identical to the
    committed goldens — sinks must not feed back into the simulation
    (``tests/test_probe.py`` and the CI ``audit-smoke`` / ``obs-smoke`` jobs).
    """
    from contextlib import ExitStack

    from repro.audit import audit_scope
    from repro.obs import inspect_scope, profile_scope, sample_scope, trace_scope
    from repro.runner.cache import json_safe

    kinds = _OBS_KINDS if obs == "all" else (obs,)
    results: Dict[str, object] = {}
    reports: Dict[str, dict] = {}
    stats: Dict[str, dict] = {}
    for name, fn in BATTERY:
        with ExitStack() as stack:
            enter = stack.enter_context
            tracer = enter(trace_scope(sample_every=1)) if "trace" in kinds else None
            sampler = enter(sample_scope(stride_ns=100_000)) if "sample" in kinds else None
            profiler = enter(profile_scope()) if "profile" in kinds else None
            inspector = enter(inspect_scope()) if "inspect" in kinds else None
            auditor = enter(audit_scope(audit)) if audit else None
            results[name] = json_safe(fn())
        if auditor is not None:
            reports[name] = auditor.report.to_dict()
        row: Dict[str, int] = {}
        if tracer is not None:
            row["traced"] = tracer.snapshot()["recorded"]
        if sampler is not None:
            row["samples"] = sampler.samples_taken
        if profiler is not None:
            row["events_profiled"] = profiler.events
        if inspector is not None:
            row["transitions"] = sum(
                len(rec["transitions"]) for rec in inspector.report()["flows"].values()
            )
        stats[name] = row
    return results, reports, stats


def canonical(results: Dict[str, object]) -> str:
    return json.dumps(results, sort_keys=True, indent=1)


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="write tests/golden/core_results.json")
    parser.add_argument(
        "--audit",
        nargs="?",
        const="strict",
        choices=("strict", "warn"),
        default=None,
        help="run under the invariant auditor; fails on any violation and on "
        "any divergence from the committed goldens (proves audit-on is "
        "byte-identical); combines with --obs",
    )
    parser.add_argument(
        "--obs",
        choices=("trace", "sample", "profile", "inspect", "all"),
        default=None,
        help="run with a repro.obs sink live; fails on any divergence from "
        "the committed goldens (proves introspection-on is byte-identical); "
        "combines with --audit",
    )
    args = parser.parse_args()
    if args.audit or args.obs:
        results, reports, stats = run_battery_instrumented(args.audit, args.obs)
        what = " ".join(
            ([f"--audit={args.audit}"] if args.audit else [])
            + ([f"--obs {args.obs}"] if args.obs else [])
        )
        bad = {name: rep for name, rep in reports.items() if rep["violation_count"]}
        if bad:
            print(json.dumps(bad, indent=1))
            print(f"AUDIT FAILED: violations in {sorted(bad)}")
            return 1
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = fh.read().rstrip("\n")
        if canonical(results) != golden:
            print(f"FAILED: results with {what} diverge from the committed "
                  "goldens (a probe sink fed back into the simulation)")
            return 1
        if args.audit:
            checks = sum(sum(rep["checks"].values()) for rep in reports.values())
            print(f"audit OK: {len(results)} scenarios, {checks} checks, 0 violations, "
                  f"results byte-identical to goldens")
        if args.obs:
            touched = sum(sum(row.values()) for row in stats.values())
            print(f"obs OK ({args.obs}): {len(results)} scenarios, "
                  f"{touched} introspection records, results byte-identical to goldens")
        return 0
    results = run_battery()
    text = canonical(results)
    if args.write:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH} ({len(results)} scenarios)")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
