"""repro.faults: plans, actors, reconvergence, and end-to-end determinism.

The guarantees under test:

* plans are pure data — JSON round-trip, canonical form, content hash;
* schedules expand deterministically (stochastic ones from their own RNG);
* every actor applies and cleanly undoes its mutation;
* ``set_link_state`` validates both endpoints before mutating anything;
* the same plan + seed produces byte-identical results across repeat runs,
  ``jobs=1`` vs ``jobs=2``, and telemetry on vs off;
* the fault plan enters the runner's cache key.
"""

import json
import random

import pytest

from repro.audit import audit_scope
from repro.cc.base import CongestionControl
from repro.experiments.registry import FunctionExperiment, get_experiment
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    LinkImpairment,
    Schedule,
    build_actor,
    current_fault_plan,
    set_default_fault_plan,
)
from repro.runner import cache_key, run_experiment
from repro.sim.engine import Simulator
from repro.sim.switch import SwitchConfig
from repro.probe import installed
from repro.telemetry import Recorder
from repro.topology import leaf_spine
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender
from tests.helpers import ChannelLog


# ----------------------------------------------------------------------
# plan / schedule data model
# ----------------------------------------------------------------------
def _plan() -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(
                "link_down",
                ["leaf0", "spine0"],
                Schedule("flap", at_ns=40_000, duration_ns=30_000, period_ns=100_000, count=2),
            ),
            FaultSpec(
                "link_degrade",
                ["leaf1", "spine1"],
                Schedule("oneshot", at_ns=50_000, duration_ns=80_000),
                rate_factor=0.5,
                drop_prob=0.01,
                delay_spike_ns=500,
            ),
        ],
        seed=7,
        detection_ns=20_000,
    )


def test_plan_json_round_trip_and_hash():
    plan = _plan()
    clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert clone.canonical() == plan.canonical()
    assert clone.plan_hash() == plan.plan_hash()
    # the hash tracks content
    other = FaultPlan(plan.specs, seed=8, detection_ns=plan.detection_ns)
    assert other.plan_hash() != plan.plan_hash()


def test_plan_save_load(tmp_path):
    path = str(tmp_path / "plan.json")
    plan = _plan()
    with open(path, "w") as fh:
        json.dump(plan.to_dict(), fh)
    assert FaultPlan.load(path).canonical() == plan.canonical()


def test_spec_validation():
    sched = Schedule("oneshot", at_ns=0, duration_ns=10)
    with pytest.raises(ValueError):
        FaultSpec("meteor_strike", "tor0", sched)
    with pytest.raises(ValueError):
        FaultSpec("link_down", "tor0", sched)  # pair required
    with pytest.raises(ValueError):
        FaultSpec("link_degrade", ["a", "b"], sched)  # no-op degrade
    with pytest.raises(ValueError):
        Schedule("flap", at_ns=0, duration_ns=100, period_ns=100, count=2)
    with pytest.raises(ValueError):
        Schedule("stochastic", at_ns=0, mtbf_ns=0, mttr_ns=10, until_ns=100)


def test_schedule_windows():
    flap = Schedule("flap", at_ns=10, duration_ns=5, period_ns=20, count=3)
    assert flap.windows(random.Random(0)) == [(10, 15), (30, 35), (50, 55)]
    sto = Schedule("stochastic", at_ns=0, until_ns=1_000_000, mtbf_ns=50_000, mttr_ns=10_000)
    w1 = sto.windows(random.Random(42))
    w2 = sto.windows(random.Random(42))
    assert w1 == w2 and w1  # deterministic under a fixed RNG
    assert all(0 < down < up <= 1_000_000 for down, up in w1)
    assert all(w1[i][1] <= w1[i + 1][0] for i in range(len(w1) - 1))  # non-overlap


# ----------------------------------------------------------------------
# actors
# ----------------------------------------------------------------------
def _two_spine_net(seed=3):
    sim = Simulator(seed)
    cfg = SwitchConfig(n_queues=2, buffer_bytes=8 * 1024 * 1024)
    net, hosts = leaf_spine(
        sim, n_leaves=2, hosts_per_leaf=1, n_spines=2, host_rate_bps=10e9,
        oversubscription=1.0, link_delay_ns=1_000, switch_cfg=cfg,
    )
    return sim, net, hosts


def test_link_degrade_actor_scales_rate_and_restores():
    sim, net, hosts = _two_spine_net()
    spec = FaultSpec(
        "link_degrade", ["leaf0", "spine0"],
        Schedule("oneshot", at_ns=0, duration_ns=10), rate_factor=0.5,
    )
    actor = build_actor(net, spec, random.Random(0))
    before = [p.ns_per_byte for p in actor.ports]
    actor.inject()
    assert [p.ns_per_byte for p in actor.ports] == [b * 2 for b in before]
    actor.clear()
    assert [p.ns_per_byte for p in actor.ports] == before
    assert all(p.impairment is None for p in actor.ports)


def test_link_impairment_drop_and_spike_deterministic():
    imp1 = LinkImpairment(random.Random(5), drop_prob=0.3, delay_spike_ns=100)
    imp2 = LinkImpairment(random.Random(5), drop_prob=0.3, delay_spike_ns=100)
    seq1 = [imp1.transmit(t) for t in range(0, 10_000, 500)]
    seq2 = [imp2.transmit(t) for t in range(0, 10_000, 500)]
    assert seq1 == seq2
    assert imp1.corrupted > 0 and any(v < 0 for v in seq1)
    # FIFO: delivered times never go backwards
    delivered = [v for v in seq1 if v >= 0]
    assert delivered == sorted(delivered)


def test_build_actor_rejects_bad_targets():
    sim, net, hosts = _two_spine_net()
    sched = Schedule("oneshot", at_ns=0, duration_ns=10)
    with pytest.raises(ValueError, match="not found"):
        build_actor(net, FaultSpec("link_down", ["nope", "leaf0"], sched), random.Random(0))
    with pytest.raises(ValueError, match="no link"):
        build_actor(
            net, FaultSpec("link_down", [hosts[0].name, hosts[1].name], sched), random.Random(0)
        )


# ----------------------------------------------------------------------
# network-layer contracts (satellites)
# ----------------------------------------------------------------------
def test_set_link_state_half_registered_raises_without_mutation():
    sim, net, hosts = _two_spine_net()
    leaf0 = next(s for s in net.switches if s.name == "leaf0")
    spine0 = next(s for s in net.switches if s.name == "spine0")
    # corrupt one side of the adjacency to simulate a half-registered link
    net._adj[spine0.node_id] = [
        (port, peer) for port, peer in net._adj[spine0.node_id] if peer is not leaf0
    ]
    with pytest.raises(ValueError, match="one endpoint"):
        net.set_link_state(leaf0, spine0, up=False)
    # nothing was cut: every port of both switches still up
    assert all(not p.down for p in leaf0.ports + spine0.ports)


def test_restore_returns_int_and_cut_restore_round_trip():
    sim, net, hosts = _two_spine_net()
    leaf0 = next(s for s in net.switches if s.name == "leaf0")
    spine0 = next(s for s in net.switches if s.name == "spine0")
    dropped = net.set_link_state(leaf0, spine0, up=False)
    assert isinstance(dropped, int)
    restored = net.set_link_state(leaf0, spine0, up=True)
    assert restored == 0  # restore drops nothing, by contract


# ----------------------------------------------------------------------
# injector: blackhole window + reconvergence
# ----------------------------------------------------------------------
def test_injector_blackholes_until_detection_then_reconverges():
    sim, net, hosts = _two_spine_net()
    plan = FaultPlan(
        [FaultSpec("link_down", ["leaf0", "spine0"],
                   Schedule("oneshot", at_ns=10_000, duration_ns=100_000))],
        seed=1,
        detection_ns=30_000,
    )
    inj = FaultInjector(sim, net, plan).arm()
    leaf0 = next(s for s in net.switches if s.name == "leaf0")
    dst = hosts[1].node_id
    routes_before = list(leaf0.routes[dst])
    assert len(routes_before) == 2  # ECMP over both spines
    sim.run(until=15_000)  # cut happened, detection pending
    assert leaf0.routes[dst] == routes_before  # stale routes: blackhole window
    sim.run(until=45_000)  # past detection: control plane reconverged
    assert len(leaf0.routes[dst]) == 1
    assert inj.injected == 1 and inj.reconverges == 1
    sim.run(until=200_000)  # restore at 110k + detection at 140k
    assert len(leaf0.routes[dst]) == 2  # both paths back
    assert inj.cleared == 1 and inj.reconverges == 2


def test_injector_arm_is_idempotent():
    sim, net, hosts = _two_spine_net()
    plan = FaultPlan(
        [FaultSpec("link_down", ["leaf0", "spine0"],
                   Schedule("oneshot", at_ns=10_000, duration_ns=10_000))],
        seed=1,
    )
    inj = FaultInjector(sim, net, plan).arm().arm()
    sim.run(until=100_000)
    assert inj.injected == 1 and inj.cleared == 1


def test_a_destination_with_no_route_blackholes_instead_of_raising():
    """Cutting a host's only link leaves the switch no route to it once the
    control plane reconverges: its frames drop as ``blackhole`` (as on a down
    port inside the detection window) and the run finishes, with the drop
    ledger reconciled reason for reason."""
    plan = FaultPlan(
        [FaultSpec("link_down", ["s0", "bottleneck"],
                   Schedule("oneshot", at_ns=200_000, duration_ns=300_000))],
        seed=1,
    )
    with audit_scope("strict") as aud:
        result = run_experiment(get_experiment("quickstart"), jobs=1, faults=plan)
    assert result["all_done"]
    (switch,) = aud._switches
    assert switch.buffer.stats.dropped_by_reason["blackhole"] > 0
    report = aud.report
    assert report.ok and report.checks["drop_accounting"] > 0
    assert report.ledger["dropped"]["blackhole"] == switch.buffer.stats.dropped_by_reason["blackhole"]


# ----------------------------------------------------------------------
# end-to-end determinism (module-level so worker processes can pickle)
# ----------------------------------------------------------------------
def _mini_fault_run(seed: int = 3) -> dict:
    sim, net, hosts = _two_spine_net(seed)
    flows = [Flow(1, hosts[0], hosts[1], 200_000), Flow(2, hosts[1], hosts[0], 150_000)]
    for f in flows:
        FlowSender(sim, net, f, CongestionControl(init_cwnd_bytes=64_000), rto_ns=200_000)
    sim.run(until=1_000_000_000)
    inj = net.fault_injector
    return {
        "fcts": [f.fct_ns() if f.done else None for f in flows],
        "retransmits": [f.retransmits for f in flows],
        "drops": net.total_drops(),
        "faults": inj.stats() if inj is not None else None,
    }


MINI_FAULTS = FunctionExperiment(
    "mini-faults",
    {"s3": (_mini_fault_run, {"seed": 3}), "s4": (_mini_fault_run, {"seed": 4})},
)

_MINI_PLAN = FaultPlan(
    [
        FaultSpec(
            "link_down",
            ["leaf0", "spine0"],
            Schedule("flap", at_ns=30_000, duration_ns=40_000, period_ns=120_000, count=2),
        ),
        FaultSpec(
            "link_degrade",
            ["leaf1", "spine1"],
            Schedule("oneshot", at_ns=20_000, duration_ns=150_000),
            rate_factor=0.5,
            drop_prob=0.02,
            delay_spike_ns=1_000,
        ),
    ],
    seed=11,
    detection_ns=20_000,
)


def _canon(result) -> str:
    return json.dumps(result, sort_keys=True)


def test_same_plan_same_seed_byte_identical_repeat_runs():
    r1 = run_experiment(MINI_FAULTS, jobs=1, faults=_MINI_PLAN)
    r2 = run_experiment(MINI_FAULTS, jobs=1, faults=_MINI_PLAN)
    assert _canon(r1) == _canon(r2)
    # the plan visibly did something (wire corruption + injections)
    assert r1["s3"]["faults"]["injected"] == 3
    assert r1["s3"]["faults"]["wire_corrupted"] >= 0


def test_parallel_matches_serial_with_faults():
    serial = run_experiment(MINI_FAULTS, jobs=1, faults=_MINI_PLAN)
    parallel = run_experiment(MINI_FAULTS, jobs=2, faults=_MINI_PLAN)
    assert _canon(serial) == _canon(parallel)


def test_telemetry_on_off_identical_with_faults():
    baseline = run_experiment(MINI_FAULTS, jobs=1, faults=_MINI_PLAN)
    log = ChannelLog()
    with installed(Recorder(log)):
        traced = run_experiment(MINI_FAULTS, jobs=1, faults=_MINI_PLAN)
    assert _canon(baseline) == _canon(traced)
    # the recorder saw the fault channel
    assert log.events["fault"]


def test_no_plan_means_no_injector():
    assert current_fault_plan() is None
    result = _mini_fault_run(seed=3)
    assert result["faults"] is None


def test_default_plan_is_restored_after_run_experiment():
    sentinel = FaultPlan([], seed=99)
    set_default_fault_plan(sentinel)
    try:
        run_experiment(MINI_FAULTS, jobs=1, faults=_MINI_PLAN)
        assert current_fault_plan() is sentinel
    finally:
        set_default_fault_plan(None)


def test_faults_path_argument(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(_MINI_PLAN.canonical())
    path = str(path)
    from_path = run_experiment(MINI_FAULTS, jobs=1, faults=path)
    from_plan = run_experiment(MINI_FAULTS, jobs=1, faults=_MINI_PLAN)
    assert _canon(from_path) == _canon(from_plan)


def test_cache_key_tracks_fault_plan():
    points = list(MINI_FAULTS.points())
    bare = cache_key(MINI_FAULTS.name, points[0])
    faulted = cache_key(MINI_FAULTS.name, points[0], extra={"faults": _MINI_PLAN.to_dict()})
    other = cache_key(
        MINI_FAULTS.name, points[0],
        extra={"faults": FaultPlan(_MINI_PLAN.specs, seed=12).to_dict()},
    )
    assert len({bare, faulted, other}) == 3


def test_cached_faulted_results_do_not_alias_healthy(tmp_path):
    cache = str(tmp_path / "cache")
    healthy = run_experiment(MINI_FAULTS, jobs=1, cache=cache)
    faulted = run_experiment(MINI_FAULTS, jobs=1, cache=cache, faults=_MINI_PLAN)
    assert _canon(healthy) != _canon(faulted)
    # warm-cache re-reads return the matching variant
    assert _canon(run_experiment(MINI_FAULTS, jobs=1, cache=cache)) == _canon(healthy)
    assert _canon(run_experiment(MINI_FAULTS, jobs=1, cache=cache, faults=_MINI_PLAN)) == _canon(faulted)


# ----------------------------------------------------------------------
# experiment smoke: the paper-facing headline invariant
# ----------------------------------------------------------------------
def test_fault_invariant_tables_quick():
    """The whole invariants table of both registered ``--quick`` runs.  On
    the flap the priority-aware modes hold every invariant and priority-blind
    DCQCN fails to keep the high class on the residual.  On the lossy
    degraded bottleneck every mode's wire corrupts packets, and only PrioPlus
    keeps the high class on the residual."""
    flap = run_experiment(get_experiment("fault_flap").quick())
    degrade = run_experiment(get_experiment("fault_degrade").quick())
    every = {"high_retains_residual": True, "low_backs_off": True, "reconverges": True}
    fails_retention = dict(every, high_retains_residual=False)
    assert flap["invariants"] == {
        "prioplus": every, "swift_targets": every, "dcqcn": fails_retention,
    }
    assert degrade["invariants"] == {
        "prioplus": every, "swift_targets": fails_retention, "dcqcn": fails_retention,
    }
    assert all(r["faults"]["wire_corrupted"] > 0 for r in degrade["modes"].values())
    assert flap["faults"]["injected"] == 1
    assert flap["faults"]["reconverges"] == 2  # cut + restore


def test_cli_lists_fault_experiments():
    from repro.__main__ import main

    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["--list"]) == 0
    names = buf.getvalue().split()
    assert "fault_flap" in names and "fault_degrade" in names
