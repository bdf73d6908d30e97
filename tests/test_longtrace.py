"""Long-trace pipeline tests: staged admission, streaming reduction,
sampler pruning, and hybrid-driver long-run hardening.

These pin the machinery that makes multi-second paper-scale traces
first-class: :class:`repro.experiments.launch.FlowAdmitter` (senders
materialized only near their start time, pruned at completion),
``run_flowsched(streaming=True)`` (bounded-memory P² result reduction that
agrees with the historical list path), completed-sender pruning in the
time-series sampler, and the hybrid driver's predicate loop / path-cache
bound / fresh-start handoff.
"""

import pytest

from repro.experiments.launch import FlowAdmitter, run_admitter
from repro.experiments.modes import CCFactory, Mode
from repro.experiments.flowsched import FlowSchedConfig, run_flowsched
from repro.sim.engine import Simulator
from repro.topology import fat_tree
from repro.workloads import FlowSpec


def _small_world(seed: int = 3):
    sim = Simulator(seed)
    factory = CCFactory(Mode.SWIFT)
    net, hosts = fat_tree(sim, k=4, rate_bps=10e9, link_delay_ns=1000)
    return sim, net, hosts, factory


# ----------------------------------------------------------------------
# FlowAdmitter: staged admission + endpoint pruning
# ----------------------------------------------------------------------
def test_admitter_bounds_live_senders_and_prunes_endpoints():
    sim, net, hosts, factory = _small_world()
    # 40 well-separated small flows: with a tight horizon only a handful of
    # senders may ever exist at once
    specs = [
        FlowSpec(i % 8, 8 + i % 8, 20_000, start_ns=i * 400_000) for i in range(40)
    ]
    admitter = FlowAdmitter(
        sim, net, specs, hosts, factory, group_of=lambda s: 0, horizon_ns=100_000
    )
    done = run_admitter(sim, admitter, hard_deadline_ns=1_000_000_000)
    assert done and admitter.all_done
    assert admitter.n_admitted == admitter.n_done == 40
    # staged admission: never anywhere near all 40 senders alive at once
    assert admitter.live_peak < 10
    assert admitter.live == 0
    # completed endpoints were pruned from the host maps
    assert all(not h.senders and not h.receivers for h in hosts)


def test_admitter_rejects_unsorted_stream():
    sim, net, hosts, factory = _small_world()
    specs = [
        FlowSpec(0, 8, 10_000, start_ns=500_000),
        FlowSpec(1, 9, 10_000, start_ns=400_000),  # goes back in time
    ]
    with pytest.raises(ValueError, match="not sorted"):
        FlowAdmitter(
            sim, net, iter(specs), hosts, factory, group_of=lambda s: 0, horizon_ns=10**9
        )


def test_admitter_on_flow_done_fires_once_per_flow():
    sim, net, hosts, factory = _small_world()
    specs = [FlowSpec(i, 8 + i, 15_000, start_ns=i * 50_000) for i in range(6)]
    seen = []
    admitter = FlowAdmitter(
        sim, net, specs, hosts, factory, group_of=lambda s: 0,
        horizon_ns=25_000, on_flow_done=lambda f: seen.append(f.flow_id),
    )
    assert run_admitter(sim, admitter, 10**9)
    assert sorted(seen) == [1, 2, 3, 4, 5, 6]
    assert len(set(seen)) == 6


# ----------------------------------------------------------------------
# streaming flowsched agrees with the list path
# ----------------------------------------------------------------------
def test_streaming_flowsched_matches_list_path():
    cfg = FlowSchedConfig(rate_bps=10e9, duration_ns=200_000, size_scale=0.01,
                          load=0.4, seed=11)
    r_list = run_flowsched(Mode.PRIOPLUS, 4, cfg)
    r_stream = run_flowsched(Mode.PRIOPLUS, 4, cfg, streaming=True)
    # identical workload, identical completions
    assert r_stream["n_flows"] == r_list["n_flows"] > 0
    assert r_stream["n_done"] == r_list["n_done"]
    assert r_stream["all_done"] == r_list["all_done"]
    assert r_stream["streaming"] is True
    # counts agree per size class and per priority group
    for name in ("all", "small", "middle", "large"):
        assert r_stream["fct"][name]["count"] == r_list["fct"][name]["count"]
    for g in range(4):
        assert r_stream["fct_by_group"][g]["count"] == r_list["fct_by_group"][g]["count"]
    # means agree exactly; percentiles are P² estimates (same population)
    la, sa = r_list["fct"]["all"], r_stream["fct"]["all"]
    assert sa["mean_us"] == pytest.approx(la["mean_us"], rel=1e-9)
    assert sa["p99_us"] == pytest.approx(la["p99_us"], rel=0.25)


def test_flowsched_emits_empty_groups():
    """The empty-group regression: every size class and priority group is
    present with a well-defined n=0 record, never a ZeroDivisionError."""
    # almost no traffic: a couple of flows, 8 fine-grained priority groups —
    # most groups complete zero flows
    cfg = FlowSchedConfig(rate_bps=10e9, duration_ns=20_000, size_scale=0.01,
                          load=0.1, seed=5)
    r = run_flowsched(Mode.SWIFT, 8, cfg)
    if "fct" not in r:  # zero completions entirely: n_done propagated as 0
        assert r["n_done"] == 0
        return
    assert set(r["fct"]) == {"all", "small", "middle", "large"}
    assert set(r["fct_by_group"]) == set(range(8))
    total = 0
    for g, rec in r["fct_by_group"].items():
        assert rec["count"] >= 0
        if rec["count"] == 0:
            assert rec["mean_us"] is None and rec["p99_us"] is None
        total += rec["count"]
    assert total == r["fct"]["all"]["count"] == r["n_done"]
    assert any(rec["count"] == 0 for rec in r["fct_by_group"].values())


# ----------------------------------------------------------------------
# sampler prunes completed senders
# ----------------------------------------------------------------------
def test_sampler_prunes_completed_senders():
    from repro.obs import TimeSeriesSampler
    from repro.probe import installed

    smp = TimeSeriesSampler(stride_ns=50_000)
    with installed(smp):
        sim, net, hosts, factory = _small_world()
        specs = [FlowSpec(i, 8 + i, 30_000, start_ns=i * 200_000) for i in range(4)]
        admitter = FlowAdmitter(
            sim, net, specs, hosts, factory, group_of=lambda s: 0, horizon_ns=100_000
        )
        assert run_admitter(sim, admitter, 10**9)
        # drive one more stride so the sampler observes the last completion
        sim.run(until=sim.now + 100_000)
    assert smp.flows_pruned == 4
    assert smp._senders == []
    assert smp._last_acked == {}
    flow_rows = [r for r in smp.rows() if r["kind"] == "flow"]
    for fid in (1, 2, 3, 4):
        done_rows = [r for r in flow_rows if r["flow"] == fid and r["state"] == "done"]
        assert len(done_rows) == 1  # exactly one terminal row per flow
    assert smp.snapshot()["flows_pruned"] == 4


# ----------------------------------------------------------------------
# hybrid driver long-run hardening
# ----------------------------------------------------------------------
#: two PrioPlus ranks, by source parity: flows from neighbouring sources to
#: one destination contend across ranks, the contention the driver exits on
_TWO_RANKS = CCFactory(Mode.PRIOPLUS, n_priorities=2)


def _by_src_parity(spec) -> int:
    return spec.src_idx % 2


def _hybrid_streaming_run(n_flows: int, gap_ns: int):
    from repro.fluid import FluidConfig, HybridDriver

    sim, net, hosts, _ = _small_world(seed=9)
    # two-flow bursts of two ranks sharing a destination: each burst is
    # cross-rank contention (forces a fluid exit), each inter-burst gap
    # quiesces (re-enters fluid)
    specs = [
        FlowSpec(i % 8, 8 + (i // 2) % 8, 120_000, start_ns=(i // 2) * gap_ns)
        for i in range(n_flows)
    ]
    admitter = FlowAdmitter(
        sim, net, specs, hosts, _TWO_RANKS, group_of=_by_src_parity, horizon_ns=50_000
    )
    driver = HybridDriver(sim, net, FluidConfig(check_every_ns=50_000))
    ok = run_admitter(sim, admitter, 10**10, driver=driver)
    return ok, admitter, driver


def test_hybrid_run_until_done_with_streaming_admission():
    """Repeated packet<->fluid regime switches over a staged-admission
    trace: every flow completes, quiescence/drain bookkeeping doesn't
    drift, and flows that start inside fluid epochs are carried."""
    ok, admitter, driver = _hybrid_streaming_run(n_flows=30, gap_ns=400_000)
    assert ok and admitter.all_done
    assert admitter.n_done == 30
    st = driver.stats
    assert st["fluid_epochs"] >= 2  # it kept switching, not a one-shot
    assert st["drain_failures"] == 0
    assert st["exit_reasons"].get("contention:priority", 0) >= 1
    # bursts start inside fluid epochs and are handed back before a byte
    assert st["admitted_in_fluid"] >= 1
    assert st["handoff_fresh_starts"] >= 1
    # fluid epochs carried real work on this workload
    assert st["fluid_ns"] > 0


def test_hybrid_fresh_start_handoff_runs_cc_start():
    """A flow admitted during a fluid epoch but handed back to packets
    before moving a byte must go through the real cc.on_start() path."""
    from repro.fluid import FluidConfig, HybridDriver

    sim, net, hosts, _ = _small_world(seed=21)
    # flow 1 starts at t=0 and quiesces the fabric afterwards; flows 2 and 3
    # start much later, inside a fluid epoch, on two ranks to one destination,
    # so the driver exits on priority contention before either moves a byte
    specs = [
        FlowSpec(0, 8, 60_000, start_ns=0),
        FlowSpec(1, 9, 60_000, start_ns=2_000_000),
        FlowSpec(2, 9, 60_000, start_ns=2_000_000),
    ]
    admitter = FlowAdmitter(
        sim, net, specs, hosts, _TWO_RANKS, group_of=_by_src_parity, horizon_ns=10_000
    )
    driver = HybridDriver(sim, net, FluidConfig(check_every_ns=50_000))
    assert run_admitter(sim, admitter, 10**10, driver=driver)
    assert admitter.n_done == 3
    st = driver.stats
    assert st["fluid_epochs"] >= 2
    assert st["drain_failures"] == 0
    assert st["exit_reasons"].get("contention:priority", 0) >= 1
    # the fresh starts went through cc.on_start (counted), and nothing stalled
    assert st["handoff_fresh_starts"] >= 1
