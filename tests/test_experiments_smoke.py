"""Smoke tests: every experiment runner executes and returns sane shapes.

These run at deliberately tiny scale — they check plumbing and result
structure.  The directional claims are the verdict tests in
``benchmarks/test_*.py``: each asserts its registered experiment's
``--quick`` run and is named by its row in EXPERIMENTS.md
(``tests/test_experiments_record.py`` checks that mapping).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.modes import CCFactory, Mode
from repro.experiments.fig3_micro import _run_fig3a, _run_fig3b
from repro.experiments.fig6_dualrtt import _run_fig6
from repro.experiments.fig8_testbed import _run_fig8, run_staircase
from repro.experiments.fig9_fluct import _run_fig9
from repro.experiments.fig10_micro import _run_fig10b, _run_fig10c
from repro.experiments.fig13_noncongestive import fig13_gaps, fig13_spec, staircase_fcts
from repro.experiments.fig14_breakdown import run_fig14
from repro.experiments.flowsched import FlowSchedConfig, run_flowsched, size_group_boundaries
from repro.experiments.coflow_scenario import CoflowConfig, build_workload, run_coflow_mode
from repro.experiments.mltrain import MlTrainConfig, run_mltrain_mode
from repro.experiments.registry import FunctionExperiment
from repro.experiments.report import format_table
from repro.runner import run_experiment
from repro.workloads import websearch


def test_fig3a_smoke():
    r = _run_fig3a(size_bytes=200_000)
    assert set(r) >= {"hi_fct_over_ideal", "lo_fct_over_ideal", "lo_share_during_hi"}
    assert r["hi_fct_over_ideal"] >= 1.0


def test_fig3b_smoke():
    r = _run_fig3b(duration_ns=500_000)
    assert 0 <= r["hi_share"] <= 1.1
    assert 0 <= r["lo_share"] <= 1.1


def test_fig6_smoke():
    r = _run_fig6()
    assert 1.0 <= r["lag_rtts"] <= 3.0


def test_fig8_rejects_unknown_mode():
    with pytest.raises(ValueError):
        _run_fig8(Mode.HPCC, stagger_ns=100_000)


def test_staircase_structure():
    r = run_staircase(Mode.PRIOPLUS, priorities=(1, 2), rate=10e9, stagger_ns=300_000)
    assert len(r["takeover_us"]) == 2
    assert len(r["reclaim_us"]) == 1
    assert 0 < r["utilization"] <= 1.1


def test_fig9_smoke():
    r = _run_fig9(Mode.PRIOPLUS, duration_ns=1_000_000)
    assert 0 <= r["frac_below_limit"] <= 1
    assert r["d_limit_us"] > r["d_target_us"]


def test_fig10b_smoke():
    r = _run_fig10b(n_flows=10, rate=10e9, duration_ns=800_000)
    assert r["nflow_estimate"] >= 1


def test_fig10c_smoke_both_arms():
    for dual in (True, False):
        r = _run_fig10c(dual, n_each=2, rate=10e9, duration_ns=1_200_000, hi_start_ns=200_000)
        assert r["dual_rtt"] == dual
        assert r["hi_rate_mean_share"] > 0.3


def test_fig13_point_smoke():
    assert list(fig13_spec()) == ["prioplus@6us", "physical@6us", "prioplus@40us", "physical@40us"]
    point = dict(tolerance_us=10.0, noncongestive_range_us=0.0, rate=10e9, stagger_ns=200_000, seed=1)
    spec = {
        f"{kind}@0us": (staircase_fcts, dict(point, use_prioplus=use_prioplus))
        for kind, use_prioplus in (("prioplus", True), ("physical", False))
    }
    exp = FunctionExperiment("fig13-smoke", spec, reduce_fn=fig13_gaps)
    assert [p.name for p in exp.points()] == ["prioplus@0us", "physical@0us"]
    assert run_experiment(exp)["gap@0us"] >= 0.0


def test_headroom_point_is_independent_of_the_hash_seed():
    """A point's result is a function of its config: the wave → priority-group
    map once went through ``hash(("wave", k))``, which is salted per process."""
    code = (
        "import json\n"
        "from repro.experiments.headroom_pressure import run_headroom_point\n"
        "print(json.dumps(run_headroom_point('prioplus', 8, n_senders=8, duration_ns=400_000)))"
    )
    results = []
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        )
        assert out.returncode == 0, out.stderr
        results.append(json.loads(out.stdout))
    assert results[0] == results[1]
    assert results[0]["done"] == results[0]["total"]


def test_flowsched_smoke_all_modes():
    cfg = FlowSchedConfig(rate_bps=25e9, duration_ns=150_000, size_scale=0.05, seed=9)
    for mode in (Mode.PRIOPLUS, Mode.PHYSICAL_IDEAL, Mode.D2TCP, Mode.HPCC):
        r = run_flowsched(mode, 4, cfg)
        assert r["all_done"], mode
        assert r["fct"]["all"]["count"] == r["n_done"]


def test_fig14_draws_its_configs_workload():
    """Fig 14 takes its size distribution from ``cfg.cdf_factory``, as
    ``run_flowsched`` does, instead of a hard-wired WebSearch."""
    scales = []

    def cdf_factory(scale):
        scales.append(scale)
        return websearch(scale)

    cfg = FlowSchedConfig(
        rate_bps=25e9, duration_ns=20_000, size_scale=0.05, seed=9, cdf_factory=cdf_factory
    )
    r = run_fig14(Mode.PRIOPLUS, 4, cfg)
    assert scales == [0.05]
    assert r["n_flows"] > 0


def test_size_group_boundaries_monotone():
    b = size_group_boundaries(websearch(), 8)
    assert b == sorted(b)
    assert len(b) == 7


def test_coflow_workload_and_one_mode():
    cfg = CoflowConfig(
        n_racks=2, hosts_per_rack=2, host_rate_bps=10e9, core_rate_bps=40e9, load=0.7,
        duration_ns=300_000, mean_flow_bytes=60_000, request_fanout=2,
        request_piece_bytes=30_000, seed=7, link_delay_ns=300,
    )
    jobs, groups = build_workload(cfg)
    assert jobs and set(groups.values()) <= set(range(8))
    total = sum(j.total_bytes for j in jobs)
    budget = cfg.load * cfg.n_hosts * cfg.host_rate_bps * cfg.duration_ns / 8e9
    assert total == pytest.approx(budget, rel=0.6)
    ccts = run_coflow_mode(Mode.PRIOPLUS, cfg, jobs, groups, False)
    assert len(ccts) == len(jobs)  # every job completed
    assert all(v > 0 for v in ccts.values())


def test_mltrain_one_mode_smoke():
    cfg = MlTrainConfig(seed=11)
    r = run_mltrain_mode(Mode.PRIOPLUS, cfg)
    assert set(r["iters_per_job"]) == {"resnet", "vgg"}
    assert r["total_iters"] >= 0


def test_ccfactory_layouts():
    fac = CCFactory(Mode.PRIOPLUS, n_priorities=8)
    assert fac.n_queues() == 2
    assert fac.data_priority(0) == 0
    assert fac.vpriority(0) == 8  # highest group -> largest channel
    phys = CCFactory(Mode.PHYSICAL, n_priorities=8)
    assert phys.n_queues() == 9
    assert phys.data_priority(0) == 7  # highest group -> top data queue
    assert phys.ack_priority(0) == 8
    same_ack = CCFactory(Mode.PRIOPLUS_SAME_ACK, n_priorities=8)
    assert same_ack.ack_priority(3) == same_ack.data_priority(3)


def test_fig11_physical_headroom_ceiling():
    """Real physical queues cannot exceed 8 priorities (protocol limit)."""
    with pytest.raises(ValueError):
        CCFactory(Mode.PHYSICAL, n_priorities=9)


def test_ccfactory_swift_baseline_single_class():
    fac = CCFactory(Mode.SWIFT, n_priorities=8)
    assert fac.vpriority(0) == fac.vpriority(7) == 1


def test_report_table():
    out = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="t")
    assert "t" in out and "2.500" in out and "x" in out


def test_ablation_runners_smoke():
    from repro.experiments.ablations import (
        run_cardinality_ablation,
        run_collision_avoidance_ablation,
        run_filter_ablation,
    )

    r = run_collision_avoidance_ablation(True, n_low=4, rate=10e9, duration_ns=800_000)
    assert "total_probes" in r
    r = run_filter_ablation(2, duration_ns=600_000)
    assert 0 <= r["utilization"] <= 1.1
    r = run_cardinality_ablation(True, n_flows=8, rate=10e9, duration_ns=500_000)
    assert r["max_nflow"] >= 1


def test_table2_validation_smoke():
    from repro.experiments.table2_validation import _table2_strategy

    for strategy in ("line_rate", "exponential", "linear"):
        v = _table2_strategy(strategy)
        assert v["peak_extra_buffer_bdp"] >= 0
        assert v["fct_ns"] > 0


def test_ecn_priority_smoke():
    from repro.experiments.ecn_priority import run_ecn_priority

    r = run_ecn_priority(True)
    assert 0 <= r["hi_share"] <= 1.1

