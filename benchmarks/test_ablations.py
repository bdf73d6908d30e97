"""Ablations & extensions: design-choice validations beyond the paper's figures.

* Table 2 validated *empirically* (start strategies on a busy link);
* noise filter, cardinality estimation, probe collision avoidance on/off;
* Appendix-B prototype: per-priority ECN marking for DCTCP.
"""

import pytest

from repro.experiments.registry import get_experiment
from repro.experiments.report import format_table
from repro.runner import run_experiment


@pytest.fixture(scope="module")
def ablations():
    """One ``ablations`` run: the three on/off pairs share it."""
    return run_experiment(get_experiment("ablations").quick())


def test_table2_empirical_validation():
    r = run_experiment(get_experiment("table2").quick())
    rows = [
        (k, round(v["peak_extra_buffer_bdp"], 3), round(v["fct_ns"] / 1e3, 1))
        for k, v in r.items()
    ]
    print("\n" + format_table(
        ["strategy", "peak extra buffer (BDP)", "FCT (us)"], rows,
        title="Table 2, measured on a 75%-utilised link:",
    ))
    # Table 2's ordering: linear start buffers far less than both others...
    assert r["linear"]["peak_extra_buffer_bdp"] < 0.5 * r["line_rate"]["peak_extra_buffer_bdp"]
    assert r["linear"]["peak_extra_buffer_bdp"] < 0.5 * r["exponential"]["peak_extra_buffer_bdp"]
    # ...at the cost of a slower transfer (bytes delayed)
    assert r["line_rate"]["fct_ns"] <= r["exponential"]["fct_ns"] <= r["linear"]["fct_ns"]
    # NOTE: measured exponential ~= line-rate because the delay signal lags
    # the window increase by 2 RTTs (the paper's own Fig 6 insight), letting
    # slow start take two extra doublings beyond the analytical stop point.


def test_filter_ablation(ablations):
    with_filter, without = ablations["filter"]
    print(f"\nfilter=2: {with_filter}\nfilter=1: {without}")
    # §4.3.1: the two-consecutive filter suppresses spurious relinquishes
    assert with_filter["relinquishes"] < without["relinquishes"] / 3
    assert with_filter["utilization"] > without["utilization"]


def test_cardinality_ablation(ablations):
    with_est, without = ablations["cardinality"]
    print(f"\ncardinality on: {with_est}\ncardinality off: {without}")
    # §4.3.1: without the estimator, the incast repeatedly blows past D_limit
    assert with_est["frac_above_limit"] <= without["frac_above_limit"]
    assert with_est["relinquishes"] < without["relinquishes"]
    assert with_est["max_nflow"] > 10


def test_collision_avoidance_ablation(ablations):
    with_ca, without = ablations["collision_avoidance"]
    print(f"\nCA on:  {with_ca}\nCA off: {without}")
    # §4.2.1: collision avoidance cuts the probe load on the network
    assert with_ca["total_probes"] < without["total_probes"]


def test_ecn_priority_extension():
    r = run_experiment(get_experiment("ecn-priority").quick())
    uniform, prio = r["uniform"], r["per_priority"]
    print(f"\nuniform marking: {uniform}\nper-priority marking: {prio}")
    # Appendix B: priority-dependent marking turns DCTCP's fair split into
    # near-strict priority, with no loss of utilisation
    assert abs(uniform["hi_share"] - uniform["lo_share"]) < 0.2
    assert prio["hi_share"] > 0.8
    assert prio["lo_share"] < 0.2
    assert prio["utilization"] > 0.9
