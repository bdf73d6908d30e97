"""Figures 1 & 3: existing CCs cannot provide virtual priority (§3)."""

from repro.experiments.registry import get_experiment
from repro.runner import run_experiment


def test_fig3a_d2tcp_not_strict():
    r = run_experiment(get_experiment("fig3a").quick())
    print(f"\nFig 3a (D2TCP): {r}")
    # both flows decelerate on ECN: the urgent flow misses its 1x-ideal
    # deadline and the other flow keeps a sizeable share meanwhile (no O1)
    assert r["hi_met_deadline"] == 0.0
    assert r["hi_fct_over_ideal"] > 1.5
    assert r["lo_share_during_hi"] > 0.2


def test_fig3b_swift_scaling_weighted_not_strict():
    r = run_experiment(get_experiment("fig3b").quick())
    print(f"\nFig 3b (Swift + target scaling): {r}")
    # weighted sharing: lows keep a visible share (violates O1)...
    assert r["lo_share"] > 0.03
    assert r["hi_share"] < 0.95
    # ...while the port stays busy (it is weighted sharing, not collapse)
    assert r["utilization"] > 0.85


def test_fig3c_swift_no_scaling_many_flows():
    r = run_experiment(get_experiment("fig3c").quick())
    print(f"\nFig 3c (Swift w/o scaling, 100 lows + 1 hi): {r}")
    # the late high-priority flow cannot take the full line (violates O1)
    assert r["hi_share_after"] < 0.9


def test_fig3d_min_rate_and_slow_reclaim():
    r = run_experiment(get_experiment("fig3d").quick())
    print(f"\nFig 3d (Swift w/o scaling trade-offs): {r}")
    # lows pinned near the 100 Mbps floor while the highs run
    assert r["lo_min_rate_share"] < 0.02
    # after the highs finish, reclaim is slow (bandwidth wasted, violates O2)
    assert r["lo_share_after"] < 0.5
