"""Figure 10: PrioPlus micro-benchmarks (§6.1), reduced scale."""

from repro.experiments.registry import get_experiment
from repro.runner import run_experiment


def test_fig10a_eight_priority_staircase():
    r = run_experiment(get_experiment("fig10a").quick())
    print(f"\nFig 10a: leak={r['max_leak_share']:.3f} reclaim_us={['%.0f' % t for t in r['reclaim_us']]} "
          f"util={r['utilization']:.3f}")
    # O1: strict yield; O2: fast reclaim and high utilisation
    assert r["max_leak_share"] < 0.30
    assert r["max_reclaim_us"] < 600
    assert r["utilization"] > 0.85
    assert r["drops"] == 0


def test_fig10b_incast_delay_near_target():
    r = run_experiment(get_experiment("fig10b").quick())
    print(f"\nFig 10b: {r}")
    # the cardinality estimator pins delay below D_limit despite the incast
    assert r["frac_above_limit"] < 0.05
    # and the estimate is in the right ballpark (60 flows)
    assert 20 <= r["nflow_estimate"] <= 120


def test_fig10c_dual_rtt_avoids_overreaction():
    runs = run_experiment(get_experiment("fig10c").quick())
    dual, every = runs["dual_rtt"], runs["every_rtt"]
    print(f"\nFig 10c dual-RTT: {dual}")
    print(f"Fig 10c every-RTT: {every}")
    # the ablation overshoots the target delay and oscillates in rate
    assert dual["max_delay_overshoot_us"] < every["max_delay_overshoot_us"]
    assert dual["hi_rate_std_share"] < every["hi_rate_std_share"]
    assert dual["hi_rate_mean_share"] > 0.85


def test_fig10d_channel_width_grows_with_noise():
    r = run_experiment(get_experiment("fig10d").quick())
    print(f"\nFig 10d required noise budget B (us) per noise scale: {r}")
    assert r["1.0"] <= r["4.0"] <= r["8.0"]
    assert r["8.0"] > r["1.0"]
    assert r["8.0"] != float("inf")
