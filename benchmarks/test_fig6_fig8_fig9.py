"""Figures 6, 8, 9: dual-RTT observability and the testbed experiments."""

from repro.experiments.modes import Mode
from repro.experiments.fig6_dualrtt import _run_fig6
from repro.experiments.fig8_testbed import _run_fig8
from repro.experiments.fig9_fluct import _run_fig9
from repro.sim.engine import MILLISECOND


def test_fig6_increase_visible_after_two_rtts(benchmark):
    r = benchmark.pedantic(_run_fig6, rounds=1, iterations=1)
    print(f"\nFig 6: {r}")
    assert r["lag_rtts"] == 2.0


def test_fig8_prioplus_vs_swift_staircase(benchmark):
    def both():
        pp = _run_fig8(Mode.PRIOPLUS, stagger_ns=2 * MILLISECOND)
        sw = _run_fig8(Mode.SWIFT_TARGETS, stagger_ns=2 * MILLISECOND)
        return pp, sw

    pp, sw = benchmark.pedantic(both, rounds=1, iterations=1)
    for r in (pp, sw):
        print(f"\nFig 8 [{r['mode']}]: takeover_us={['%.0f' % t for t in r['takeover_us']]} "
              f"reclaim_us={['%.0f' % t for t in r['reclaim_us']]} "
              f"leak={r['max_leak_share']:.3f} util={r['utilization']:.3f}")
    # O1: while a priority reigns, lower priorities leak little bandwidth,
    # and PrioPlus leaks less than Swift with per-priority targets
    assert pp["max_leak_share"] < sw["max_leak_share"]
    # O2: PrioPlus reclaims the line faster after a priority finishes
    assert pp["max_reclaim_us"] < sw["max_reclaim_us"]
    # and wastes less bandwidth overall
    assert pp["utilization"] > sw["utilization"]
    assert pp["drops"] == 0


def test_fig9_cardinality_estimation_tames_fluctuations(benchmark):
    def both():
        pp = _run_fig9(Mode.PRIOPLUS, duration_ns=6 * MILLISECOND)
        sw = _run_fig9(Mode.SWIFT_TARGETS, duration_ns=6 * MILLISECOND)
        return pp, sw

    pp, sw = benchmark.pedantic(both, rounds=1, iterations=1)
    for r in (pp, sw):
        print(f"\nFig 9 [{r['mode']}]: mean={r['mean_delay_us']:.1f}us "
              f"std={r['std_delay_us']:.2f}us frac<=limit={r['frac_below_limit']:.4f}")
    # PrioPlus keeps the delay below D_limit at least as reliably as Swift
    # with inflated AI steps (the paper's Fig 9 contrast)
    assert pp["frac_below_limit"] >= sw["frac_below_limit"]
    assert pp["frac_below_limit"] > 0.97
