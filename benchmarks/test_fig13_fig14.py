"""Figure 13 (non-congestive delay) and Figure 14 (per-priority breakdown)."""

from repro.experiments.modes import Mode
from repro.experiments.fig13_noncongestive import run_fig13_point
from repro.experiments.fig14_breakdown import normalize_to_physical, run_fig14
from repro.experiments.flowsched import FlowSchedConfig
from repro.experiments.report import format_table


def test_fig13_tolerance_absorbs_noncongestive_delay(benchmark):
    def points():
        tol = 10.0
        within = run_fig13_point(tol, noncongestive_range_us=6.0, stagger_ns=500_000)
        beyond = run_fig13_point(tol, noncongestive_range_us=40.0, stagger_ns=500_000)
        return within, beyond

    within, beyond = benchmark.pedantic(points, rounds=1, iterations=1)
    print(f"\nFig 13 (tolerance 10us): gap@range6us={within:.3f} gap@range40us={beyond:.3f}")
    # ranges inside the configured tolerance barely move the FCT gap;
    # ranges well beyond it degrade it markedly
    assert beyond > within * 1.5


def test_fig14_priority_level_breakdown(benchmark):
    cfg = FlowSchedConfig(rate_bps=100e9, duration_ns=400_000, size_scale=0.1, load=0.5)

    def runs():
        out = {}
        for mode in (Mode.PRIOPLUS, Mode.PHYSICAL_IDEAL):
            out[mode] = run_fig14(mode, n_priorities=6, cfg=cfg)
        return out

    results = benchmark.pedantic(runs, rounds=1, iterations=1)
    norm = normalize_to_physical(results)
    rows = []
    for (tier, bucket), ratio in sorted(norm[Mode.PRIOPLUS].items()):
        cell = results[Mode.PRIOPLUS]["cells"][(tier, bucket)]
        rows.append([tier, bucket, cell["count"], round(cell["mean_us"], 1), round(ratio, 3)])
    print("\n" + format_table(
        ["prio tier", "size bucket", "n", "PrioPlus mean (us)", "vs Physical*"],
        rows,
        title="Fig 14: FCT by priority level x size, normalised to Physical*+Swift",
    ))

    pp = results[Mode.PRIOPLUS]["cells"]
    # the paper's headline: a high D_target does not condemn high-priority
    # sub-RTT flows to high delay — their FCT stays a small multiple of the
    # base RTT (~4-13 us here) even though D_target is tens of us
    if ("high", "sub_rtt") in pp:
        assert pp[("high", "sub_rtt")]["mean_us"] < 40.0
    # and high-priority traffic is consistently faster than low-priority
    hi_cells = [v["mean_us"] for (t, b), v in pp.items() if t == "high"]
    lo_cells = [v["mean_us"] for (t, b), v in pp.items() if t == "low" and b != "sub_rtt"]
    if hi_cells and lo_cells:
        assert min(lo_cells) >= min(hi_cells)
