"""Figure 13 (non-congestive delay) and Figure 14 (per-priority breakdown)."""

from repro.experiments.modes import Mode
from repro.experiments.fig14_breakdown import fig14_normalized, fig14_point
from repro.experiments.registry import FunctionExperiment, get_experiment
from repro.experiments.report import format_table
from repro.runner import run_experiment


def test_fig13_tolerance_absorbs_noncongestive_delay(benchmark):
    # the registered declaration: tolerance 10 us, ranges 6 and 40 us
    gaps = benchmark.pedantic(
        run_experiment, args=(get_experiment("fig13"),), rounds=1, iterations=1
    )
    within, beyond = gaps["gap@6us"], gaps["gap@40us"]
    print(f"\nFig 13 (tolerance 10us): gap@range6us={within:.3f} gap@range40us={beyond:.3f}")
    # ranges inside the configured tolerance barely move the FCT gap;
    # ranges well beyond it degrade it markedly
    assert beyond > within * 1.5


def test_fig14_priority_level_breakdown(benchmark):
    cfg = {"rate_bps": 100e9, "duration_ns": 400_000, "size_scale": 0.1, "load": 0.5}
    # the fig14 declaration cut to two modes x six levels on a shorter trace
    exp = FunctionExperiment(
        "fig14-ci",
        {
            mode: (fig14_point, {"mode": mode, "n_priorities": 6, "cfg": cfg})
            for mode in (Mode.PRIOPLUS, Mode.PHYSICAL_IDEAL)
        },
        reduce_fn=fig14_normalized,
    )
    out = benchmark.pedantic(run_experiment, args=(exp,), rounds=1, iterations=1)
    results, norm = out["results"], out["normalized_to_physical"]
    rows = []
    for key, ratio in sorted(norm[Mode.PRIOPLUS].items()):
        tier, bucket = key.split("/")
        cell = results[Mode.PRIOPLUS]["cells"][key]
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
    if "high/sub_rtt" in pp:
        assert pp["high/sub_rtt"]["mean_us"] < 40.0
    # and high-priority traffic is consistently faster than low-priority
    hi_cells = [v["mean_us"] for key, v in pp.items() if key.startswith("high/")]
    lo_cells = [
        v["mean_us"] for key, v in pp.items() if key.startswith("low/") and key != "low/sub_rtt"
    ]
    if hi_cells and lo_cells:
        assert min(lo_cells) >= min(hi_cells)
