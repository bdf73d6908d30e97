"""Figure 11: flow-scheduling FCT vs number of priorities (reduced scale).

The quick run replays the same WebSearch workload under the four systems at
the paper's headline priority count (8) and prints the Fig 11a-d rows (total /
small / middle / large, mean and p99).
"""

from repro.experiments.modes import Mode
from repro.experiments.registry import get_experiment
from repro.experiments.report import format_table
from repro.runner import run_experiment


def test_fig11_fct_breakdown():
    rows = run_experiment(get_experiment("fig11").quick())["rows"]
    results = {r["mode"]: r for r in rows}

    table = []
    for mode, r in results.items():
        fct = r.get("fct", {})
        row = [mode, r["n_done"], r["pfc_pauses"], r["drops"]]
        for cls in ("all", "small", "middle", "large"):
            stats = fct.get(cls)
            row.append(round(stats["mean_us"], 1) if stats else "-")
            row.append(round(stats["p99_us"], 1) if stats else "-")
        table.append(row)
    print("\n" + format_table(
        ["mode", "done", "pfc", "drop",
         "all mean", "all p99", "small mean", "small p99",
         "mid mean", "mid p99", "large mean", "large p99"],
        table,
        title="Fig 11 (8 priorities, reduced fat-tree):",
    ))

    pp = results[Mode.PRIOPLUS]["fct"]
    ideal = results[Mode.PHYSICAL_IDEAL]["fct"]
    nocc = results[Mode.PHYSICAL_IDEAL_NOCC]["fct"]

    # everything completes, losslessly, in every mode
    for mode, r in results.items():
        assert r["all_done"], f"{mode} left flows unfinished"
        assert r["drops"] == 0, f"{mode} dropped packets"

    # O1: PrioPlus keeps small (high-priority) flows in the same ballpark as
    # ideal physical queues at the median (start-path overheads show up in
    # the mean; see EXPERIMENTS.md for the scale discussion)
    assert pp["small"]["p50_us"] <= ideal["small"]["p50_us"] * 1.6

    # Physical* w/o CC devastates medium/large tails versus CC-managed runs
    assert nocc["middle"]["p99_us"] > ideal["middle"]["p99_us"]

    # overall ordering: PrioPlus within a small factor of Physical*
    assert pp["all"]["mean_us"] <= ideal["all"]["mean_us"] * 2.5
