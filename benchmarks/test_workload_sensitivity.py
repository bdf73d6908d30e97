"""Robustness check: PrioPlus across three flow-size mixes.

Not a paper figure — a reviewer-style sanity sweep showing the mechanism is
not tuned to WebSearch: the same channels schedule the Facebook-Hadoop mix
(tiny median, enormous tail) and a storage mix (bimodal) correctly.

The one verdict test that calls ``run_flowsched`` itself: a ``cdf_factory``
is a callable, so the sweep cannot ride in a registered point's JSON config.
"""

from repro.experiments.modes import Mode
from repro.experiments.flowsched import FlowSchedConfig, run_flowsched
from repro.experiments.report import format_table
from repro.workloads import ali_storage, hadoop, websearch


def test_prioplus_across_workloads():
    results = {}
    for name, factory, scale in (
        ("websearch", websearch, 0.1),
        ("hadoop", hadoop, 0.002),
        ("storage", ali_storage, 0.2),
    ):
        cfg = FlowSchedConfig(
            rate_bps=100e9, duration_ns=300_000, size_scale=scale, cdf_factory=factory
        )
        results[name] = run_flowsched(Mode.PRIOPLUS, 8, cfg)
    rows = []
    for name, r in results.items():
        fct = r["fct"]["all"]
        rows.append([name, r["n_flows"], round(fct["mean_us"], 1), round(fct["p99_us"], 1),
                     r["drops"]])
    print("\n" + format_table(
        ["workload", "flows", "mean FCT (us)", "p99 FCT (us)", "drops"], rows,
        title="PrioPlus (8 virtual priorities) across flow-size mixes:",
    ))
    for name, r in results.items():
        assert r["all_done"], name
        assert r["drops"] == 0, name
