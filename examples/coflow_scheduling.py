#!/usr/bin/env python3
"""Coflow scheduling with virtual priorities (the paper's §6.2 scenario).

Synthesises Hadoop-style shuffle coflows plus file-request incasts on a
multi-rack fabric, groups jobs into 8 size classes (smallest = highest
priority), and compares coflow completion times under

* Swift with no prioritisation (baseline),
* PrioPlus+Swift — 8 virtual priorities inside ONE switch queue,
* Swift with 8 physical priority queues.

Run:  python examples/coflow_scheduling.py   (~1 minute)
"""

from repro import api
from repro.experiments.fig12_coflow import coflow_spec
from repro.experiments.modes import Mode
from repro.experiments.registry import FunctionExperiment
from repro.experiments.report import print_table


def main() -> None:
    cfg = dict(  # CoflowConfig kwargs
        n_racks=2,
        hosts_per_rack=3,
        host_rate_bps=25e9,
        core_rate_bps=100e9,
        load=0.6,
        duration_ns=1_500_000,
        mean_flow_bytes=500_000,
        request_fanout=4,
        request_piece_bytes=300_000,
        link_delay_ns=300,
    )
    # baseline + one point per mode, each replaying the identical workload
    exp = FunctionExperiment("coflow-example", **coflow_spec([Mode.PRIOPLUS, Mode.PHYSICAL], cfg))
    result = api.run(exp)
    rows = []
    for mode, s in result["speedups"].items():
        rows.append([
            mode,
            f"{s['overall']:.2f}x",
            f"{s.get('high4', float('nan')):.2f}x",
            f"{s.get('low4', float('nan')):.2f}x",
        ])
    print(f"jobs: {result['n_jobs']}   baseline: {result['baseline']}")
    print_table(
        ["mode", "overall CCT speedup", "small coflows (high-4)", "large coflows (low-4)"],
        rows,
        title="Coflow completion-time speedup vs unprioritised Swift",
    )
    print("\nPrioPlus delivers the prioritisation with a single physical queue;")
    print("the physical row needs 9 hardware queues (8 + ACK).")


if __name__ == "__main__":
    main()
