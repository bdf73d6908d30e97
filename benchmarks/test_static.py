"""Static reproductions: Fig 2, Table 2, Fig 5/App C, Fig 7, Fig 19/App D.

These regenerate the paper's closed-form tables and characterisations
directly from the analysis modules (no packet simulation involved).
"""

import random

from repro.analysis import (
    buffer_bandwidth_ratios,
    channel_width_ns,
    linear_start_is_optimal,
    start_strategy_costs,
    swift_fluctuation_ns,
)
from repro.experiments.report import format_table
from repro.noise import paper_noise


def test_fig2_buffer_bandwidth_ratio_declines():
    ratios = buffer_bandwidth_ratios()
    print("\n" + format_table(
        ["chip", "year", "MB/Tbps"],
        [(n, y, round(r, 1)) for n, y, r in ratios],
        title="Fig 2: buffer-to-bandwidth ratio by switch generation",
    ))
    # the paper's observation: Trident2 ~9.4, Tomahawk4 ~4.4, monotone-ish decline
    by_name = {n: r for n, _, r in ratios}
    assert 8.5 <= by_name["Trident2"] <= 10.5
    assert 3.9 <= by_name["Tomahawk4"] <= 4.9
    assert by_name["Tomahawk4"] < by_name["Trident2"] / 2


def test_table2_start_strategies():
    costs = start_strategy_costs(8)
    rows = [
        (name, c["bytes_delayed_bdp"], c["max_extra_buffer_bdp"])
        for name, c in costs.items()
    ]
    print("\n" + format_table(
        ["strategy", "bytes delayed (BDP)", "max extra buffer (BDP)"],
        rows,
        title="Table 2: start strategies at n = 8 RTTs",
    ))
    assert costs["line_rate"]["max_extra_buffer_bdp"] == 1.0
    assert costs["exponential"]["max_extra_buffer_bdp"] == 0.5
    assert costs["linear"]["max_extra_buffer_bdp"] == 1.0 / 8
    assert costs["linear"]["bytes_delayed_bdp"] == 4.0
    assert costs["exponential"]["bytes_delayed_bdp"] == 6.5


def test_appendix_c_linear_start_optimality():
    linear, best_alt = linear_start_is_optimal()
    print(f"\nApp C: linear backlog={linear:.4f}, best alternative={best_alt:.4f}")
    assert linear <= best_alt * 1.001  # Theorem 4.1


def test_fig7_delay_noise_statistics():
    noise = paper_noise()
    rng = random.Random(123)
    xs = sorted(noise.sample(rng) for _ in range(40_000))
    mean, p999, minimum = sum(xs) / len(xs), xs[int(0.999 * len(xs))], min(xs)
    print(f"\nFig 7: mean={mean:.0f}ns p99.9={p999:.0f}ns min={minimum}ns")
    # paper: mean ~0.3 us, <0.1% above 1 us, additive (non-negative)
    assert 200 <= mean <= 400
    assert 700 <= p999 <= 1500
    assert minimum >= 0


def test_fig19_swift_fluctuation_bound():
    table = [(n, round(swift_fluctuation_ns(n, 150.0, 100e9, 20_000) / 1000, 2))
             for n in (1, 10, 50, 150)]
    print("\n" + format_table(["flows", "fluctuation (us)"], table,
                              title="App D: Swift worst-case fluctuation"))
    values = dict(table)
    assert values[150] > values[10] > 0
    # the paper budgets 3.2 us of channel width for 150 Swift flows at 100G:
    # the A component (above-target part n*W_AI/R) is ~1.8 us, total ~10-12 us
    # with the conservative max_mdf floor; the A+B budget check:
    step, margin = channel_width_ns(3200, 800)
    assert step == 4000 and margin == 2400
