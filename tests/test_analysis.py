"""Analysis-module tests: percentiles, the paper's size classes and speedup
ratio, theory results."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    buffer_bandwidth_ratios,
    channel_width_ns,
    linear_start_is_optimal,
    percentile,
    potential_backlog,
    start_strategy_costs,
    swift_fluctuation_ns,
)
from repro.experiments.coflow_scenario import speedup_summary
from repro.experiments.flowsched import FlowSchedConfig


def test_percentile_basics():
    xs = [1, 2, 3, 4, 5]
    assert percentile(xs, 0) == 1
    assert percentile(xs, 50) == 3
    assert percentile(xs, 100) == 5
    assert percentile(xs, 25) == 2.0
    assert percentile([7], 99) == 7


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_property_percentile_bounded_and_monotone(xs):
    assert min(xs) <= percentile(xs, 50) <= max(xs)
    assert percentile(xs, 10) <= percentile(xs, 90)


def test_size_classes_match_paper_boundaries():
    """Fig 11's small / middle / large split falls at 300 KB and 6 MB."""
    classes = FlowSchedConfig(size_scale=1.0).size_classes()

    def size_class(size_bytes):
        return next(name for name, lo, hi in classes if lo <= size_bytes < hi)

    assert size_class(299_999) == "small"
    assert size_class(300_000) == "middle"
    assert size_class(5_999_999) == "middle"
    assert size_class(6_000_000) == "large"


def test_speedup():
    """The paper's speedup ratio is baseline CCT / measured CCT (>1 is
    faster), averaged overall and per high-4 / low-4 half of the groups."""
    summary = speedup_summary({1: 200, 2: 300}, {1: 100, 2: 300}, {1: 0, 2: 7})
    assert summary["overall"] == 1.5
    assert summary["high4"] == 2.0
    assert summary["low4"] == 1.0
    assert summary["completed"] == 2


# ----------------------------------------------------------------------
# theory
# ----------------------------------------------------------------------
def test_table2_closed_forms():
    c = start_strategy_costs(10)
    assert c["linear"]["bytes_delayed_bdp"] == 5.0
    assert c["linear"]["max_extra_buffer_bdp"] == 0.1
    assert c["exponential"]["bytes_delayed_bdp"] == 8.5
    with pytest.raises(ValueError):
        start_strategy_costs(0.5)


def test_linear_backlog_formula():
    """For the linear ramp, b(a) = R*tau^2/(2T) independent of a."""
    T, tau, R = 10.0, 1.0, 1.0
    b = potential_backlog(lambda t: R * t / T, T, tau)
    assert b == pytest.approx(R * tau * tau / (2 * T), rel=0.01)


def test_linear_beats_exponential_and_step():
    T, tau = 10.0, 1.0
    linear = potential_backlog(lambda t: t / T, T, tau)
    exponential = potential_backlog(lambda t: (2 ** (t / T * 6) - 1) / (2**6 - 1), T, tau)
    convex = potential_backlog(lambda t: (t / T) ** 3, T, tau)
    assert linear < exponential
    assert linear < convex


def test_theorem_4_1_numeric():
    linear, best_alt = linear_start_is_optimal()
    assert linear <= best_alt * 1.001


def test_swift_fluctuation_monotone_in_flows_and_ai():
    base = swift_fluctuation_ns(10, 150.0, 100e9, 20_000)
    assert swift_fluctuation_ns(20, 150.0, 100e9, 20_000) >= base
    assert swift_fluctuation_ns(10, 300.0, 100e9, 20_000) > base
    with pytest.raises(ValueError):
        swift_fluctuation_ns(0, 150.0, 100e9, 20_000)


def test_channel_width_components():
    step, margin = channel_width_ns(3200, 800)
    assert step == 4000
    assert margin == 2400


def test_fig2_data_sane():
    ratios = buffer_bandwidth_ratios()
    years = [y for _, y, _ in ratios]
    assert years == sorted(years)
    newest = ratios[-1][2]
    oldest = ratios[0][2]
    assert newest < oldest


# ----------------------------------------------------------------------
# streaming statistics (P² sketches) — the long-trace result reducers
# ----------------------------------------------------------------------
def test_p2_rejects_bad_quantile():
    from repro.analysis import P2Quantile

    for p in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            P2Quantile(p)


def test_p2_exact_for_tiny_samples():
    from repro.analysis import P2Quantile

    q = P2Quantile(0.5)
    assert q.value() is None
    q.add(10.0)
    assert q.value() == 10.0
    q.add(20.0)
    q.add(30.0)
    # median of [10, 20, 30] is exact while the markers still hold raw samples
    assert q.value() == pytest.approx(20.0)


def test_p2_accuracy_on_heavy_tail():
    """P² p50/p99 land within a few percent of the exact sample percentile
    on a WebSearch-like heavy-tailed population (the accuracy envelope the
    long-trace experiment tables rely on)."""
    import random as _random

    from repro.analysis import P2Quantile, percentile

    rng = _random.Random(42)
    xs = [rng.paretovariate(1.3) * 1000 for _ in range(20_000)]
    p50, p99 = P2Quantile(0.5), P2Quantile(0.99)
    for x in xs:
        p50.add(x)
        p99.add(x)
    assert p50.value() == pytest.approx(percentile(xs, 50), rel=0.05)
    assert p99.value() == pytest.approx(percentile(xs, 99), rel=0.10)


def test_streaming_stats_matches_list_stats_shape():
    from repro.analysis import StreamingStats
    from repro.experiments.flowsched import _stats

    values = [1_000.0 * i for i in range(1, 301)]
    st = StreamingStats()
    for v in values:
        st.add(v)
    exact = _stats(values)
    approx = st.as_dict()
    assert set(approx) == set(exact) == {"count", "mean_us", "p50_us", "p99_us"}
    assert approx["count"] == exact["count"] == 300
    assert approx["mean_us"] == pytest.approx(exact["mean_us"], rel=1e-12)
    assert approx["p50_us"] == pytest.approx(exact["p50_us"], rel=0.05)
    assert approx["p99_us"] == pytest.approx(exact["p99_us"], rel=0.05)
    assert st.min == 1_000.0 and st.max == 300_000.0


def test_streaming_stats_empty_record():
    """n=0 exports the canonical empty record — same shape `_stats([])` now
    returns instead of raising ZeroDivisionError (the empty-group bugfix)."""
    from repro.analysis import StreamingStats
    from repro.experiments.flowsched import _stats

    empty = StreamingStats().as_dict()
    assert empty == {"count": 0, "mean_us": None, "p50_us": None, "p99_us": None}
    assert _stats([]) == empty
