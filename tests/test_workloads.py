"""Workload-generator tests: CDFs, Poisson arrivals, coflows."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    WEBSEARCH_CDF,
    EmpiricalCdf,
    poisson_flows,
    poisson_flows_iter,
    synthesize_coflows,
    websearch,
)


def _spec_tuple(s):
    return (s.src_idx, s.dst_idx, s.size_bytes, s.start_ns, s.tag)


def test_websearch_cdf_valid():
    cdf = websearch()
    assert cdf.quantile(0.0) == WEBSEARCH_CDF[0][0]
    assert cdf.quantile(1.0) == WEBSEARCH_CDF[-1][0]
    assert cdf.quantile(0.5) < cdf.quantile(0.9)


def test_websearch_mean_heavy_tailed():
    cdf = websearch()
    # mean far above median: the hallmark of the WebSearch distribution
    assert cdf.mean() > 4 * cdf.quantile(0.5)


def test_sampling_within_support():
    cdf = websearch()
    rng = random.Random(1)
    xs = [cdf.sample(rng) for _ in range(2000)]
    assert min(xs) >= WEBSEARCH_CDF[0][0]
    assert max(xs) <= WEBSEARCH_CDF[-1][0]


def test_empirical_mean_matches_analytic():
    cdf = websearch()
    rng = random.Random(2)
    emp = sum(cdf.sample(rng) for _ in range(40_000)) / 40_000
    assert emp == pytest.approx(cdf.mean(), rel=0.1)


def test_scaled_preserves_shape():
    cdf = websearch()
    small = cdf.scaled(0.1)
    assert small.mean() == pytest.approx(cdf.mean() * 0.1, rel=0.01)
    with pytest.raises(ValueError):
        cdf.scaled(0)


def test_invalid_cdfs_rejected():
    with pytest.raises(ValueError):
        EmpiricalCdf([(1, 0.0)])
    with pytest.raises(ValueError):
        EmpiricalCdf([(1, 0.0), (2, 0.5)])  # does not reach 1
    with pytest.raises(ValueError):
        EmpiricalCdf([(2, 0.0), (1, 1.0)])  # x not monotone
    with pytest.raises(ValueError):
        EmpiricalCdf([(1, 0.5), (2, 0.2), (3, 1.0)])  # p not monotone


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_property_quantile_monotone(u):
    cdf = websearch()
    v = min(1.0, u + 0.01)
    assert cdf.quantile(u) <= cdf.quantile(v)


# ----------------------------------------------------------------------
# Poisson arrivals
# ----------------------------------------------------------------------
def test_poisson_load_roughly_met():
    rng = random.Random(3)
    cdf = websearch(0.1)
    duration = 50_000_000
    specs = poisson_flows(rng, 16, cdf, load=0.5, host_rate_bps=10e9, duration_ns=duration)
    offered = sum(s.size_bytes for s in specs) * 8e9 / duration
    capacity = 16 * 10e9
    assert offered / capacity == pytest.approx(0.5, rel=0.25)


def test_poisson_no_self_flows_and_sorted_feasible():
    rng = random.Random(4)
    specs = poisson_flows(rng, 8, websearch(0.1), 0.3, 10e9, 10_000_000)
    assert all(s.src_idx != s.dst_idx for s in specs)
    assert all(0 <= s.src_idx < 8 and 0 <= s.dst_idx < 8 for s in specs)
    assert all(0 <= s.start_ns < 10_000_000 for s in specs)


def test_poisson_rejects_bad_inputs():
    rng = random.Random(5)
    with pytest.raises(ValueError):
        poisson_flows(rng, 8, websearch(), 0.0, 10e9, 1000)
    with pytest.raises(ValueError):
        poisson_flows(rng, 1, websearch(), 0.5, 10e9, 1000)
    with pytest.raises(ValueError):
        poisson_flows(rng, 8, websearch(), 1.0, 10e9, 1000)  # load upper bound
    # iterator variants validate eagerly too, not on first next()
    with pytest.raises(ValueError):
        poisson_flows_iter(random.Random(5), 8, websearch(), 0.0, 10e9, 1000)


def test_poisson_stream_list_identical():
    """The streaming and list workload paths are byte-identical on a seed."""
    kw = dict(n_hosts=16, cdf=websearch(0.1), load=0.4, host_rate_bps=10e9,
              duration_ns=20_000_000)
    specs = poisson_flows(random.Random(42), **kw)
    streamed = list(poisson_flows_iter(random.Random(42), **kw))
    assert len(specs) > 100
    assert [_spec_tuple(s) for s in specs] == [_spec_tuple(s) for s in streamed]


def test_poisson_iter_sorted_and_lazy():
    """The iterator yields in start-time order without materializing the trace."""
    it = poisson_flows_iter(
        random.Random(9), 320, websearch(1.0), 0.5, 100e9, 10**12
    )  # ~17M arrivals if realized: must never be materialized
    head = [next(it) for _ in range(5000)]
    starts = [s.start_ns for s in head]
    assert starts == sorted(starts)
    assert all(s.size_bytes >= 1 for s in head)


def test_poisson_zero_and_one_arrival_durations():
    # a duration too short for any arrival is a valid empty workload
    assert poisson_flows(random.Random(0), 4, websearch(0.1), 0.5, 10e9, 1) == []
    assert list(poisson_flows_iter(random.Random(0), 4, websearch(0.1), 0.5, 10e9, 1)) == []
    # find a duration producing exactly one arrival; list and iter agree on it
    rng_probe = random.Random(1)
    first_gap = rng_probe.expovariate(1.0)  # just exercises rng independence
    assert first_gap > 0
    duration = 200_000
    specs = poisson_flows(random.Random(1), 4, websearch(0.1), 0.1, 1e9, duration)
    streamed = list(poisson_flows_iter(random.Random(1), 4, websearch(0.1), 0.1, 1e9, duration))
    assert [_spec_tuple(s) for s in specs] == [_spec_tuple(s) for s in streamed]


# ----------------------------------------------------------------------
# coflows
# ----------------------------------------------------------------------
def test_synthesized_coflows_structure():
    rng = random.Random(7)
    coflows = synthesize_coflows(rng, 20, 50, duration_ns=1_000_000, mean_flow_bytes=1_000_000)
    assert len(coflows) == 50
    widths = [len(c.flows) for c in coflows]
    assert min(widths) >= 1
    assert max(widths) > min(widths)  # heavy tail produces variety
    for c in coflows:
        assert c.total_bytes == sum(f.size_bytes for f in c.flows)
        assert all(f.src_idx != f.dst_idx for f in c.flows)
        assert all(f.start_ns == c.start_ns for f in c.flows)


def test_coflow_sizes_heavy_tailed():
    rng = random.Random(8)
    coflows = synthesize_coflows(rng, 20, 200, duration_ns=1_000_000, mean_flow_bytes=1_000_000)
    sizes = sorted(c.total_bytes for c in coflows)
    mean = sum(sizes) / len(sizes)
    median = sizes[len(sizes) // 2]
    assert mean > 1.5 * median


def test_coflow_needs_enough_hosts():
    with pytest.raises(ValueError):
        synthesize_coflows(random.Random(), 3, 1, duration_ns=100, mean_flow_bytes=1_000_000)


def test_hadoop_and_storage_cdfs():
    from repro.workloads import ali_storage, hadoop

    h = hadoop(1.0)
    # Hadoop: tiny median, enormous tail (mining mix)
    assert h.quantile(0.5) < 2_000
    assert h.quantile(0.99) > 10_000_000
    assert h.mean() > 1000 * h.quantile(0.5)
    a = ali_storage(1.0)
    assert 1_000 <= a.quantile(0.5) <= 256_000
    assert a.quantile(1.0) == 4_000_000
    # both sample within support
    rng = random.Random(11)
    assert all(1 <= h.sample(rng) <= 1_000_000_000 for _ in range(500))
