"""Noise-model tests (Fig 7 / Fig 13 inputs)."""

import math
import random
import statistics

import pytest

from repro.noise import CompositeNoise, LognormalNoise, UniformNoise, paper_noise


def test_paper_noise_matches_reported_statistics():
    noise = paper_noise()
    rng = random.Random(1)
    xs = [noise.sample(rng) for _ in range(30_000)]
    mean = sum(xs) / len(xs)
    assert 200 <= mean <= 400  # paper: ~0.3 us
    xs.sort()
    assert xs[int(0.999 * len(xs))] <= 1_800  # <0.1% beyond ~1 us


def test_noise_is_additive_nonnegative():
    noise = paper_noise()
    rng = random.Random(2)
    assert all(noise.sample(rng) >= 0 for _ in range(1000))


def test_analytic_percentile_close_to_empirical():
    noise = paper_noise()
    rng = random.Random(3)
    xs = sorted(noise.sample(rng) for _ in range(50_000))
    emp_p99 = xs[int(0.99 * len(xs))]
    z = statistics.NormalDist().inv_cdf(0.99)
    assert noise.scale * math.exp(noise.mu + noise.sigma * z) == pytest.approx(emp_p99, rel=0.1)


def test_scaling_multiplies_samples():
    rng1, rng2 = random.Random(4), random.Random(4)
    base = LognormalNoise(scale=1.0)
    doubled = LognormalNoise(scale=2.0)
    xs = [base.sample(rng1) for _ in range(100)]
    ys = [doubled.sample(rng2) for _ in range(100)]
    assert sum(ys) == pytest.approx(2 * sum(xs), rel=0.02)


def test_mean_ns_formula():
    """Samples are lognormal: their mean is ``scale * exp(mu + sigma^2 / 2)``."""
    n = LognormalNoise(median_ns=250.0, sigma=0.45)
    rng = random.Random(5)
    emp = sum(n.sample(rng) for _ in range(50_000)) / 50_000
    assert n.scale * math.exp(n.mu + n.sigma**2 / 2.0) == pytest.approx(emp, rel=0.05)


def test_uniform_noise_range():
    u = UniformNoise(1000)
    rng = random.Random(6)
    xs = [u.sample(rng) for _ in range(2000)]
    assert all(0 <= x <= 1000 for x in xs)
    assert max(xs) > 800
    assert UniformNoise(0).sample(rng) == 0


def test_composite_sums_components():
    rng1, rng2 = random.Random(7), random.Random(7)
    comp = CompositeNoise(UniformNoise(100), UniformNoise(100))
    single = UniformNoise(100)
    # composite draws twice from the same stream
    a = comp.sample(rng1)
    b = single.sample(rng2) + single.sample(rng2)
    assert a == b


def test_invalid_parameters():
    with pytest.raises(ValueError):
        LognormalNoise(median_ns=0)
    with pytest.raises(ValueError):
        LognormalNoise(sigma=0)
    with pytest.raises(ValueError):
        UniformNoise(-1)
