"""Channel tuner: deterministic seeded search, checkpoint/resume, worker parity.

Pins the ISSUE 9 acceptance properties: the search replays bit-identically
under a fixed seed, resuming from a checkpoint continues the exact same
candidate sequence, a search over worker processes matches the serial one,
and the reported best placement can never be worse than the paper default.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import run_experiment
from repro.tune import (
    CEM,
    OPTIMIZERS,
    RandomSearch,
    default_theta,
    make_spec,
    run_search,
    theta_to_bands,
)
from repro.tune.channel_env import theta_to_channels

QUICK = dict(workload="fault_flap", seed=0, quick=True)  # ~50 ms per evaluation


def _spec():
    return make_spec(**QUICK)


# ----------------------------------------------------------------------
# theta encoding: every sample decodes to a valid placement
# ----------------------------------------------------------------------
@given(
    theta=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=12).filter(
        lambda t: len(t) % 2 == 0
    )
)
@settings(max_examples=50, deadline=None)
def test_property_any_theta_decodes_to_valid_channels(theta):
    channels = theta_to_channels(theta)
    channels.validate()  # ordered, non-overlapping, above base RTT
    assert channels.n_priorities == len(theta) // 2


def test_default_theta_is_the_paper_placement():
    bands = theta_to_bands(default_theta(4))
    assert bands == [(4000, 6400), (8000, 10400), (12000, 14400), (16000, 18400)]


# ----------------------------------------------------------------------
# optimizer determinism across seeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_seed_sweep_same_seed_replays_candidates(name):
    spec = _spec()
    for seed in (0, 1, 7, 1234):
        a = OPTIMIZERS[name](spec.space(), seed=seed, pop_size=4)
        b = OPTIMIZERS[name](spec.space(), seed=seed, pop_size=4)
        for _ in range(3):
            pa, pb = a.ask(), b.ask()
            assert pa == pb
            utils = [float(i) for i in range(len(pa))]
            a.tell(pa, utils)
            b.tell(pb, utils)
    # distinct seeds explore distinct candidates
    c = OPTIMIZERS[name](spec.space(), seed=0, pop_size=4)
    d = OPTIMIZERS[name](spec.space(), seed=1, pop_size=4)
    assert c.ask() != d.ask()


def test_incumbent_seeds_generation_zero():
    spec = _spec()
    inc = default_theta(spec.n_priorities)
    for name in OPTIMIZERS:
        opt = OPTIMIZERS[name](spec.space(), seed=3, pop_size=4, init_theta=inc)
        assert opt.ask()[0] == inc


def test_cem_contracts_toward_elites():
    spec = _spec()
    opt = CEM(spec.space(), seed=5, pop_size=8, init_theta=default_theta(spec.n_priorities))
    pop = opt.ask()
    # reward proximity to a fixed target point
    target = pop[3]
    utils = [-sum(abs(a - b) for a, b in zip(t, target)) for t in pop]
    sigma_before = list(opt.sigma)
    opt.tell(pop, utils)
    assert opt.best_theta == target
    assert all(s <= s0 or s0 == 0 for s, s0 in zip(opt.sigma, sigma_before))


# ----------------------------------------------------------------------
# checkpoint round-trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_optimizer_state_json_roundtrip_resumes_identically(name):
    spec = _spec()
    opt = OPTIMIZERS[name](
        spec.space(), seed=9, pop_size=4, init_theta=default_theta(spec.n_priorities)
    )
    pop = opt.ask()
    opt.tell(pop, [1.0, 3.0, 2.0, 0.5])
    state = json.loads(json.dumps(opt.state()))  # force a real JSON round-trip
    clone = OPTIMIZERS[name].load(state)
    assert clone.best_theta == opt.best_theta
    assert clone.best_utility == opt.best_utility
    for _ in range(2):
        pa, pb = opt.ask(), clone.ask()
        assert pa == pb
        opt.tell(pa, [0.0] * 4)
        clone.tell(pb, [0.0] * 4)


def test_optimizer_load_rejects_wrong_kind():
    spec = _spec()
    state = RandomSearch(spec.space(), seed=0).state()
    with pytest.raises(ValueError, match="checkpoint is for optimizer"):
        CEM.load(state)


def test_run_search_checkpoint_resume_matches_uninterrupted(tmp_path):
    spec = _spec()
    kwargs = dict(optimizer="cem", pop_size=4, seed=21)
    straight = run_search(spec, budget=12, **kwargs)

    ck = str(tmp_path / "ck.json")
    run_search(spec, budget=8, checkpoint_path=ck, **kwargs)
    resumed = run_search(spec, budget=12, checkpoint_path=ck, **kwargs)

    assert resumed["best"]["theta"] == straight["best"]["theta"]
    assert resumed["best"]["utility"] == straight["best"]["utility"]
    assert resumed["history"] == straight["history"]
    assert resumed["default"] == straight["default"]


def test_checkpoint_spec_mismatch_fails_fast(tmp_path):
    ck = str(tmp_path / "ck.json")
    run_search(_spec(), optimizer="cem", budget=4, pop_size=4, seed=0, checkpoint_path=ck)
    other = make_spec("flowsched_micro", seed=0, quick=True)
    with pytest.raises(ValueError, match="checkpoint .* was written for"):
        run_search(other, optimizer="cem", budget=4, pop_size=4, seed=0, checkpoint_path=ck)


# ----------------------------------------------------------------------
# generations run through the runner: serial vs worker-pool parity
# ----------------------------------------------------------------------
def test_search_is_identical_at_jobs_1_and_2():
    kwargs = dict(optimizer="random", budget=8, pop_size=4, seed=2)
    serial = run_search(_spec(), jobs=1, **kwargs)
    pooled = run_search(_spec(), jobs=2, **kwargs)
    assert json.dumps(pooled, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_equal_candidates_in_one_generation_are_distinct_points():
    """Two clipped samples can coincide; each slot still gets its own point."""
    from repro.tune.search import _generation

    theta = default_theta(2)
    exp = _generation(_spec().to_dict(), [theta, theta], 0)
    assert [p.name for p in exp.points()] == ["g0c0", "g0c1"]
    out = run_experiment(exp)
    assert out["g0c0"] == out["g0c1"]


# ----------------------------------------------------------------------
# tuned >= default, search determinism end to end
# ----------------------------------------------------------------------
def test_search_is_deterministic_and_never_worse_than_default():
    spec = _spec()
    a = run_search(spec, optimizer="cem", budget=8, pop_size=4, seed=7)
    b = run_search(spec, optimizer="cem", budget=8, pop_size=4, seed=7)
    assert a["best"] == b["best"] and a["history"] == b["history"]
    # generation 0 evaluates the paper default, so best can never be worse
    assert a["best"]["utility"] >= a["default"]["utility"]
    assert a["default"]["bands"] == theta_to_bands(default_theta(spec.n_priorities))

