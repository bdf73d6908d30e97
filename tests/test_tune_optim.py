"""Channel tuner: theta encoding, deterministic seeded CEM search.

Pins the tuner's properties: every theta decodes to a valid placement, the
search replays bit-identically under a fixed seed, the reported best
placement can never be worse than the paper default, and a tuning point
counts as one point in the runner's counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import FunctionExperiment
from repro.experiments.tune_channels import tune_point
from repro.probe import installed
from repro.runner import run_experiment
from repro.telemetry import Recorder
from repro.tune import (
    CEM,
    default_theta,
    run_search,
    theta_bounds,
    theta_to_bands,
    theta_to_channels,
)

SPEC = {"workload": "fault_flap", "n_priorities": 2, "seed": 0}  # ~50 ms per evaluation


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
def test_seed_sweep_same_seed_replays_candidates():
    bounds = theta_bounds(SPEC["n_priorities"])
    for seed in (0, 1, 7, 1234):
        a = CEM(*bounds, seed=seed, pop_size=4)
        b = CEM(*bounds, seed=seed, pop_size=4)
        for _ in range(3):
            pa, pb = a.ask(), b.ask()
            assert pa == pb
            utils = [float(i) for i in range(len(pa))]
            a.tell(pa, utils)
            b.tell(pb, utils)
    # distinct seeds explore distinct candidates
    c = CEM(*bounds, seed=0, pop_size=4)
    d = CEM(*bounds, seed=1, pop_size=4)
    assert c.ask() != d.ask()


def test_incumbent_seeds_generation_zero():
    inc = default_theta(SPEC["n_priorities"])
    opt = CEM(*theta_bounds(SPEC["n_priorities"]), seed=3, pop_size=4, init_theta=inc)
    assert opt.ask()[0] == inc


def test_cem_contracts_toward_elites():
    n = SPEC["n_priorities"]
    opt = CEM(*theta_bounds(n), seed=5, pop_size=8, init_theta=default_theta(n))
    pop = opt.ask()
    # reward proximity to a fixed target point
    target = pop[3]
    utils = [-sum(abs(a - b) for a, b in zip(t, target)) for t in pop]
    sigma_before = list(opt.sigma)
    opt.tell(pop, utils)
    assert opt.best_theta == target
    assert all(s <= s0 or s0 == 0 for s, s0 in zip(opt.sigma, sigma_before))


# ----------------------------------------------------------------------
# tuned >= default, search determinism end to end
# ----------------------------------------------------------------------
def test_search_is_deterministic_and_never_worse_than_default():
    a = run_search(SPEC, budget=8, pop_size=4, seed=7)
    b = run_search(SPEC, budget=8, pop_size=4, seed=7)
    assert a == b
    # generation 0 evaluates the paper default, so best can never be worse
    assert a["best"]["utility"] >= a["default"]["utility"]
    assert a["default"]["bands"] == theta_to_bands(default_theta(SPEC["n_priorities"]))


def test_tune_point_counts_as_one_runner_point():
    """The search scores candidates in-process: no nested runner inflates
    the active recorder's ``runner.*`` counters."""
    kwargs = {"workload": "fault_flap", "budget": 4, "pop_size": 2, "seed": 0}
    exp = FunctionExperiment("tune_one", {"fault_flap": (tune_point, kwargs)})
    rec = Recorder()
    with installed(rec):
        run_experiment(exp)
    counters = rec.snapshot()["metrics"]["counters"]
    assert counters["runner.points"] == 1
    assert counters["runner.points_executed"] == 1

