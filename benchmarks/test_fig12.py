"""Figures 12a/12b/15 (coflows) and 12c (ML training), reduced scale."""

from repro.experiments.modes import Mode
from repro.experiments.fig12_coflow import ci_config_kwargs, coflow_spec
from repro.experiments.registry import FunctionExperiment, get_experiment
from repro.experiments.report import format_table
from repro.runner import run_experiment


def _print_speedups(title, result):
    rows = []
    for mode, s in result["speedups"].items():
        rows.append([
            mode,
            round(s.get("overall", float("nan")), 3),
            round(s.get("high4", float("nan")), 3),
            round(s.get("low4", float("nan")), 3),
            round(s.get("overall_p99_slowdown", float("nan")), 3),
        ])
    print("\n" + format_table(
        ["mode", "overall speedup", "high-4", "low-4", "p99 slowdown"], rows, title=title
    ))


def test_fig12a_coflow_speedup_load40(benchmark):
    # the registered fig12 declaration at 40 % load
    exp = FunctionExperiment(
        "fig12a",
        **coflow_spec(
            [Mode.PRIOPLUS, Mode.PHYSICAL], ci_config_kwargs(load=0.4, duration_ns=1_500_000)
        ),
    )
    result = benchmark.pedantic(run_experiment, args=(exp,), rounds=1, iterations=1)
    _print_speedups("Fig 12a: coflow CCT speedup vs Swift baseline (40% load)", result)
    s = result["speedups"]
    # priority scheduling accelerates the small (high-priority) coflows for
    # both systems at 40% load
    assert s[Mode.PRIOPLUS]["high4"] > 1.0
    assert s[Mode.PHYSICAL]["high4"] > 1.0


def test_fig12b_coflow_speedup_load70(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=(get_experiment("fig12"),), rounds=1, iterations=1
    )
    _print_speedups("Fig 12b/15: coflow CCT speedup vs Swift baseline (70% load)", result)
    s = result["speedups"]
    assert s[Mode.PRIOPLUS]["high4"] > 1.0
    assert s[Mode.PRIOPLUS]["overall"] > 1.0
    # every job completed under both systems
    assert s[Mode.PRIOPLUS]["completed"] == s[Mode.PHYSICAL]["completed"]


def test_fig12c_mltrain_speedup(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=(get_experiment("fig12c"),), rounds=1, iterations=1
    )
    rows = []
    for mode, s in result["speedups"].items():
        rows.append([mode] + [round(s.get(k, float("nan")), 3) for k in ("resnet", "vgg", "overall")])
    print("\n" + format_table(
        ["mode", "resnet", "vgg", "overall"],
        rows,
        title="Fig 12c: training-speed speedup vs Swift baseline",
    ))
    s = result["speedups"]
    # both systems accelerate the favoured (ResNet) family...
    assert s[Mode.PRIOPLUS]["resnet"] > 1.0
    assert s[Mode.PHYSICAL]["resnet"] > 1.0
    # ...but PrioPlus hurts the lower-priority family (VGG) less than
    # physical priority does — the paper's fairness headline
    assert s[Mode.PRIOPLUS]["vgg"] > s[Mode.PHYSICAL]["vgg"]
