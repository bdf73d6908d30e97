"""CLI (`python -m repro`), packaging-surface and CI gate-table tests."""

import importlib.util
import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.experiments.registry import REGISTRY


def test_list_experiments(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig8", "fig10b", "table2", "ecn-priority"):
        assert name in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "fig6" in capsys.readouterr().out


def test_unknown_experiment(capsys):
    assert main(["nope"]) == 2


def test_run_fig6_via_cli(capsys):
    assert main(["fig6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lag_rtts"] == 2.0


def test_every_registered_experiment_is_callable():
    assert REGISTRY.names()
    for name in REGISTRY.names():
        exp = REGISTRY.get(name)
        assert exp.name == name and callable(exp.run_point), name


def test_module_invocation_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--list"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "fig3a" in result.stdout


def test_public_api_surface():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    # extensions are importable through repro.core


def test_run_subcommand_equals_bare_invocation(capsys):
    assert main(["run", "fig6"]) == 0
    via_run = capsys.readouterr().out
    assert main(["fig6"]) == 0
    assert capsys.readouterr().out == via_run


def test_jobs_flag_matches_serial_output(capsys):
    assert main(["run", "quickstart", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert main(["quickstart"]) == 0
    assert capsys.readouterr().out == parallel


def test_cache_flag_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["run", "quickstart", "--cache", cache]) == 0
    cold = capsys.readouterr().out
    assert list((tmp_path / "cache" / "quickstart").glob("*.json"))
    assert main(["run", "quickstart", "--cache", cache]) == 0
    assert capsys.readouterr().out == cold


def test_retired_bench_entry_points_stay_retired(capsys):
    """Speed is measured in benchmarks/perf only, and channel tuning is the
    registered ``tune_channels`` experiment: neither has a verb of its own."""
    assert main(["bench"]) == 2  # falls through to "unknown experiment"
    assert "unknown experiment 'bench'" in capsys.readouterr().err
    assert main(["tune"]) == 2
    assert "unknown experiment 'tune'" in capsys.readouterr().err


def test_submit_verb_is_gone(capsys):
    """The daemon runs experiments through ``run --server`` only."""
    assert main(["submit", "fig6", "--server", "x"]) == 2
    assert "unknown experiment 'submit'" in capsys.readouterr().err


def test_run_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "quickstart", "--jobs", jobs])
        assert exit_.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err


def test_run_rejects_trace_every_and_sample_stride_below_one(capsys):
    for flag in ("--trace-every", "--sample-stride"):
        for value in ("0", "-2"):
            with pytest.raises(SystemExit) as exit_:
                main(["run", "quickstart", flag, value])
            assert exit_.value.code == 2
            assert f"{flag} must be at least 1" in capsys.readouterr().err


def test_metrics_cannot_be_combined_with_server(capsys):
    """The recorder only hears in-process runs: a served run has no
    telemetry to embed, so ``--metrics --server`` is refused before any
    connection is made, like ``--trace`` / ``--events`` / ``--profile``."""
    assert main(["run", "quickstart", "--metrics", "--server", "/nonexistent.sock"]) == 2
    captured = capsys.readouterr()
    assert "--metrics" in captured.err and "cannot be combined with --server" in captured.err
    assert captured.out == ""


def test_telemetry_is_the_same_whichever_files_are_written(tmp_path, capsys):
    """The recorder counts every channel with or without a writer attached,
    so ``--metrics`` reports the same telemetry alone or beside ``--events``
    and ``--trace``; one recording pass feeds both files."""
    telemetry = []
    for files in ([], ["--events", str(tmp_path / "e.jsonl")],
                  ["--events", str(tmp_path / "b.jsonl"), "--trace", str(tmp_path / "b.json")]):
        assert main(["quickstart", "--metrics", *files]) == 0
        telemetry.append(json.loads(capsys.readouterr().out)["telemetry"])
    assert telemetry[0]["event_counts"]["cwnd"] > 0
    assert telemetry[0] == telemetry[1] == telemetry[2]
    lines = (tmp_path / "e.jsonl").read_text().splitlines()
    assert len(lines) == sum(telemetry[0]["event_counts"].values())
    assert (tmp_path / "b.jsonl").read_text().splitlines() == lines


def test_serve_rejects_jobs_below_one(tmp_path, capsys):
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--unix", str(tmp_path / "s.sock"), "--jobs", jobs])
        assert exit_.value.code == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "s.sock").exists()


def test_run_all_experiments_script(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [
            sys.executable,
            str(root / "scripts" / "run_all_experiments.py"),
            "--only", "quickstart",
            "--out", str(tmp_path),
            "--no-tables",
            "--serial",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=str(root),
    )
    assert result.returncode == 0, result.stderr
    artifact = json.loads((tmp_path / "quickstart.json").read_text())
    assert artifact["experiment"] == "quickstart"
    assert artifact["report"]["points"] == 1
    assert artifact["result"]["all_done"] is True



# ----------------------------------------------------------------------
# the gate table: CI and the reach census run scripts/gates.py
# ----------------------------------------------------------------------
ROOT = pathlib.Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"


def _script(name):
    spec = importlib.util.spec_from_file_location(f"_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ci_runs():
    """``(job, step name, run line)`` of every ``ci.yml`` step with a ``run:``."""
    job = name = None
    runs = []
    for line in CI.read_text().splitlines():
        if m := re.fullmatch(r"  ([\w-]+):", line):
            job = m[1]
        elif m := re.fullmatch(r"\s+- name: (.*)", line):
            name = m[1]
        elif re.fullmatch(r"\s+- uses: .*", line):
            name = None
        elif m := re.fullmatch(r"\s+run: (.*)", line):
            runs.append((job, name, m[1]))
    return runs


def test_every_ci_run_installs_or_runs_its_own_table_step():
    """A CI step installs dependencies or runs ``python scripts/gates.py JOB
    "STEP"`` for a step of its own job, named as the CI step; no command is
    kept in the YAML."""
    jobs = _script("gates").JOBS
    runs = _ci_runs()
    assert len(runs) > len(jobs)
    for job, name, run in runs:
        if run.startswith("python -m pip install "):
            continue
        assert shlex.split(run) == ["python", "scripts/gates.py", job, name], run
        assert name in [step.name for step in jobs[job]], (job, name)


def test_every_table_step_is_one_ci_step():
    jobs = _script("gates").JOBS
    called = sorted((job, name) for job, name, run in _ci_runs() if "gates.py" in run)
    assert called == sorted((job, step.name) for job, steps in jobs.items() for step in steps)


def test_the_census_roots_are_the_table_census_steps_and_its_own():
    """One census root per job runs the job's census steps in order; the
    steps left out are the ones the census's docstring gives a reason for."""
    census, jobs = _script("reach_census"), _script("gates").JOBS
    for job, steps in jobs.items():
        names = [step.name for step in steps if step.census]
        assert [argv[-1] for argv in census.ROOTS.get(job, [])] == names, job
        assert all(argv[:4] == ["{repo}/scripts/gates.py", "--dir", ".", job]
                   for argv in census.ROOTS.get(job, [])), job
    examples = {f"examples/{p.name}" for p in (ROOT / "examples").glob("*.py")}
    assert set(census.ROOTS) - set(jobs) == examples | {"run_all_experiments", "ledger-reps"}
    left_out = {(job, step.name) for job, steps in jobs.items() for step in steps
                if not step.census}
    assert {job for job, _ in left_out} == {"test", "perf-ledger", "scale-smoke",
                                            "reach-census", "lint"}
    assert sorted(name for job, name in left_out if job == "scale-smoke") == [
        "Cost ratchet (ROADMAP item 19)",
        "One fluid write-back per flow per epoch (traced bulk_fluid)"]


def test_ci_holds_no_heredoc_and_the_deleted_names_table_fails_on_one(tmp_path, capsys):
    gates = _script("gates")
    assert "<<" not in CI.read_text()
    workflow = tmp_path / ".github" / "workflows" / "ci.yml"
    workflow.parent.mkdir(parents=True)
    workflow.write_text("      - run: |\n          python - <<'EOF'\n          EOF\n")
    gates.ROOT = tmp_path
    with pytest.raises(AssertionError, match="1 lines name what was cut"):
        gates.deleted_names()
    assert ".github/workflows/ci.yml:2:" in capsys.readouterr().out


def test_gates_prints_its_table(capsys):
    gates = _script("gates")
    assert gates.main([]) == 0
    out = capsys.readouterr().out
    for job, steps in gates.JOBS.items():
        assert f"{job}\n" in out and all(f"  {step.name}" in out for step in steps)
