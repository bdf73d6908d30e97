"""CLI (`python -m repro`) and packaging-surface tests."""

import json
import pathlib
import subprocess
import sys

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

