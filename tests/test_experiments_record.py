"""EXPERIMENTS.md's verdict tables and the verdict tests name each other.

Every row of the "Per-figure record" and "Ablations & extensions" tables
names the pytest node(s) behind its verdict as `` `path::test` `` and, in
backticks, the registered experiment(s) it reports.  The check fails when a
named node does not exist, a ✔/◐ (or ablation) row names no node, a verdict
test in ``benchmarks/`` is named by no row, or a registered experiment other
than ``quickstart`` appears in no row.

Every registered experiment's points also take their one seed as a
top-level ``seed`` kwarg (docs/RUNNER.md), so a second draw of any figure
is a second value of that kwarg.

docs/PERFORMANCE.md is held to the code the same way: every title that
code, scripts, tests or the other docs cite for it is the start of one of
its headings, and its run-cost table is the cost ratchet's Python 3.11
section (``tests/golden/cost_ratchet.json``), so a ``cost_ratchet.py
--write`` updates the table in the same change.
"""

import ast
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.registry import REGISTRY, FunctionExperiment
from repro.sim.engine import Simulator

ROOT = Path(__file__).resolve().parents[1]
PER_FIGURE, ABLATIONS = "Per-figure record", "Ablations & extensions"
NODE = re.compile(r"([\w./-]+\.py)::(\w+)")
PERFORMANCE = ROOT / "docs" / "PERFORMANCE.md"
COST_RATCHET = ROOT / "tests" / "golden" / "cost_ratchet.json"
#: a double-quoted title right after the page's file name, with at most a
#: backtick, a closing parenthesis, a comma and an opening one between
CITATION = re.compile(r'PERFORMANCE\.md`?\)?,?\s*\(?"(\w[^"]*)"')


def _rows(text):
    for heading in (PER_FIGURE, ABLATIONS):
        body = text.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
        for line in [ln for ln in body.splitlines() if ln.startswith("|")][2:]:
            yield heading, line


def _tests_in(path):
    return {
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test")
    }


def record_problems(text):
    problems, named, mentioned = [], set(), set()
    for heading, row in _rows(text):
        nodes = NODE.findall(row)
        named.update(nodes)
        for span in re.findall(r"`([^`]*)`", row):
            mentioned.update(re.findall(r"[\w-]+", span))
        verdict = row.strip().strip("|").split("|")[-1]
        if not nodes and (heading == ABLATIONS or re.search("[✔◐]", verdict)):
            problems.append(f"row names no test node: {row[:60]}")
    for path, name in sorted(named):
        if not (ROOT / path).is_file() or name not in _tests_in(ROOT / path):
            problems.append(f"no such test: {path}::{name}")
    for path in sorted((ROOT / "benchmarks").glob("test_*.py")):
        for name in sorted(_tests_in(path)):
            if (f"benchmarks/{path.name}", name) not in named:
                problems.append(f"verdict test named by no row: benchmarks/{path.name}::{name}")
    for exp in REGISTRY.names():
        if exp != "quickstart" and exp not in mentioned:
            problems.append(f"registered experiment in no row: {exp}")
    return problems


def test_every_verdict_row_names_its_test_and_every_test_its_row():
    assert record_problems((ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")) == []


class _FirstSimulator(Exception):
    """Raised by the patched ``Simulator.__init__``: no simulation runs."""


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
@pytest.mark.parametrize("name", REGISTRY.names())
def test_a_points_top_level_seed_seeds_its_first_simulator(monkeypatch, name, quick):
    """Two values of the first point's ``seed`` kwarg give its first
    ``Simulator`` two seeds: no point draws from a config-class default or
    from a seed nested in its ``cfg``."""
    seen = []

    def first_simulator(self, seed=0):
        seen.append(seed)
        raise _FirstSimulator

    monkeypatch.setattr(Simulator, "__init__", first_simulator)
    exp = REGISTRY.get(name)
    exp = exp.quick() if quick else exp
    point = exp.points()[0]
    for seed in (1, 2):
        with pytest.raises(_FirstSimulator):
            exp.run_point(replace(point, config=dict(point.config, seed=seed), seed=seed))
    assert seen[0] != seen[1]


def test_a_spec_without_a_seed_is_refused():
    with pytest.raises(ValueError, match="without a seed"):
        FunctionExperiment("unseeded", {"p": (dict, {"x": 1})})
    with pytest.raises(ValueError, match=r"\['q'\]"):
        FunctionExperiment("unseeded", {"p": (dict, {"seed": 1})}, quick_spec={"q": (dict, {})})


def _flat(text):
    """One line: every line stripped of indentation and comment markers, so
    a citation wrapped across lines (in a comment too) reads whole."""
    return " ".join(line.strip().lstrip("#").strip() for line in text.splitlines())


def _headings(text):
    """The page's headings, outside code fences, whitespace normalised."""
    headings, fenced = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and re.match(r"#+ ", line):
            headings.append(" ".join(line.lstrip("#").split()))
    return headings


def _cited_titles():
    paths = [ROOT / ".github/workflows/ci.yml", ROOT / "EXPERIMENTS.md", ROOT / "ROADMAP.md"]
    for top in ("src", "scripts", "tests", "docs"):
        paths += sorted((ROOT / top).rglob("*.py")) + sorted((ROOT / top).rglob("*.md"))
    for path in paths:
        if path != PERFORMANCE:
            for title in CITATION.findall(_flat(path.read_text(encoding="utf-8"))):
                yield path.relative_to(ROOT), " ".join(title.split())


def test_every_title_cited_for_performance_md_starts_one_of_its_headings():
    headings = _headings(PERFORMANCE.read_text(encoding="utf-8"))
    cited = list(_cited_titles())
    assert cited, "no citation found: the scan is broken"
    missing = [
        f"{path}: {title!r}"
        for path, title in cited
        if not any(h.startswith(title) for h in headings)
    ]
    assert missing == []


def _run_cost_table(text):
    """``(worlds, {(row, world): cell})`` of the table headed ``| layer |``."""
    lines = text.splitlines()

    def cells(line):
        return [c.strip().strip("`") for c in line.strip().strip("|").split("|")]

    for i, line in enumerate(lines):
        if line.startswith("|") and cells(line)[0] == "layer":
            worlds, table = cells(line)[1:], {}
            for row in lines[i + 2 :]:
                if not row.startswith("|"):
                    break
                name, *values = cells(row)
                table.update(((name, w), v) for w, v in zip(worlds, values, strict=True))
            return worlds, table
    raise AssertionError("docs/PERFORMANCE.md has no run-cost table (a row starting | layer |)")


def test_the_run_cost_table_is_the_cost_ratchet():
    """One row per layer (``—`` where a world runs none of it) and a
    ``total`` row, one column per world: run bytecodes per event."""
    section = json.loads(COST_RATCHET.read_text())["3.11"]
    worlds, table = _run_cost_table(PERFORMANCE.read_text(encoding="utf-8"))
    assert sorted(worlds) == sorted(section)
    layers = {layer for record in section.values() for layer in record["run"]}
    want = {}
    for w in worlds:
        run, events = section[w]["run"], section[w]["events"]
        for layer in layers:
            want[layer, w] = f"{run[layer]['bytecodes'] / events:.2f}" if layer in run else "—"
        want["total", w] = f"{sum(c['bytecodes'] for c in run.values()) / events:.2f}"
    assert table == want
