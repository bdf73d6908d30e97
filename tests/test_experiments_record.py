"""EXPERIMENTS.md's verdict tables and the verdict tests name each other.

Every row of the "Per-figure record" and "Ablations & extensions" tables
names the pytest node(s) behind its verdict as `` `path::test` `` and, in
backticks, the registered experiment(s) it reports.  The check fails when a
named node does not exist, a ✔/◐ (or ablation) row names no node, a verdict
test in ``benchmarks/`` is named by no row, or a registered experiment other
than ``quickstart`` appears in no row.
"""

import ast
import re
from pathlib import Path

from repro.experiments.registry import REGISTRY

ROOT = Path(__file__).resolve().parents[1]
PER_FIGURE, ABLATIONS = "Per-figure record", "Ablations & extensions"
NODE = re.compile(r"([\w./-]+\.py)::(\w+)")


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
