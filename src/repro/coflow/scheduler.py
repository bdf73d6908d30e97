"""Coflow priority grouping and CCT accounting (§6.2).

The paper approximates clairvoyant coflow schedulers (Varys/Sincronia-style)
by sorting coflows into ``n_groups`` size classes — smaller total size gets
*higher* priority — and letting the priority mechanism under test (physical
queues or PrioPlus channels) enforce the ordering.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..transport.flow import Flow
from ..workloads.coflow_trace import CoflowSpec

__all__ = ["size_group", "assign_coflow_groups", "CoflowTracker"]


def size_group(size_bytes: int, boundaries: Sequence[int]) -> int:
    """Index of the first boundary >= size (0 = smallest class)."""
    for i, b in enumerate(boundaries):
        if size_bytes <= b:
            return i
    return len(boundaries)


def log_boundaries(sizes: Sequence[int], n_groups: int) -> List[int]:
    """Log-spaced group boundaries spanning the observed size range."""
    if n_groups < 1:
        raise ValueError("need at least one group")
    if not sizes:
        raise ValueError("no sizes to classify")
    lo, hi = max(1, min(sizes)), max(sizes)
    if lo >= hi or n_groups == 1:
        return []
    ratio = (hi / lo) ** (1.0 / n_groups)
    return [int(lo * ratio ** (i + 1)) for i in range(n_groups - 1)]


def assign_coflow_groups(coflows: Iterable[CoflowSpec], n_groups: int) -> Dict[int, int]:
    """coflow_id -> priority group (0 = highest priority = smallest size)."""
    coflows = list(coflows)
    sizes = [c.total_bytes for c in coflows]
    boundaries = log_boundaries(sizes, n_groups)
    return {c.coflow_id: size_group(c.total_bytes, boundaries) for c in coflows}


class CoflowTracker:
    """Collects per-coflow completion times as member flows finish."""

    def __init__(self):
        self._start: Dict[int, int] = {}
        self._pending: Dict[int, int] = {}
        self._done_at: Dict[int, int] = {}

    def register(self, coflow_id: int, start_ns: int, n_flows: int) -> None:
        self._start[coflow_id] = start_ns
        self._pending[coflow_id] = n_flows

    def on_flow_done(self, flow: Flow) -> None:
        tag = flow.tag
        if not (isinstance(tag, tuple) and len(tag) >= 2 and tag[0] == "coflow"):
            return
        cid = tag[1]
        if cid not in self._pending:
            return
        self._pending[cid] -= 1
        if self._pending[cid] == 0:
            self._done_at[cid] = flow.completion_ns

    def cct_ns(self, coflow_id: int) -> int:
        if coflow_id not in self._done_at:
            raise RuntimeError(f"coflow {coflow_id} has not completed")
        return self._done_at[coflow_id] - self._start[coflow_id]

    def all_ccts(self) -> Dict[int, int]:
        return {cid: self.cct_ns(cid) for cid in self._done_at}
