"""Synthetic coflow workload with the Facebook-Hadoop trace's shape.

The paper generates coflow traffic from the Facebook Hadoop trace released
with Varys/Aalo [29, 31].  The trace itself is not redistributable here, so
this module synthesises coflows matching its published structure (Chowdhury
et al.): coflow *widths* (number of flows) are heavy-tailed — most coflows
are narrow (<10 flows) while a few span hundreds of mappers/reducers — and
per-flow sizes are heavy-tailed MapReduce shuffle sizes, giving the classic
mix of short-narrow and long-wide coflows that makes size-based priority
grouping effective.
"""

from __future__ import annotations

import random
from typing import List

from .generators import FlowSpec

__all__ = ["CoflowSpec", "synthesize_coflows"]

#: Pareto shapes of coflow widths and of per-flow sizes
WIDTH_ALPHA = 1.1
SIZE_ALPHA = 1.3


class CoflowSpec:
    """A coflow: a set of flows that complete together (CCT = max FCT)."""

    __slots__ = ("coflow_id", "flows", "start_ns")

    def __init__(self, coflow_id: int, flows: List[FlowSpec], start_ns: int):
        self.coflow_id = coflow_id
        self.flows = flows
        self.start_ns = start_ns

    @property
    def total_bytes(self) -> int:
        return sum(f.size_bytes for f in self.flows)


def _pareto_int(rng: random.Random, alpha: float, minimum: float, cap: float) -> int:
    value = minimum * (rng.random() ** (-1.0 / alpha))
    return int(min(value, cap))


def synthesize_coflows(
    rng: random.Random,
    n_hosts: int,
    n_coflows: int,
    duration_ns: int,
    mean_flow_bytes: int,
) -> List[CoflowSpec]:
    """Generate ``n_coflows`` with heavy-tailed widths and flow sizes.

    Coflow arrivals are uniform over ``duration_ns``; each coflow picks
    distinct mapper sources and reducer destinations (many-to-many shuffle),
    at most ``max(4, n_hosts)`` flows wide.
    """
    if n_hosts < 4:
        raise ValueError("need at least 4 hosts for a shuffle pattern")
    max_width = max(4, n_hosts)
    min_flow = max(1000, mean_flow_bytes // 10)
    coflows: List[CoflowSpec] = []
    for c in range(n_coflows):
        t = rng.randrange(max(1, duration_ns))
        width = max(1, _pareto_int(rng, WIDTH_ALPHA, 1.0, max_width))
        n_src = max(1, min(n_hosts // 2, width))
        n_dst = max(1, min(n_hosts - n_src, max(1, width // n_src)))
        hosts = rng.sample(range(n_hosts), n_src + n_dst)
        sources, dests = hosts[:n_src], hosts[n_src:]
        flows: List[FlowSpec] = []
        for i in range(width):
            src = sources[i % n_src]
            dst = dests[i % n_dst]
            size = max(min_flow, _pareto_int(rng, SIZE_ALPHA, min_flow, mean_flow_bytes * 100))
            flows.append(FlowSpec(src, dst, size, t, tag=("coflow", c)))
        coflows.append(CoflowSpec(c, flows, t))
    return coflows
