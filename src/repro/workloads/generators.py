"""Flow-arrival generators: open-loop Poisson traffic.

The generator exists in two shapes sharing one draw sequence:

* an **iterator** (``poisson_flows_iter``) that lazily yields
  :class:`FlowSpec` objects **in non-decreasing ``start_ns`` order** — the
  *streaming-generator contract* the experiment layer's staged admission
  (:class:`repro.experiments.launch.FlowAdmitter`) relies on.  Memory stays
  bounded by the live window, not the trace length, which is what makes
  multi-second paper-scale traces feasible (millions of arrivals never
  exist as objects simultaneously);
* the **list** API (``poisson_flows``), a thin ``list(...)`` over the
  iterator so both paths are byte-identical on identical seeds (pinned by
  ``tests/test_workloads.py::test_poisson_stream_list_identical``).

Generators draw from a caller-provided ``random.Random`` so experiments
are reproducible and baselines see the *identical* workload.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from .distributions import EmpiricalCdf

__all__ = [
    "FlowSpec",
    "poisson_flows",
    "poisson_flows_iter",
]


class FlowSpec:
    """A workload-level flow before it is bound to a CC and sender."""

    __slots__ = ("src_idx", "dst_idx", "size_bytes", "start_ns", "tag")

    def __init__(self, src_idx: int, dst_idx: int, size_bytes: int, start_ns: int, tag=None):
        self.src_idx = src_idx
        self.dst_idx = dst_idx
        self.size_bytes = size_bytes
        self.start_ns = start_ns
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover
        return f"FlowSpec({self.src_idx}->{self.dst_idx}, {self.size_bytes}B @ {self.start_ns}ns)"


def poisson_flows_iter(
    rng: random.Random,
    n_hosts: int,
    cdf: EmpiricalCdf,
    load: float,
    host_rate_bps: float,
    duration_ns: int,
) -> Iterator[FlowSpec]:
    """Open-loop Poisson arrivals, yielded one at a time in start-time order.

    Each flow picks a uniform random (src, dst) host pair (src != dst); the
    arrival rate is ``load * n_hosts * host_rate / mean_flow_size`` across
    the cluster, the standard ns-3 traffic-generator construction.  Arrival
    times are strictly increasing in the exponential inter-arrival draw, so
    the stream satisfies the sorted-by-``start_ns`` contract by
    construction.  O(1) memory regardless of ``duration_ns``.
    """
    if not 0 < load < 1:
        raise ValueError("load must be in (0, 1)")
    if n_hosts < 2:
        raise ValueError("need at least two hosts")
    mean_size_bits = cdf.mean() * 8
    lam_per_ns = load * n_hosts * host_rate_bps / mean_size_bits / 1e9  # arrivals per ns
    # validate eagerly (above), generate lazily: callers get argument errors
    # at call time, not at the first next()
    return _PoissonArrivals(rng, n_hosts, cdf, lam_per_ns, 0, duration_ns)


class _PoissonArrivals:
    """The :func:`poisson_flows_iter` stream: its rng and clock are plain
    attributes, so a world holding one can be deep-copied mid-run (a
    generator cannot be)."""

    __slots__ = ("rng", "n_hosts", "cdf", "lam_per_ns", "t", "end")

    def __init__(self, rng: random.Random, n_hosts: int, cdf: EmpiricalCdf,
                 lam_per_ns: float, start_ns: int, end_ns: int):
        self.rng = rng
        self.n_hosts = n_hosts
        self.cdf = cdf
        self.lam_per_ns = lam_per_ns
        self.t: Optional[float] = float(start_ns)  # None once the window is passed
        self.end = end_ns

    def __iter__(self) -> "_PoissonArrivals":
        return self

    def __next__(self) -> FlowSpec:
        t = self.t
        if t is None:
            raise StopIteration
        rng = self.rng
        t += rng.expovariate(self.lam_per_ns)
        if t >= self.end:
            self.t = None
            raise StopIteration
        self.t = t
        n_hosts = self.n_hosts
        src = rng.randrange(n_hosts)
        dst = rng.randrange(n_hosts - 1)
        if dst >= src:
            dst += 1
        return FlowSpec(src, dst, max(1, self.cdf.sample(rng)), int(t))


def poisson_flows(
    rng: random.Random,
    n_hosts: int,
    cdf: EmpiricalCdf,
    load: float,
    host_rate_bps: float,
    duration_ns: int,
) -> List[FlowSpec]:
    """List form of :func:`poisson_flows_iter` (identical draw sequence).

    Prefer the iterator for long traces: this materializes the whole trace
    (millions of specs for multi-second paper-scale durations) up front.
    """
    return list(
        poisson_flows_iter(rng, n_hosts, cdf, load, host_rate_bps, duration_ns)
    )

