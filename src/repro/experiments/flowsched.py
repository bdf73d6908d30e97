"""Generic flow-scheduling scenario (§6.2): WebSearch traffic on a fat-tree.

Flows are grouped by size into ``n_priorities`` classes (smaller = higher
priority), approximating size-based scheduling algorithms (pFabric / PIAS
style).  The same workload (same seed) is replayed under every mode so FCT
comparisons are paired.

Used by Fig 11 (priority-count sweep), Fig 14 (per-priority WebSearch
breakdown), Fig 16 (PrioPlus* ACK priority + HPCC).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence

from ..analysis.fct import percentile
from ..analysis.streaming import StreamingStats
from ..core import StartTier
from ..noise import paper_noise
from ..sim.engine import MILLISECOND, Simulator
from ..topology import fat_tree
from ..workloads import EmpiricalCdf, poisson_flows, poisson_flows_iter, websearch
from .launch import FlowAdmitter, launch_specs, run_admitter, run_until_flows_done
from .modes import CCFactory

__all__ = ["FlowSchedConfig", "grid_rows", "grid_spec", "run_flowsched", "size_group_boundaries"]


class FlowSchedConfig:
    """Scale knobs for the flow-scheduling scenario."""

    #: fat-tree arity of the default fabric
    k = 4
    #: payload bytes per packet
    mtu = 1000
    pfc_enabled = True

    def __init__(
        self,
        rate_bps: float = 10e9,
        link_delay_ns: int = 1000,
        load: float = 0.7,
        duration_ns: int = 3 * MILLISECOND,
        size_scale: float = 0.1,
        seed: int = 42,
        cdf_factory=websearch,
        channels=None,
    ):
        self.rate_bps = rate_bps
        self.link_delay_ns = link_delay_ns
        self.load = load
        self.duration_ns = duration_ns
        self.size_scale = size_scale
        self.seed = seed
        #: callable(scale) -> EmpiricalCdf; swap in hadoop()/ali_storage()
        self.cdf_factory = cdf_factory
        #: ChannelConfig override for delay-channel modes (repro.tune places
        #: tuned [D_target, D_limit] bands here); None = paper default
        self.channels = channels

    def buffer_bytes(self) -> int:
        """Chip buffer from the paper's 4.4 MB/Tbps Tomahawk4 ratio."""
        ports = self.k + self.k  # edge/agg switch port count upper bound
        capacity_tbps = ports * self.rate_bps / 1e12
        return max(int(4.4 * 1024 * 1024 * capacity_tbps), 256 * 1024)

    def headroom_bytes(self) -> int:
        """Per-port per-priority PFC headroom: ~2 link BDP + a few MTUs."""
        link_bdp = self.rate_bps * self.link_delay_ns / 8e9
        return int(2 * link_bdp + 5 * self.mtu)

    def size_classes(self) -> Sequence:
        s = self.size_scale
        return (
            ("small", 0, int(300_000 * s)),
            ("middle", int(300_000 * s), int(6_000_000 * s)),
            ("large", int(6_000_000 * s), 1 << 62),
        )


def size_group_boundaries(cdf: EmpiricalCdf, n_groups: int) -> List[float]:
    """Size thresholds splitting the workload into equal-probability groups."""
    return [cdf.quantile((i + 1) / n_groups) for i in range(n_groups - 1)]


def run_flowsched(
    mode: str,
    n_priorities: int,
    cfg: FlowSchedConfig,
    topology=None,
    fluid: bool = False,
    streaming: bool = False,
) -> Dict[str, object]:
    """One mode x one priority count; returns per-size-class FCT stats.

    ``topology`` (a callable ``(sim, switch_cfg) -> (net, hosts)``) overrides
    the default ``fat_tree(k=cfg.k)`` fabric — the paper-scale experiments
    pass :func:`repro.topology.paper_fabric` here.  ``fluid=True`` attaches a
    :class:`repro.fluid.HybridDriver` and reports its regime statistics under
    ``"fluid"``.

    ``streaming=True`` selects long-trace admission and reduction: the
    workload is pulled lazily from :func:`poisson_flows_iter` (identical
    draws, never materialized), senders are admitted in stages ahead of their
    start time (:class:`FlowAdmitter`), and per-group FCT stats are reduced
    through bounded-memory P² sketches instead of lists.  The result record
    has the same shape (percentiles are P² estimates; the record also carries
    ``live_peak`` and ``streaming=True``); peak memory tracks the
    *concurrent* flow population, so multi-second traces are first-class.
    """
    sim = Simulator(cfg.seed)
    cdf = cfg.cdf_factory(cfg.size_scale)
    boundaries = size_group_boundaries(cdf, n_priorities)
    # §4.4: latency-sensitive (small-class) flows start without probing and
    # with an aggressive W_LS; throughput-class flows probe before starting.
    small_cut = cfg.size_classes()[0][2]
    middle_cut = cfg.size_classes()[1][2]

    def tier_of_group(group: int) -> str:
        upper = boundaries[group] if group < len(boundaries) else float("inf")
        if upper <= small_cut:
            return StartTier.HIGH
        if upper <= middle_cut:
            return StartTier.MEDIUM
        return StartTier.LOW

    factory = CCFactory(
        mode, n_priorities=n_priorities, channels=cfg.channels, tier_of_group=tier_of_group
    )
    switch_cfg = factory.switch_config(
        buffer_bytes=cfg.buffer_bytes(),
        headroom_per_port_per_prio=cfg.headroom_bytes(),
        pfc_enabled=cfg.pfc_enabled,
    )
    if topology is not None:
        net, hosts = topology(sim, switch_cfg)
    else:
        net, hosts = fat_tree(
            sim,
            k=cfg.k,
            rate_bps=cfg.rate_bps,
            link_delay_ns=cfg.link_delay_ns,
            switch_cfg=switch_cfg,
        )
    rng = random.Random(cfg.seed)

    def group_of_size(size_bytes: int) -> int:
        for g, b in enumerate(boundaries):
            if size_bytes <= b:
                return g
        return n_priorities - 1

    def group_of(spec) -> int:
        return group_of_size(spec.size_bytes)

    acc = _FctSections(
        cfg.size_classes(),
        group_of_size,
        n_priorities,
        StreamingStats if streaming else _ListStats,
    )
    workload = (rng, len(hosts), cdf, cfg.load, cfg.rate_bps, cfg.duration_ns)
    sender_kw = dict(mtu=cfg.mtu, noise=paper_noise())
    if streaming:
        admitter = FlowAdmitter(
            sim, net, poisson_flows_iter(*workload), hosts, factory, group_of,
            on_flow_done=acc.add, **sender_kw,
        )
        drive = partial(run_admitter, sim, admitter)
    else:
        flows, _ = launch_specs(
            sim, net, poisson_flows(*workload), hosts, factory, group_of, **sender_kw
        )
        drive = partial(run_until_flows_done, sim, flows)
    driver = None
    if fluid:
        from ..fluid import HybridDriver

        driver = HybridDriver(sim, net)
    all_done = drive(cfg.duration_ns * 40, driver=driver)
    if not streaming:
        # fed in flow order, so each list (and the float sum over it) is the
        # one a post-run scan of the flow list builds
        for f in flows:
            if f.done:
                acc.add(f)

    result: Dict[str, object] = {
        "mode": mode,
        "n_priorities": n_priorities,
        "n_flows": admitter.n_admitted if streaming else len(flows),
        "n_done": acc.all.count,
        "all_done": all_done,
        "drops": net.total_drops(),
        "pfc_pauses": net.total_pfc_pauses(),
    }
    if streaming:
        result["streaming"] = True
        result["live_peak"] = admitter.live_peak
    if driver is not None:
        result["fluid"] = dict(driver.stats, events=sim.events_processed)
    # a list-reduced point that completed nothing carries no FCT sections;
    # otherwise every size class and group is present (n=0 record when empty)
    if streaming or acc.all.count:
        result["fct"] = acc.fct_section()
        result["fct_by_group"] = acc.group_section()
    return result


class _ListStats:
    """Exact twin of :class:`StreamingStats`: keeps every value."""

    __slots__ = ("values",)

    def __init__(self):
        self.values: List[float] = []

    def add(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    def as_dict(self) -> Dict[str, object]:
        return _stats(self.values)


class _FctSections:
    """The ``fct`` / ``fct_by_group`` result sections, fed one completed flow
    at a time; ``reducer`` makes one cell (:class:`StreamingStats` holds O(1)
    per cell, :class:`_ListStats` every sample)."""

    def __init__(self, size_classes: Sequence, group_of_size, n_groups: int, reducer):
        self.all = reducer()
        self._classes = [(name, lo, hi, reducer()) for name, lo, hi in size_classes]
        self._groups = [reducer() for _ in range(n_groups)]
        self._group_of_size = group_of_size

    def add(self, flow) -> None:
        fct = flow.fct_ns()
        size = flow.size_bytes
        self.all.add(fct)
        for _name, lo, hi, cell in self._classes:
            if lo <= size < hi:
                cell.add(fct)
        self._groups[self._group_of_size(size)].add(fct)

    def fct_section(self) -> Dict[str, Dict[str, object]]:
        out = {"all": self.all.as_dict()}
        for name, _lo, _hi, cell in self._classes:
            out[name] = cell.as_dict()
        return out

    def group_section(self) -> Dict[int, Dict[str, object]]:
        return {g: cell.as_dict() for g, cell in enumerate(self._groups)}


def _stats(values: List[float]) -> Dict[str, object]:
    """The per-group FCT record; a well-defined form for empty groups.

    An ``n == 0`` group (every flow of a size class unfinished at the
    deadline, or a priority group the workload never hit) reports
    ``count: 0`` with ``None`` metrics instead of raising
    :class:`ZeroDivisionError` — the shape :class:`StreamingStats.as_dict`
    also exports, so list and streaming reducers agree.
    """
    if not values:
        return {"count": 0, "mean_us": None, "p50_us": None, "p99_us": None}
    return {
        "count": len(values),
        "mean_us": sum(values) / len(values) / 1e3,
        "p50_us": percentile(values, 50) / 1e3,
        "p99_us": percentile(values, 99) / 1e3,
    }


#: the top-level ``seed`` kwarg of every grid_spec cell, shared by every registered grid
_GRID_SEED = 42


def _grid_point(run, mode: str, n_priorities: int, cfg: Dict[str, object], seed: int, **kw) -> dict:
    return run(mode, n_priorities, FlowSchedConfig(seed=seed, **cfg), **kw)


def grid_rows(results: Mapping[str, dict]) -> Dict[str, object]:
    """Grid cells back into ``{"rows": [...]}``, in point order."""
    return {"rows": list(results.values())}


def grid_spec(
    grid: Sequence[tuple],
    cfg_kwargs: Dict[str, object],
    quick_cfg: Optional[Dict[str, object]] = None,
    quick_cells: Optional[int] = None,
    run=run_flowsched,
    **run_kwargs,
) -> Dict[str, object]:
    """A grid of ``(mode, n_priorities)`` cells as :class:`FunctionExperiment`
    keywords (``spec``, ``quick_spec``, ``reduce_fn``).

    Every cell replays the identical workload, drawn from its ``seed`` kwarg
    (``cfg_kwargs`` are the other :class:`FlowSchedConfig` kwargs), through
    ``run`` with ``run_kwargs``, so the grid parallelises perfectly; the
    reduction flattens the cells into ``{"rows": [...]}`` in grid order.
    The quick spec is the same grid cut to its first ``quick_cells`` cells
    with ``quick_cfg`` laid over the config (none when neither is given).
    """
    point = partial(_grid_point, run, **run_kwargs)

    def spec(cells, cfg):
        return {
            f"{mode}@{n}": (point, {"mode": str(mode), "n_priorities": int(n), "cfg": dict(cfg),
                                    "seed": _GRID_SEED})
            for mode, n in cells
        }

    quick_spec = None
    if quick_cfg is not None or quick_cells is not None:
        quick_spec = spec(grid[:quick_cells], dict(cfg_kwargs, **(quick_cfg or {})))
    return {"spec": spec(grid, cfg_kwargs), "quick_spec": quick_spec, "reduce_fn": grid_rows}
