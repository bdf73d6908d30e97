"""Shared experiment machinery.

Every figure/table runner builds on three pieces:

* :class:`CCFactory` — maps an evaluation *mode* (PrioPlus+Swift, physical
  priority + Swift, Physical* ideal queues, NoCC, D2TCP, HPCC, LEDBAT...) to
  per-flow CC instances, physical queue assignments and a switch
  configuration.  Priority *groups* are 0-based with **group 0 = highest
  priority** (smallest flows), matching the scheduling literature; the
  factory translates groups to physical queue indices (larger = higher, the
  switch convention) or PrioPlus channel indices.
* :func:`launch_specs` — turns workload :class:`FlowSpec` lists into bound
  senders on a topology.
* :class:`RateSampler` / :class:`DelaySampler` — time-series probes used by
  the micro-benchmark figures.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..cc import D2tcp, Hpcc, Ledbat, NoCC, PowerTcp, Swift, SwiftParams
from ..core import ChannelConfig, PrioPlusCC, StartTier
from ..sim.engine import MICROSECOND, Simulator
from ..sim.host import Host
from ..sim.network import Network
from ..sim.pfc import PfcConfig
from ..sim.switch import SwitchConfig
from ..telemetry import current_recorder
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from ..workloads.generators import FlowSpec

__all__ = [
    "Mode",
    "CCFactory",
    "launch_specs",
    "FlowAdmitter",
    "run_admitter",
    "RateSampler",
    "DelaySampler",
    "run_until_flows_done",
    "telemetry_section",
    "attach_telemetry",
    "Point",
    "Experiment",
    "FunctionExperiment",
    "ExperimentRegistry",
    "REGISTRY",
    "register",
    "get_experiment",
    "experiment_names",
]


class Mode:
    """Evaluation modes compared throughout §6."""

    PRIOPLUS = "prioplus"  # PrioPlus + Swift, single data queue
    PRIOPLUS_LEDBAT = "prioplus_ledbat"  # PrioPlus + LEDBAT
    PRIOPLUS_SAME_ACK = "prioplus_same_ack"  # PrioPlus*: ACKs share the data queue
    PHYSICAL = "physical"  # Swift + real priority queues (headroom cost, <= 8)
    PHYSICAL_IDEAL = "physical_ideal"  # Physical*: headroom is free, any count
    PHYSICAL_IDEAL_NOCC = "physical_ideal_nocc"  # Physical* without CC
    SWIFT = "swift"  # Swift, no prioritisation (baseline for speedups)
    SWIFT_TARGETS = "swift_targets"  # Swift w/o scaling, per-priority targets (§3.2)
    LEDBAT_TARGETS = "ledbat_targets"  # LEDBAT with per-priority targets
    D2TCP = "d2tcp"  # single queue, deadline-weighted ECN backoff (§3.1)
    HPCC = "hpcc"  # HPCC + physical priority queues
    POWERTCP = "powertcp"  # PowerTCP + physical priority queues

    ALL = (
        PRIOPLUS,
        PRIOPLUS_LEDBAT,
        PRIOPLUS_SAME_ACK,
        PHYSICAL,
        PHYSICAL_IDEAL,
        PHYSICAL_IDEAL_NOCC,
        SWIFT,
        SWIFT_TARGETS,
        LEDBAT_TARGETS,
        D2TCP,
        HPCC,
        POWERTCP,
    )

    ECN_MODES = (D2TCP, HPCC)
    SINGLE_QUEUE_MODES = (PRIOPLUS, PRIOPLUS_LEDBAT, PRIOPLUS_SAME_ACK, SWIFT, SWIFT_TARGETS, LEDBAT_TARGETS, D2TCP)


#: the physical-queue ceiling the paper cites (8 lossless priorities via PFC)
MAX_PHYSICAL_PRIORITIES = 8


class CCFactory:
    """Builds CC instances and switch configs for one mode."""

    def __init__(
        self,
        mode: str,
        n_priorities: int = 8,
        channels: Optional[ChannelConfig] = None,
        swift_params: Optional[SwiftParams] = None,
        base_target_ns: int = 20 * MICROSECOND,
        swift_target_step_ns: int = 4 * MICROSECOND,
        d2tcp_ddl_factors: Optional[Sequence[float]] = None,
        tier_of_group: Optional[Callable[[int], str]] = None,
        probe_first: Optional[bool] = None,
        probe_tiers: Optional[Sequence[str]] = None,
        empty_eps_ns: Optional[int] = None,
    ):
        if mode not in Mode.ALL:
            raise ValueError(f"unknown mode {mode!r}")
        if n_priorities < 1:
            raise ValueError("need at least one priority")
        if mode == Mode.PHYSICAL and n_priorities > MAX_PHYSICAL_PRIORITIES:
            raise ValueError(
                f"physical priority supports at most {MAX_PHYSICAL_PRIORITIES} "
                f"queues (paper §2.2); use PHYSICAL_IDEAL beyond that"
            )
        self.mode = mode
        self.n_priorities = n_priorities
        self.channels = channels or ChannelConfig(n_priorities=n_priorities)
        self.swift_params = swift_params
        self.base_target_ns = base_target_ns
        self.swift_target_step_ns = swift_target_step_ns
        self.d2tcp_ddl_factors = d2tcp_ddl_factors
        self._tier_of_group = tier_of_group
        self.probe_first = probe_first
        # which start tiers probe before transmitting (§4.4): by default only
        # the throughput (LOW) tier pays the probe RTT; latency-sensitive
        # tiers linear-start blind, which is safe by Theorem 4.1's bound.
        self.probe_tiers = (
            tuple(probe_tiers) if probe_tiers is not None else (StartTier.LOW,)
        )
        # "delay == BaseRtt" (Algorithm 1) means "no standing queue"; under
        # packet granularity a transient sub-channel queue qualifies, so the
        # default epsilon is half a channel step.
        self.empty_eps_ns = (
            empty_eps_ns if empty_eps_ns is not None else self.channels.step_ns // 2
        )

    # ------------------------------------------------------------------
    # queue layout
    # ------------------------------------------------------------------
    def n_queues(self) -> int:
        if self.mode in Mode.SINGLE_QUEUE_MODES:
            return 2  # data + ACK
        return self.n_priorities + 1  # one per priority + ACK queue on top

    def data_priority(self, group: int) -> int:
        """Physical queue index for priority group ``group`` (0 = highest)."""
        self._check_group(group)
        if self.mode in Mode.SINGLE_QUEUE_MODES:
            return 0
        return self.n_priorities - 1 - group

    def ack_priority(self, group: int) -> int:
        if self.mode == Mode.PRIOPLUS_SAME_ACK:
            return self.data_priority(group)
        return self.n_queues() - 1

    def vpriority(self, group: int) -> int:
        """PrioPlus channel index (1-based, larger = higher priority).

        The unprioritised Swift baseline keeps every flow in one class —
        including at its own NIC — so it measures "no scheduling anywhere".
        """
        self._check_group(group)
        if self.mode == Mode.SWIFT:
            return 1
        return self.n_priorities - group

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.n_priorities:
            raise ValueError(f"group {group} out of range [0, {self.n_priorities})")

    # ------------------------------------------------------------------
    # switch configuration
    # ------------------------------------------------------------------
    def switch_config(
        self,
        buffer_bytes: int = 32 * 1024 * 1024,
        headroom_per_port_per_prio: int = 50 * 1024,
        pfc_enabled: bool = True,
        ecn_k_bytes: Optional[int] = None,
        dt_alpha: float = 1.0,
    ) -> SwitchConfig:
        needs_ecn = self.mode in Mode.ECN_MODES
        if needs_ecn and ecn_k_bytes is None:
            ecn_k_bytes = 100 * 1024
        return SwitchConfig(
            n_queues=self.n_queues(),
            buffer_bytes=buffer_bytes,
            headroom_per_port_per_prio=headroom_per_port_per_prio,
            n_lossless=self.n_queues(),
            ideal_headroom=self.mode in (Mode.PHYSICAL_IDEAL, Mode.PHYSICAL_IDEAL_NOCC)
            or self.mode in Mode.SINGLE_QUEUE_MODES,
            dt_alpha=dt_alpha,
            pfc=PfcConfig(enabled=pfc_enabled),
            ecn_k_bytes=ecn_k_bytes if needs_ecn else None,
        )

    # ------------------------------------------------------------------
    # per-flow CC
    # ------------------------------------------------------------------
    def tier(self, group: int) -> str:
        if self._tier_of_group is not None:
            return self._tier_of_group(group)
        if group == 0:
            return StartTier.HIGH
        if group >= max(1, self.n_priorities - self.n_priorities // 3):
            return StartTier.LOW
        return StartTier.MEDIUM

    def _swift(self, scaling: bool, base_target_ns: Optional[int] = None) -> Swift:
        if self.swift_params is not None:
            params = SwiftParams(
                base_target_ns=(
                    base_target_ns
                    if base_target_ns is not None
                    else self.swift_params.base_target_ns
                ),
                ai_bytes=self.swift_params.ai_bytes,
                beta=self.swift_params.beta,
                max_mdf=self.swift_params.max_mdf,
                target_scaling=scaling,
                fs_range_ns=self.swift_params.fs_range_ns,
                fs_min_cwnd_pkts=self.swift_params.fs_min_cwnd_pkts,
                fs_max_cwnd_pkts=self.swift_params.fs_max_cwnd_pkts,
            )
        else:
            params = SwiftParams(
                base_target_ns=(
                    base_target_ns if base_target_ns is not None else self.base_target_ns
                ),
                target_scaling=scaling,
            )
        return Swift(params)

    def make(self, flow: Flow, group: int):
        """CC instance for one flow of priority group ``group``."""
        self._check_group(group)
        mode = self.mode
        tier = self.tier(group)
        probe_first = (
            self.probe_first if self.probe_first is not None else tier in self.probe_tiers
        )
        if mode in (Mode.PRIOPLUS, Mode.PRIOPLUS_SAME_ACK):
            return PrioPlusCC(
                self._swift(scaling=False),
                self.channels,
                vpriority=self.vpriority(group),
                tier=tier,
                probe_first=probe_first,
                empty_eps_ns=self.empty_eps_ns,
            )
        if mode == Mode.PRIOPLUS_LEDBAT:
            return PrioPlusCC(
                Ledbat(),
                self.channels,
                vpriority=self.vpriority(group),
                tier=tier,
                probe_first=probe_first,
                empty_eps_ns=self.empty_eps_ns,
            )
        if mode in (Mode.PHYSICAL, Mode.PHYSICAL_IDEAL, Mode.SWIFT):
            return self._swift(scaling=True)
        if mode == Mode.SWIFT_TARGETS:
            # targets descend with priority: 4 us (lowest) .. 4*n us (highest)
            return self._swift(
                scaling=False,
                base_target_ns=self.swift_target_step_ns * self.vpriority(group),
            )
        if mode == Mode.LEDBAT_TARGETS:
            return Ledbat(
                target_queuing_ns=self.swift_target_step_ns * self.vpriority(group)
            )
        if mode == Mode.PHYSICAL_IDEAL_NOCC:
            return NoCC()
        if mode == Mode.D2TCP:
            return D2tcp()
        if mode == Mode.HPCC:
            return Hpcc()
        if mode == Mode.POWERTCP:
            return PowerTcp()
        raise AssertionError(f"unhandled mode {mode}")

    def deadline_for(self, flow_size: int, group: int, line_rate_bps: float, start_ns: int) -> Optional[int]:
        """D2TCP deadline: 1.5x .. 12x the ideal FCT, by priority (§6)."""
        if self.mode != Mode.D2TCP:
            return None
        factors = self.d2tcp_ddl_factors
        if factors is None:
            lo, hi = 1.5, 12.0
            n = max(self.n_priorities - 1, 1)
            factors = [lo + (hi - lo) * i / n for i in range(self.n_priorities)]
        ideal = flow_size * 8e9 / line_rate_bps
        return int(start_ns + factors[min(group, len(factors) - 1)] * ideal)


# ----------------------------------------------------------------------
# the uniform Experiment protocol (see docs/RUNNER.md)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Point:
    """One independent simulation point of an experiment.

    ``config`` must be JSON-canonicalizable (plain scalars, lists/tuples and
    string-keyed dicts): together with ``seed``, the experiment name and the
    repro version it forms the content-addressed result-cache key, so every
    semantically distinct point MUST carry a distinct ``(config, seed)`` pair
    within its experiment.
    """

    name: str
    config: Dict[str, object] = field(default_factory=dict)
    seed: int = 0


class Experiment:
    """Uniform interface every figure/table runner is ported onto.

    * :meth:`points` enumerates the independent simulation points — each one
      builds its own :class:`~repro.sim.engine.Simulator` and shares no state
      with its siblings, which is what lets ``repro.runner`` fan them out
      across worker processes and cache them individually.
    * :meth:`run_point` executes one point and returns a JSON-safe dict
      (tuples are allowed; they round-trip to lists).
    * :meth:`reduce` folds the per-point results (an ordered
      ``{point_name: result}`` mapping, in :meth:`points` order) into the
      experiment's final result dict.  It runs in the parent process, is
      never cached, and must be deterministic in its inputs.

    Instances must be picklable (plain top-level classes with plain-data
    attributes) so worker processes can receive them.
    """

    name: str = ""
    description: str = ""

    def points(self) -> List[Point]:
        raise NotImplementedError

    def run_point(self, point: Point) -> dict:
        raise NotImplementedError

    def reduce(self, results: Mapping[str, dict]) -> dict:
        """Default reduction: unwrap a single point, else map by point name."""
        if len(results) == 1:
            return next(iter(results.values()))
        return dict(results)

    def quick(self) -> "Experiment":
        """A CI-scale variant of this experiment (the CLI's ``--quick``).

        Defaults to ``self``; experiments with an intrinsically cheaper
        configuration (fewer/shorter points) return a scaled-down instance.
        The variant must keep a distinct identity in cached results when its
        points differ (different point configs already guarantee that).
        """
        return self


class FunctionExperiment(Experiment):
    """Adapter porting plain ``run_*`` functions onto :class:`Experiment`.

    ``spec`` maps point name -> ``(function, kwargs)``.  The kwargs become the
    point's config verbatim (plus its cache identity); ``kwargs["seed"]`` is
    mirrored into :attr:`Point.seed` when present.  Functions must be
    module-level (picklable by reference) for process-pool execution.
    """

    def __init__(
        self,
        name: str,
        spec: Mapping[str, Tuple[Callable[..., dict], Dict[str, object]]],
        description: str = "",
        reduce_fn: Optional[Callable[[Mapping[str, dict]], dict]] = None,
    ):
        self.name = name
        self.description = description
        self._spec = {pname: (fn, dict(kwargs)) for pname, (fn, kwargs) in spec.items()}
        self._reduce_fn = reduce_fn

    def points(self) -> List[Point]:
        return [
            Point(pname, dict(kwargs), seed=int(kwargs.get("seed", 0)))
            for pname, (_, kwargs) in self._spec.items()
        ]

    def run_point(self, point: Point) -> dict:
        fn, _ = self._spec[point.name]
        return fn(**point.config)

    def reduce(self, results: Mapping[str, dict]) -> dict:
        if self._reduce_fn is not None:
            return self._reduce_fn(results)
        return super().reduce(results)


#: experiment modules imported by :meth:`ExperimentRegistry.load_all`; each
#: registers its Experiment instances at import time
_EXPERIMENT_MODULES = (
    "ablations",
    "ecn_priority",
    "fault_experiments",
    "fig3_micro",
    "fig6_dualrtt",
    "fig8_testbed",
    "fig9_fluct",
    "fig10_micro",
    "fig11_flowsched",
    "fig12_coflow",
    "fig13_noncongestive",
    "fig14_breakdown",
    "fig16_ack_hpcc",
    "headroom_pressure",
    "mltrain",
    "paper_scale",
    "quickstart",
    "table2_validation",
    "tune_channels",
)


class ExperimentRegistry:
    """Name -> :class:`Experiment` lookup driving the CLI and the runner."""

    def __init__(self):
        self._experiments: Dict[str, Experiment] = {}
        self._loaded = False

    def register(self, experiment: Experiment) -> Experiment:
        name = experiment.name
        if not name:
            raise ValueError("experiment must set a non-empty name")
        if name in self._experiments:
            raise ValueError(f"experiment {name!r} already registered")
        self._experiments[name] = experiment
        return experiment

    def load_all(self) -> None:
        """Import every known experiment module (idempotent)."""
        if self._loaded:
            return
        self._loaded = True
        for mod in _EXPERIMENT_MODULES:
            importlib.import_module(f".{mod}", package=__package__)

    def get(self, name: str) -> Experiment:
        self.load_all()
        try:
            return self._experiments[name]
        except KeyError:
            raise KeyError(
                f"unknown experiment {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        self.load_all()
        return sorted(self._experiments)

    def experiments(self) -> List[Experiment]:
        self.load_all()
        return [self._experiments[n] for n in self.names()]


#: the process-wide default registry; experiment modules register into it
REGISTRY = ExperimentRegistry()
register = REGISTRY.register
get_experiment = REGISTRY.get
experiment_names = REGISTRY.names


# ----------------------------------------------------------------------
# launching workloads
# ----------------------------------------------------------------------
def launch_specs(
    sim: Simulator,
    net: Network,
    specs: Iterable[FlowSpec],
    hosts: Sequence[Host],
    factory: CCFactory,
    group_of: Callable[[FlowSpec], int],
    mtu: int = 1000,
    noise=None,
    rto_ns: Optional[int] = None,
    on_receive_done=None,
    flow_id_start: int = 1,
) -> Tuple[List[Flow], List[FlowSender]]:
    """Bind workload specs to senders under ``factory``'s mode."""
    flows: List[Flow] = []
    senders: List[FlowSender] = []
    fid = flow_id_start
    for spec in specs:
        group = group_of(spec)
        src = hosts[spec.src_idx]
        dst = hosts[spec.dst_idx]
        flow = Flow(
            fid,
            src,
            dst,
            spec.size_bytes,
            priority=factory.data_priority(group),
            vpriority=factory.vpriority(group),
            start_ns=spec.start_ns,
            tag=spec.tag,
        )
        line_rate = net.bottleneck_rate_bps(src, dst)
        flow.deadline_ns = factory.deadline_for(spec.size_bytes, group, line_rate, spec.start_ns)
        cc = factory.make(flow, group)
        sender = FlowSender(
            sim,
            net,
            flow,
            cc,
            mtu=mtu,
            ack_priority=factory.ack_priority(group),
            noise=noise,
            rto_ns=rto_ns,
            on_receive_done=on_receive_done,
        )
        flows.append(flow)
        senders.append(sender)
        fid += 1
    return flows, senders


class FlowAdmitter:
    """Staged sender admission from a start-time-sorted :class:`FlowSpec` stream.

    The long-trace counterpart of :func:`launch_specs`: instead of binding
    every workload spec to a :class:`FlowSender` up front (millions of live
    sender/receiver/CC objects for a multi-second paper-scale trace), the
    admitter pulls specs from an iterator **sorted by** ``start_ns`` (the
    streaming-generator contract; violations raise) and materializes each
    sender only ``horizon_ns`` of virtual time before its start.  Completed
    flows are pruned from the host endpoint maps, so the live-object count
    tracks the *concurrent* flow population, not the trace length — and the
    hybrid driver's quiescence scan stays O(live), not O(total).

    Completion is observed sender-side (the last ACK, strictly after the
    receiver-side ``flow.done``): ``on_flow_done(flow)`` fires exactly once
    per flow, after which the admitter drops every reference to it.  Feed
    the callback a :class:`repro.analysis.StreamingStats` accumulator to
    keep result memory bounded too.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        spec_iter,
        hosts: Sequence[Host],
        factory: CCFactory,
        group_of: Callable[[FlowSpec], int],
        mtu: int = 1000,
        noise=None,
        rto_ns: Optional[int] = None,
        horizon_ns: int = 1_000_000,
        on_flow_done: Optional[Callable[[Flow], None]] = None,
        on_receive_done: Optional[Callable[[Flow], None]] = None,
        flow_id_start: int = 1,
        prune: bool = True,
    ):
        if horizon_ns < 0:
            raise ValueError("horizon_ns must be >= 0")
        self.sim = sim
        self.net = net
        self.hosts = hosts
        self.factory = factory
        self.group_of = group_of
        self.mtu = mtu
        self.noise = noise
        self.rto_ns = rto_ns
        self.horizon_ns = horizon_ns
        self.on_flow_done = on_flow_done
        self.on_receive_done = on_receive_done
        self.prune = prune
        self._iter = iter(spec_iter)
        self._next_spec: Optional[FlowSpec] = None
        self._next_fid = flow_id_start
        self._last_start_ns = -(1 << 62)
        self.exhausted = False
        self.n_admitted = 0
        self.n_done = 0
        self.live = 0
        #: high-water mark of concurrently-materialized flows
        self.live_peak = 0
        self._pump()

    # ------------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        """True once the stream is drained and every admitted flow finished."""
        return self.exhausted and self.n_done == self.n_admitted

    def done_fn(self) -> Callable[[], bool]:
        """Termination predicate for :func:`run_until_flows_done` loops."""
        return lambda: self.all_done

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Admit every spec starting within the horizon; re-arm for the next."""
        sim = self.sim
        edge = sim.now + self.horizon_ns
        spec = self._next_spec
        self._next_spec = None
        while True:
            if spec is None:
                try:
                    spec = next(self._iter)
                except StopIteration:
                    self.exhausted = True
                    return
                if spec.start_ns < self._last_start_ns:
                    raise ValueError(
                        f"FlowSpec stream is not sorted by start_ns: "
                        f"{spec.start_ns} after {self._last_start_ns} "
                        f"(the streaming-generator contract)"
                    )
                self._last_start_ns = spec.start_ns
            if spec.start_ns > edge:
                self._next_spec = spec
                # wake exactly when this spec enters the admission window
                sim.at(spec.start_ns - self.horizon_ns, self._pump)
                return
            self._admit(spec)
            spec = None

    def _admit(self, spec: FlowSpec) -> None:
        factory = self.factory
        group = self.group_of(spec)
        src = self.hosts[spec.src_idx]
        dst = self.hosts[spec.dst_idx]
        flow = Flow(
            self._next_fid,
            src,
            dst,
            spec.size_bytes,
            priority=factory.data_priority(group),
            vpriority=factory.vpriority(group),
            start_ns=spec.start_ns,
            tag=spec.tag,
        )
        line_rate = self.net.bottleneck_rate_bps(src, dst)
        flow.deadline_ns = factory.deadline_for(spec.size_bytes, group, line_rate, spec.start_ns)
        cc = factory.make(flow, group)
        FlowSender(
            self.sim,
            self.net,
            flow,
            cc,
            mtu=self.mtu,
            ack_priority=factory.ack_priority(group),
            noise=self.noise,
            rto_ns=self.rto_ns,
            on_done=self._on_done,
            on_receive_done=self.on_receive_done,
        )
        self._next_fid += 1
        self.n_admitted += 1
        self.live += 1
        if self.live > self.live_peak:
            self.live_peak = self.live

    def _on_done(self, flow: Flow) -> None:
        self.n_done += 1
        self.live -= 1
        if self.prune:
            # both endpoints are finished (sender-side done implies the
            # receiver completed); unhooking them caps live-object count
            # and keeps late stray packets harmless (host dispatch drops
            # packets for unknown flow ids)
            flow.src.senders.pop(flow.flow_id, None)
            flow.dst.receivers.pop(flow.flow_id, None)
        if self.on_flow_done is not None:
            self.on_flow_done(flow)


def run_admitter(
    sim: Simulator,
    admitter: FlowAdmitter,
    hard_deadline_ns: int,
    check_every_ns: int = 1_000_000,
    driver=None,
) -> bool:
    """Run a staged-admission workload to completion or the deadline.

    The streaming analogue of :func:`run_until_flows_done`: termination is
    the admitter's O(1) counter predicate instead of an O(n_flows) scan.
    Pass a :class:`repro.fluid.HybridDriver` to interleave fluid epochs.
    """
    done = admitter.done_fn()
    if driver is not None:
        return driver.run_until_done(done, hard_deadline_ns)
    while sim.now < hard_deadline_ns:
        sim.run(until=min(sim.now + check_every_ns, hard_deadline_ns))
        if done():
            return True
        if sim.peek_time() is None:
            break
    return done()


def run_until_flows_done(
    sim: Simulator,
    flows: Sequence[Flow],
    hard_deadline_ns: int,
    check_every_ns: int = 1_000_000,
    driver=None,
) -> bool:
    """Run until all flows complete or the deadline passes. True if all done.

    Pass a :class:`repro.fluid.HybridDriver` as ``driver`` to let the run
    switch into fluid epochs when the fabric quiesces; ``None`` keeps the
    pure packet loop (byte-identical to previous releases).
    """
    if driver is not None:
        return driver.run_until_flows_done(flows, hard_deadline_ns)
    while sim.now < hard_deadline_ns:
        sim.run(until=min(sim.now + check_every_ns, hard_deadline_ns))
        if all(f.done for f in flows):
            return True
        if sim.peek_time() is None:
            break
    return all(f.done for f in flows)


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
def telemetry_section() -> Optional[dict]:
    """Snapshot of the active flight recorder, or ``None`` when telemetry is
    off.  Experiments embed this in their result dicts so every run carries
    its own observability data (event counts + metrics)."""
    rec = current_recorder()
    return rec.snapshot() if rec is not None else None


def attach_telemetry(result: dict) -> dict:
    """Add a ``"telemetry"`` key to ``result`` when a recorder is active.

    A no-op (and no new keys) when telemetry is disabled, so enabling the
    recorder never perturbs the simulation-facing part of a result dict.
    """
    snap = telemetry_section()
    if snap is not None:
        result["telemetry"] = snap
    return result


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------
class RateSampler:
    """Periodic goodput samples, grouped by a key function over senders."""

    def __init__(
        self,
        sim: Simulator,
        senders: Sequence[FlowSender],
        key: Callable[[FlowSender], object],
        interval_ns: int = 100 * MICROSECOND,
    ):
        self.sim = sim
        self.senders = list(senders)
        self.key = key
        self.interval_ns = interval_ns
        self._last: Dict[int, int] = {id(s): 0 for s in self.senders}
        #: key -> list of (time_ns, rate_bps)
        self.series: Dict[object, List[Tuple[int, float]]] = {}
        sim.after(interval_ns, self._tick)

    def _tick(self) -> None:
        per_key: Dict[object, int] = {}
        for s in self.senders:
            delta = s.acked_payload - self._last[id(s)]
            self._last[id(s)] = s.acked_payload
            k = self.key(s)
            per_key[k] = per_key.get(k, 0) + delta
        t = self.sim.now
        for k, delta in per_key.items():
            rate = delta * 8e9 / self.interval_ns
            self.series.setdefault(k, []).append((t, rate))
        self.sim.after(self.interval_ns, self._tick)

    def average_rate_bps(self, key: object, t_from: int = 0, t_to: int = 1 << 62) -> float:
        points = [r for (t, r) in self.series.get(key, []) if t_from <= t <= t_to]
        return sum(points) / len(points) if points else 0.0


class DelaySampler:
    """Periodic samples of a sender's most recent delay measurement."""

    def __init__(self, sim: Simulator, sender: FlowSender, interval_ns: int = 10 * MICROSECOND):
        self.sim = sim
        self.sender = sender
        self.interval_ns = interval_ns
        self.series: List[Tuple[int, int]] = []
        sim.after(interval_ns, self._tick)

    def _tick(self) -> None:
        self.series.append((self.sim.now, self.sender.last_rtt))
        self.sim.after(self.interval_ns, self._tick)

    def values(self, t_from: int = 0, t_to: int = 1 << 62) -> List[int]:
        return [d for (t, d) in self.series if t_from <= t <= t_to]
