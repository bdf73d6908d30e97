"""Putting a workload on a fabric and driving it to a predicate.

* :func:`bind_flow` — the one place a workload :class:`FlowSpec` becomes a
  live :class:`FlowSender` (``Flow`` + deadline + CC under a
  :class:`~repro.experiments.modes.CCFactory`).
* :func:`launch_specs` (every spec up front) and :class:`FlowAdmitter`
  (staged, ``horizon_ns`` ahead of each start) are the two admission
  policies over it.
* :func:`run_until` — the packet drive loop; :func:`run_until_flows_done`
  and :func:`run_admitter` are its two predicates.  With a
  :class:`repro.fluid.HybridDriver` the same predicate drives the hybrid
  loop instead.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..sim.host import Host
from ..sim.network import Network
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from ..workloads.generators import FlowSpec
from .modes import CCFactory

__all__ = [
    "bind_flow",
    "launch_specs",
    "FlowAdmitter",
    "run_until",
    "run_until_flows_done",
    "run_admitter",
]

#: the packet drive loop asks ``done()`` once per this much simulated time
_CHECK_EVERY_NS = 1_000_000


def bind_flow(
    sim: Simulator,
    net: Network,
    spec: FlowSpec,
    flow_id: int,
    hosts: Sequence[Host],
    factory: CCFactory,
    group_of: Callable[[FlowSpec], int],
    **sender_kw,
) -> FlowSender:
    """Bind one workload spec to a sender under ``factory``'s mode.

    ``sender_kw`` goes to :class:`FlowSender` verbatim (``mtu``, ``noise``,
    ``rto_ns``, ``on_done``, ``on_receive_done``).
    """
    group = group_of(spec)
    src = hosts[spec.src_idx]
    dst = hosts[spec.dst_idx]
    flow = Flow(
        flow_id,
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
    return FlowSender(
        sim,
        net,
        flow,
        factory.make(flow, group),
        ack_priority=factory.ack_priority(group),
        **sender_kw,
    )


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
) -> Tuple[List[Flow], List[FlowSender]]:
    """Bind every workload spec up front, flow ids counting from 1."""
    senders = [
        bind_flow(
            sim, net, spec, fid, hosts, factory, group_of,
            mtu=mtu, noise=noise, rto_ns=rto_ns, on_receive_done=on_receive_done,
        )
        for fid, spec in enumerate(specs, 1)
    ]
    return [s.flow for s in senders], senders


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
        horizon_ns: int = 1_000_000,
        on_flow_done: Optional[Callable[[Flow], None]] = None,
        on_receive_done: Optional[Callable[[Flow], None]] = None,
    ):
        if horizon_ns < 0:
            raise ValueError("horizon_ns must be >= 0")
        self.sim = sim
        self.horizon_ns = horizon_ns
        self.on_flow_done = on_flow_done
        self._bind = partial(
            bind_flow, sim, net, hosts=hosts, factory=factory, group_of=group_of,
            mtu=mtu, noise=noise, on_receive_done=on_receive_done,
        )
        self._iter = iter(spec_iter)
        self._next_spec: Optional[FlowSpec] = None
        self._next_fid = 1
        self._last_start_ns = -(1 << 62)
        self.exhausted = False
        self.n_admitted = 0
        self.n_done = 0
        self.live = 0
        #: high-water mark of concurrently-materialized flows
        self.live_peak = 0
        self._pump()

    @property
    def all_done(self) -> bool:
        """True once the stream is drained and every admitted flow finished."""
        return self.exhausted and self.n_done == self.n_admitted

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
        self._bind(spec, self._next_fid, on_done=self._on_done)
        self._next_fid += 1
        self.n_admitted += 1
        self.live += 1
        if self.live > self.live_peak:
            self.live_peak = self.live

    def _on_done(self, flow: Flow) -> None:
        self.n_done += 1
        self.live -= 1
        # both endpoints are finished (sender-side done implies the receiver
        # completed); unhooking them caps live-object count and keeps late
        # stray packets harmless (host dispatch drops packets for unknown
        # flow ids)
        flow.src.senders.pop(flow.flow_id, None)
        flow.dst.receivers.pop(flow.flow_id, None)
        if self.on_flow_done is not None:
            self.on_flow_done(flow)


def run_until(
    sim: Simulator,
    done: Callable[[], bool],
    hard_deadline_ns: int,
    driver=None,
) -> bool:
    """Run until ``done()`` holds or the deadline passes; returns ``done()``.

    Pass a :class:`repro.fluid.HybridDriver` as ``driver`` to let the run
    switch into fluid epochs when the fabric quiesces; ``None`` is the pure
    packet loop.
    """
    if driver is not None:
        return driver.run_until_done(done, hard_deadline_ns)
    while sim.now < hard_deadline_ns:
        sim.run(until=min(sim.now + _CHECK_EVERY_NS, hard_deadline_ns))
        if done():
            return True
        if sim.peek_time() is None:
            break
    return done()


def run_until_flows_done(
    sim: Simulator,
    flows: Sequence[Flow],
    hard_deadline_ns: int,
    driver=None,
) -> bool:
    """:func:`run_until` every flow of ``flows`` completed."""
    cursor = 0  # flows[:cursor] are done; completion is monotone, so they stay done

    def done() -> bool:
        nonlocal cursor
        while cursor < len(flows) and flows[cursor].done:
            cursor += 1
        return cursor == len(flows)

    return run_until(sim, done, hard_deadline_ns, driver)


def run_admitter(
    sim: Simulator,
    admitter: FlowAdmitter,
    hard_deadline_ns: int,
    driver=None,
) -> bool:
    """:func:`run_until` the admitter's O(1) counter predicate holds."""
    return run_until(sim, lambda: admitter.all_done, hard_deadline_ns, driver)
