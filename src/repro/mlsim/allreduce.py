"""Ring all-reduce traffic and the data-parallel training loop.

A :class:`TrainingJob` owns a ring of workers.  Each iteration is
``compute -> all-reduce -> next iteration``; the all-reduce is the standard
ring algorithm: the gradient is split into N chunks and exchanged in
2·(N−1) sequential phases, each phase being N simultaneous neighbour flows
of ``gradient/N`` bytes.  A phase starts only when the previous phase's
flows have all completed (the algorithmic dependency that couples training
speed to tail flow latency).

Training speed is reported as iterations completed in a fixed window —
exactly the paper's metric (footnote 7).
"""

from __future__ import annotations

from typing import Callable, List

from ..sim.engine import Simulator
from ..sim.host import Host
from ..sim.network import Network
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .models import ModelProfile

__all__ = ["TrainingJob"]


class TrainingJob:
    """One data-parallel model training over a ring of hosts."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        hosts: List[Host],
        model: ModelProfile,
        cc_factory: Callable[[Flow], object],
        flow_id_start: int,
        noise,
        priority: int = 0,
        vpriority: int = 1,
    ):
        if len(hosts) < 2:
            raise ValueError("a ring needs at least two workers")
        self.sim = sim
        self.net = net
        self.hosts = hosts
        self.model = model
        self.cc_factory = cc_factory
        self.priority = priority
        self.vpriority = vpriority
        self.noise = noise
        self._next_flow_id = flow_id_start
        self.iterations_done = 0
        self.iteration_times_ns: List[int] = []
        self._iter_start = 0
        self._phase = 0
        self._phase_pending = 0
        self.n_phases = 2 * (len(hosts) - 1)
        self.chunk_bytes = max(1, model.gradient_bytes // len(hosts))
        self.stopped = False
        sim.at(sim.now, self._begin_iteration)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """No new iterations start after this call (in-flight one finishes)."""
        self.stopped = True

    def _begin_iteration(self) -> None:
        if self.stopped:
            return
        self._iter_start = self.sim.now
        self.sim.after(self.model.compute_ns, self._begin_allreduce)

    def _begin_allreduce(self) -> None:
        self._phase = 0
        self._start_phase()

    def _start_phase(self) -> None:
        n = len(self.hosts)
        self._phase_pending = n
        for i in range(n):
            src = self.hosts[i]
            dst = self.hosts[(i + 1) % n]
            flow = Flow(
                self._next_flow_id,
                src,
                dst,
                self.chunk_bytes,
                priority=self.priority,
                vpriority=self.vpriority,
                start_ns=self.sim.now,
                tag=("mltrain", self.model.name, self.iterations_done, self._phase),
            )
            self._next_flow_id += 1
            cc = self.cc_factory(flow)
            FlowSender(
                self.sim,
                self.net,
                flow,
                cc,
                noise=self.noise,
                on_receive_done=self._on_flow_done,
            )

    def _on_flow_done(self, flow: Flow) -> None:
        self._phase_pending -= 1
        if self._phase_pending > 0:
            return
        self._phase += 1
        if self._phase < self.n_phases:
            self._start_phase()
            return
        # iteration complete
        self.iterations_done += 1
        self.iteration_times_ns.append(self.sim.now - self._iter_start)
        self._begin_iteration()

    # ------------------------------------------------------------------
    def iterations_in_window(self, window_ns: int) -> float:
        """Iterations per window, from the mean iteration time."""
        if not self.iteration_times_ns:
            return 0.0
        mean_iter = sum(self.iteration_times_ns) / len(self.iteration_times_ns)
        return window_ns / mean_iter
