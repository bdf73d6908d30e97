"""The one instrumentation seam between the simulator core and its observers.

The core (``sim/``, ``transport/``, ``core/``, ``fluid/``) knows exactly one
thing about instrumentation: every :class:`Simulator` adopts the
:data:`active` :class:`Probe` at construction, components read ``sim.probe``,
and each hook site is one guard and one typed emit::

    p = self.probe
    if p.on:
        p.flow_state(now, flow_id, "running", self)

Recorder, auditor, tracer, inspector, sampler and profiler are *sinks*: they
subscribe by defining a method named after the event (:data:`EVENTS`), and a
probe built over them binds each event to the subscribed handlers.  Sinks
never feed back into the simulation — no scheduled events, no RNG draws — so
results are byte-identical whatever is installed (``tests/test_probe.py``,
golden battery ``--audit`` / ``--obs``).

``probe.on`` is true only when some sink subscribes to a site event.  The
engine's per-dispatch hook is selected separately (:meth:`Probe.dispatch_hook`)
from two further sink capabilities — ``pre_dispatch(sim, time)`` and
``record(fn, dt)`` — so a profiler alone keeps every hook site cold.

A probe is immutable and a simulator keeps the one it was built with;
install sinks *before* building simulators::

    with installed(Recorder(), Auditor("warn")) as probe:
        sim = Simulator(seed=1)      # sim.probe is probe

``docs/OBSERVABILITY.md`` has the event → emitting site → consumer table.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from time import perf_counter
from typing import Optional

__all__ = ["EVENTS", "INERT", "Probe", "current", "installed", "reset"]

#: site event -> argument list, as the core emits it
EVENTS = {
    # construction: kind is "sim" / "port" / "switch" / "buffer" / "sender" / "prioplus"
    "register": "(kind, obj)",
    # engine: once per Simulator.run, after the clock's final advance
    "run_end": "(sim, n_events)",
    # packet pool (process-wide: follows the active probe, not a simulator's)
    "packet_acquired": "()",
    "packet_released": "()",
    # port
    "enqueue": "(t, port, queue, queue_bytes, total_bytes, ecn_marked, pkt)",
    "dequeue": "(t, port, queue, queue_bytes, total_bytes, pkt, tx_ns, prop_ns)",
    "queue_depth": "(t, port, queue, queue_bytes, total_bytes)",
    "link": "(t, port, busy)",
    "pause": "(t, port, prio, paused)",
    "wire_delay": "(pkt, prop_ns)",
    # packet fates
    "pkt_sent": "(t, pkt)",
    "pkt_delivered": "(t, pkt)",
    "pkt_dropped": "(t, pkt, reason)",
    "pkt_corrupted": "(t, pkt)",
    # shared buffer + PFC
    "buffer": "(t, buf, from_headroom, delta_bytes)",
    "buffer_drop": "(t, switch, size, priority, reason)",
    "pfc": "(t, switch, upstream_port, in_idx, prio, paused, backlog_bytes)",
    "pfc_backlog": "(t, key, backlog_bytes)",
    # transport + PrioPlus
    "flow_state": "(t, flow_id, state, sender)",
    "ack": "(t, sender, acked_bytes, delay_ns, is_probe)",
    "rto": "(t, sender)",
    "cc_event": "(t, flow_id, kind)",
    "probe_rejected": "(t, flow_id)",
    # hybrid core + fault injection
    "regime": "(t, mode, reason, n_flows, n_withdrawn)",
    "withdraw": "(t, pkt)",
    "handoff": "(t, sender, regime)",
    "fluid_credit": "(t, sender, payload_bytes)",
    "fault": "(t, kind, target, phase)",
}


def _unheard(*_args) -> None:
    """Emit target of an event nobody subscribed to."""


def _fan_out(handlers):
    def emit(*args) -> None:
        for handler in handlers:
            handler(*args)

    return emit


class Probe:
    """Fan-out from the core's hook sites to a fixed tuple of sinks.

    One attribute per :data:`EVENTS` entry: the single subscriber's bound
    method, a loop over several, or a no-op — so an emit costs what its
    consumers cost and nothing else.
    """

    def __init__(self, sinks=()):
        self.sinks = tuple(sinks)
        #: some sink listens to a site event; the only flag hook sites test
        self.on = False
        for name in EVENTS:
            handlers = [getattr(s, name) for s in self.sinks if hasattr(s, name)]
            if not all(map(callable, handlers)):
                raise TypeError(f"a sink attribute shadows probe event {name!r}")
            if not handlers:
                emit = _unheard
            else:
                self.on = True
                emit = handlers[0] if len(handlers) == 1 else _fan_out(handlers)
            setattr(self, name, emit)
        self._pre = tuple(s.pre_dispatch for s in self.sinks if hasattr(s, "pre_dispatch"))
        self._timed = tuple(s for s in self.sinks if hasattr(s, "record"))

    def dispatch_hook(self, sim):
        """``hook(time, fn, args)`` that advances ``sim``'s clock and runs one
        event for :meth:`Simulator.run`, or ``None`` when no sink needs it.

        ``pre_dispatch(sim, time)`` handlers run *before* the clock moves
        (auditor clock check, sampler stride boundary); ``record(fn, dt)`` gets
        the callback's wall time.  ``record`` is looked up per run, so an
        owner may rebind it on the sink instance after installing it.
        """
        pre = self._pre
        if not pre and not self._timed:
            return None
        records = [s.record for s in self._timed]

        def hook(time, fn, args) -> None:
            for check in pre:
                check(sim, time)
            sim.now = time
            if records:
                t0 = perf_counter()
                fn(*args)
                dt = perf_counter() - t0
                for record in records:
                    record(fn, dt)
            else:
                fn(*args)

        return hook

    def __deepcopy__(self, memo):
        # world forks share the inert probe; a live one is rebuilt over the
        # copied sinks so its fan-outs follow them (closures copy atomically)
        if not self.sinks:
            return self
        return Probe(copy.deepcopy(self.sinks, memo))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Probe {', '.join(type(s).__name__ for s in self.sinks) or 'inert'}>"


#: the sink-less probe: the single inert singleton
INERT = Probe()

#: the probe new simulators adopt; rebound by :func:`installed` / :func:`reset`,
#: so read it as ``probe.active``, never ``from repro.probe import active``
active: Probe = INERT


@contextmanager
def installed(*sinks):
    """Make ``sinks`` live for the ``with`` block (yields the active probe).

    Composes with whatever is already installed, except that a new sink
    replaces a live one of the same type (two packet tracers would fight
    over ``pkt.trace``).  The previous probe is restored on exit.
    """
    global active
    prev = active
    if sinks:  # with nothing to add the probe (often INERT) stays as it is
        kinds = {type(s) for s in sinks}
        active = Probe([s for s in prev.sinks if type(s) not in kinds] + list(sinks))
    try:
        yield active
    finally:
        active = prev


def reset() -> None:
    """Back to :data:`INERT`, whatever was installed (worker bootstrap)."""
    global active
    active = INERT


def current(kind: type) -> Optional[object]:
    """The installed sink of type ``kind``, or ``None``."""
    for sink in active.sinks:
        if isinstance(sink, kind):
            return sink
    return None
