"""Discrete-event simulation engine.

The engine keeps an integer-nanosecond clock and a binary heap of pending
events.  Integer time avoids the floating-point drift that otherwise breaks
event ordering when micro-second RTTs meet 100 Gbps serialisation times.

Events are plain callbacks.  :meth:`Simulator.after` / :meth:`Simulator.at`
return an :class:`EventHandle` that can be cancelled; cancelled events stay in
the heap but are skipped when popped (lazy deletion), which keeps cancellation
O(1).  The heap is compacted whenever cancelled entries outnumber live ones,
so cancel-heavy workloads (pacing, RTO re-arms) cannot bloat it.

The vast majority of events in a packet simulation — port tx completions and
propagation deliveries — are never cancelled.  :meth:`Simulator.call_at` /
:meth:`Simulator.call_at2` schedule those without constructing an
:class:`EventHandle` at all: the heap entry is a bare ``(time, seq, fn, args)``
tuple.  Both entry shapes share one heap; ``run()`` tells them apart by tuple
length, and ordering is unaffected because the unique ``seq`` in slot 1 means
tuple comparison never reaches the callable.  Use ``at()/after()`` only where
the caller needs ``cancel()``.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional

from .. import probe as _probe

__all__ = ["Simulator", "EventHandle", "SECOND", "MILLISECOND", "MICROSECOND"]

#: Nanoseconds per unit, for readable experiment configs.
SECOND = 1_000_000_000
MILLISECOND = 1_000_000
MICROSECOND = 1_000


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim")

    def __init__(self, time: int, seq: int, fn: Callable, args: tuple, sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references eagerly so cancelled events don't pin packets/flows.
        self.fn = None
        self.args = ()
        if self.sim is not None:
            self.sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


class Simulator:
    """Single-threaded discrete event simulator with an integer-ns clock.

    Parameters
    ----------
    seed:
        Seed for the simulation-owned :class:`random.Random`.  All stochastic
        components (noise models, workload generators, probe jitter) must draw
        from :attr:`rng` so runs are reproducible.
    """

    #: compact the heap only past this size (tiny heaps aren't worth it)
    COMPACT_MIN = 64

    def __init__(self, seed: int = 0):
        self.now: int = 0
        self.rng = random.Random(seed)
        self._heap: List[tuple] = []  # (time, seq, handle) or (time, seq, fn, args)
        self._seq = 0
        self._running = False
        self.events_processed = 0
        self._cancelled = 0  # cancelled entries still polluting the heap
        #: instrumentation seam adopted at construction and kept for life
        #: (see repro.probe); components read this one attribute, and the
        #: sink-less default keeps every hook site to a single flag test
        self.probe = _probe.active
        if self.probe.on:
            self.probe.register("sim", self)
        #: hybrid fluid/packet driver hook (see repro.fluid.hybrid); ``None``
        #: keeps the packet path byte-identical — senders check this single
        #: attribute at flow start and nowhere on the per-packet hot path
        self.fluid_driver = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _to_tick(self, time) -> int:
        """Convert ``time`` to an integer tick, validating against the clock.

        Conversion happens *before* the past-check so a float a fraction of a
        nanosecond below the integer ``now`` (a sub-resolution artifact of
        float arithmetic in delay models) clamps to ``now`` instead of raising
        spuriously.  Genuinely-past times still raise.
        """
        tick = int(time)
        if tick < self.now:
            if not isinstance(time, int) and time > self.now - 1:
                # e.g. now=100, time=99.999999: below now only because of
                # truncation — schedule at the current tick
                return self.now
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return tick

    def at(self, time: int, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute ``time`` (ns)."""
        tick = int(time)
        time = self._to_tick(time) if tick < self.now else tick
        self._seq += 1
        ev = EventHandle(time, self._seq, fn, args, self)
        # heap entries are (time, seq, handle) tuples: comparisons stay in C
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    def after(self, delay: int, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.at(self.now + int(delay), fn, *args)

    def call_at(self, time: int, fn: Callable, *args: Any) -> None:
        """Allocation-free :meth:`at`: no :class:`EventHandle`, no ``cancel``.

        The heap entry is the bare ``(time, seq, fn, args)`` tuple.  Use for
        fire-and-forget events on the hot path (tx completions, propagation
        deliveries); anything that may need cancelling must use :meth:`at`.
        """
        tick = int(time)
        time = self._to_tick(time) if tick < self.now else tick
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def call_at2(
        self, time1: int, fn1: Callable, args1: tuple, time2: int, fn2: Callable, args2: tuple
    ) -> None:
        """Two allocation-free events in one call, ``fn1`` ordered first.

        Equivalent to ``call_at(time1, fn1, *args1); call_at(time2, fn2,
        *args2)`` but with one method call and no varargs re-packing — used by
        the port hot path to schedule a packet's fused delivery and the
        end-of-transmission wake-up together.
        """
        now = self.now
        if time1 < now or time2 < now:
            raise ValueError(f"cannot schedule in the past: {min(time1, time2)} < {now}")
        seq = self._seq + 1
        self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (time1, seq, fn1, args1))
        heapq.heappush(heap, (time2, seq + 1, fn2, args2))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events until the heap is empty or ``until`` is reached.
        Returns the number of events processed.
        """
        probe = self.probe
        # None unless a sink asked for per-dispatch control (audit clock
        # check, sampler stride boundary, profiler timing): the hook then
        # advances the clock and runs the callback in place of the two
        # inline statements, so there is one loop whatever is installed
        hook = probe.dispatch_hook(self)
        heap = self._heap
        processed = 0
        self._running = True
        pop = heapq.heappop
        # an int sentinel keeps the per-event comparison int-vs-int
        horizon = (1 << 63) if until is None else until
        try:
            while heap:
                entry = heap[0]
                # fast-path entries are (time, seq, fn, args); classic ones
                # are (time, seq, EventHandle).  seq is unique, so heap order
                # never compares slot 2 and the shapes can share one heap.
                if len(entry) == 4:
                    time = entry[0]
                    if time > horizon:
                        break
                    pop(heap)
                    if hook is None:
                        self.now = time
                        entry[2](*entry[3])
                    else:
                        hook(time, entry[2], entry[3])
                    processed += 1
                    continue
                ev = entry[2]
                if ev.cancelled:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    break
                pop(heap)
                fn = ev.fn
                args = ev.args
                # mark fired so a late cancel() is a no-op for the counters
                ev.cancelled = True
                ev.sim = None
                if hook is None:
                    self.now = time
                    fn(*args)
                else:
                    hook(time, fn, args)
                processed += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            # advance the clock to the horizon even when pending events lie
            # beyond it — callers poll in run(until=...) loops
            self.now = until
        self.events_processed += processed
        if probe.on:
            probe.run_end(self, processed)
        return processed

    def withdraw(self, fns) -> List[tuple]:
        """Take every pending allocation-free event whose callback is in
        ``fns`` out of the heap; returns those ``(time, seq, fn, args)``
        entries in firing order.

        One pass and one re-heapify, whatever the count (cancelled entries
        go too), so a caller removing a whole class of events — the hybrid
        core withdrawing every packet in the fabric — pays once, outside
        :meth:`run`, instead of simulating them.
        """
        if self._running:
            raise RuntimeError("withdraw() inside run(): the loop holds the heap")
        keep, out = [], []
        for entry in self._heap:
            if len(entry) == 4:
                (out if entry[2] in fns else keep).append(entry)
            elif not entry[2].cancelled:
                keep.append(entry)
        heapq.heapify(keep)
        self._heap[:] = keep
        self._cancelled = 0
        out.sort()  # seq is unique: never compares past slot 1
        return out

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` when idle."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if len(entry) == 3 and entry[2].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    # ------------------------------------------------------------------
    # cancellation bookkeeping (called from EventHandle.cancel)
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled += 1
        if self._cancelled > self.COMPACT_MIN and self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (safe mid-run)."""
        heap = self._heap
        heap[:] = [entry for entry in heap if len(entry) == 4 or not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
