"""Per-layer self-time tracing, applied from outside the program.

Nothing under ``src/`` carries a hook for this.  Before a workload builds
anything, :meth:`Tracer.install` replaces — by class or module attribute —
the entry points through which one layer calls into another with span
wrappers, and installs ``repro.obs.profile_scope()`` so the engine runs its
instrumented loop and reports every dispatched callback.  A span is
(slot, start, end, parent); spans live on one in-memory stack and only
per-slot aggregates survive them (a 2 s run opens ~10 M spans).

Self time of a span is its duration minus the part its child spans cover.
A dispatched callback is a span too: the engine hands its duration to
:meth:`Tracer._on_dispatch` after the fact, and whatever wrapped calls ran
inside it are already on the ``Simulator.run`` frame's child account, so the
callback's self time is its duration minus what that account grew by.  What
``Simulator.run`` keeps for itself (heap pops, the loop) is the engine.

The wrappers cost a ``perf_counter`` pair per call, so a traced run's wall
time is never reported as an end-to-end number — only its ratio to the
untraced run (``trace.overhead_ratio``).
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: every layer a self time is reported for; ``harness`` is the root span's own
#: time plus dispatched callbacks no layer claims (the benchmark's run loop,
#: topology builders during set-up)
LAYERS = (
    "engine", "port", "switch", "buffer_pfc", "host", "transport", "cc",
    "fluid_solver", "fluid_driver", "admission", "reduction", "workload",
    "harness",
)

#: class name -> layer, for engine-dispatched callbacks that are not public
#: (``Port._tx_wake``, pacing and RTO timers): attributed by ``__qualname__``
_CLASS_LAYER = {
    "Port": "port",
    "Switch": "switch",
    "SharedBuffer": "buffer_pfc",
    "PfcIngressState": "buffer_pfc",
    "Host": "host",
    "FlowSender": "transport",
    "FlowReceiver": "transport",
    "HybridDriver": "fluid_driver",
    "FlowAdmitter": "admission",
    "StreamingStats": "reduction",
}

_CC_HOOKS = ("on_ack", "on_probe_ack", "on_start", "on_timeout")


def _targets() -> Tuple[List[Tuple[object, str, str]], Dict[str, str]]:
    """``(owner, attribute, layer)`` for every entry point that gets a span,
    and the class-name -> layer map completed with the CC classes."""
    import repro.cc as cc_pkg
    from repro.analysis.streaming import StreamingStats
    from repro.core.prioplus import PrioPlusCC
    from repro.experiments import common
    from repro.fluid import model
    from repro.fluid.hybrid import HybridDriver
    from repro.sim.buffer import SharedBuffer
    from repro.sim.host import Host
    from repro.sim.pfc import PfcIngressState
    from repro.sim.port import Port
    from repro.sim.switch import Switch
    from repro.transport.receiver import FlowReceiver
    from repro.transport.sender import FlowSender

    out: List[Tuple[object, str, str]] = [
        (Switch, "receive", "switch"),
        # handed to the port as its on_dequeue callback: the port->switch edge
        (Switch, "_on_port_dequeue", "switch"),
        (Port, "enqueue", "port"),
        (Port, "kick", "port"),
        (Port, "set_paused", "port"),
        (SharedBuffer, "try_admit_shared", "buffer_pfc"),
        (SharedBuffer, "try_admit_headroom", "buffer_pfc"),
        (SharedBuffer, "release", "buffer_pfc"),
        (PfcIngressState, "on_enqueue", "buffer_pfc"),
        (PfcIngressState, "on_dequeue", "buffer_pfc"),
        (Host, "receive", "host"),
        (Host, "send", "host"),
        (FlowSender, "on_packet", "transport"),
        (FlowSender, "try_send", "transport"),
        (FlowReceiver, "on_packet", "transport"),
        (model, "solve_rates", "fluid_solver"),
        (model, "classify_contention", "fluid_solver"),
        (HybridDriver, "run_until_done", "fluid_driver"),
        (HybridDriver, "run", "fluid_driver"),
        (HybridDriver, "admit", "fluid_driver"),
        (FlowSender, "fluid_hold", "fluid_driver"),
        (FlowSender, "fluid_release", "fluid_driver"),
        (FlowSender, "fluid_advance", "fluid_driver"),
        # handed to every sender as its on_done callback: transport->admission
        (common.FlowAdmitter, "_on_done", "admission"),
        (common, "launch_specs", "admission"),
        (StreamingStats, "add", "reduction"),
    ]
    cc_classes = {
        obj for obj in vars(cc_pkg).values() if inspect.isclass(obj) and obj.__module__.startswith("repro.cc")
    }
    cc_classes.add(PrioPlusCC)
    class_layer = dict(_CLASS_LAYER)
    for cls in sorted(cc_classes, key=lambda c: c.__qualname__):
        class_layer[cls.__name__] = "cc"
        for hook in _CC_HOOKS:
            # only where the class defines it: an inherited hook is wrapped
            # once, on the base, or calls would be counted twice
            if hook in vars(cls):
                out.append((cls, hook, "cc"))
        if "fluid_sync" in vars(cls):
            out.append((cls, "fluid_sync", "fluid_driver"))
    return out, class_layer


class Tracer:
    """Span stack + per-slot aggregates; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self._clock = clock
        # one child-time account per open span; [0] is a sentinel so a span
        # opened outside root() still has a parent to report to
        self._stack: List[float] = [0.0]
        self._mark = 0.0  # Simulator.run frame's account at the last dispatch
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.self_s: List[float] = []
        self.incl_s: List[float] = []
        self.calls: List[int] = []
        self._slot_by_name: Dict[str, int] = {}
        self._dispatch_slot: Dict[object, int] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self._class_layer: Dict[str, str] = dict(_CLASS_LAYER)
        self._scope = None
        self.root_s = 0.0

    # ------------------------------------------------------------------
    # slots and spans
    # ------------------------------------------------------------------
    def slot(self, name: str, layer: str) -> int:
        idx = self._slot_by_name.get(name)
        if idx is None:
            if layer not in LAYERS:
                raise ValueError(f"unknown layer {layer!r}")
            idx = self._slot_by_name[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self.calls.append(0)
        return idx

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` with a span around every call."""
        idx = self.slot(name, layer)
        stack = self._stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        clock = self._clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[idx] += dur - stack.pop()
                incl_s[idx] += dur
                calls[idx] += 1
                stack[-1] += dur

        return span

    def _wrap_run(self, fn: Callable) -> Callable:
        """``Simulator.run``: a span that also frames the dispatch accounting."""

        @functools.wraps(fn)
        def framed(*args, **kwargs):
            outer_mark, self._mark = self._mark, 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                self._mark = outer_mark

        return self.wrap(framed, "Simulator.run", "engine")

    def _on_dispatch(self, fn: Callable, dt: float) -> None:
        """``EngineProfiler.record`` stand-in: one dispatched callback ended."""
        key = getattr(fn, "__func__", fn)
        idx = self._dispatch_slot.get(key)
        if idx is None:
            qual = getattr(fn, "__qualname__", None) or repr(fn)
            owner = qual.split(".")[-2] if "." in qual else ""
            layer = self._class_layer.get(owner, "harness")
            idx = self._dispatch_slot[key] = self.slot("dispatch:" + qual, layer)
        stack = self._stack
        inner = stack[-1] - self._mark
        self.self_s[idx] += dt - inner
        self.incl_s[idx] += dt
        self.calls[idx] += 1
        # the callback, not its wrapped callees, is the run frame's child
        self._mark = stack[-1] = self._mark + dt

    def wrap_iter(self, it, name: str, layer: str):
        """An iterator whose every ``__next__`` is a span."""
        return _SpannedIter(self.wrap(it.__next__, name, layer))

    @contextmanager
    def root(self):
        """The span every other span of the run hangs under."""
        idx = self.slot("root", "harness")
        self._stack.append(0.0)
        t0 = self._clock()
        try:
            yield self
        finally:
            dur = self._clock() - t0
            self.self_s[idx] += dur - self._stack.pop()
            self.incl_s[idx] += dur
            self.calls[idx] += 1
            self.root_s += dur

    # ------------------------------------------------------------------
    # patching the program
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point and switch the engine to its
        instrumented loop.  Call before any ``Simulator`` is built."""
        from repro.obs import profile_scope
        from repro.sim.engine import Simulator
        from repro.workloads import generators

        if self._patched:
            raise RuntimeError("tracer already installed")
        targets, self._class_layer = _targets()
        for owner, attr, layer in targets:
            owner_name = getattr(owner, "__qualname__", None) or owner.__name__.rsplit(".", 1)[-1]
            self._patch(owner, attr, self.wrap(_raw(owner, attr), f"{owner_name}.{attr}", layer))
        self._patch(Simulator, "run", self._wrap_run(_raw(Simulator, "run")))

        make_iter = generators.poisson_flows_iter

        @functools.wraps(make_iter)
        def spanned_poisson_iter(*args, **kwargs):
            return self.wrap_iter(make_iter(*args, **kwargs), "poisson_flows_iter.__next__", "workload")

        self._patch(generators, "poisson_flows_iter", spanned_poisson_iter)

        self._scope = profile_scope()
        prof = self._scope.__enter__()
        prof.record = self._on_dispatch

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put back every replaced attribute (identity-equal to before)."""
        if self._scope is not None:
            self._scope.__exit__(None, None, None)
            self._scope = None
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_attributes(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` for everything currently replaced."""
        return list(self._patched)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {self_s, calls}}`` over every slot, all layers present."""
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for idx, layer in enumerate(self.layer_of):
            out[layer]["self_s"] += self.self_s[idx]
            out[layer]["calls"] += self.calls[idx]
        return out

    def by_slot(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "layer": self.layer_of[idx],
                "self_s": self.self_s[idx],
                "incl_s": self.incl_s[idx],
                "calls": self.calls[idx],
            }
            for idx, name in enumerate(self.names)
        }

    def calls_of(self, name: str) -> int:
        idx = self._slot_by_name.get(name)
        return self.calls[idx] if idx is not None else 0

    def incl_of(self, name: str) -> float:
        idx = self._slot_by_name.get(name)
        return self.incl_s[idx] if idx is not None else 0.0


class _SpannedIter:
    __slots__ = ("_step",)

    def __init__(self, step: Callable):
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step()


def _raw(owner, attr: str):
    """The attribute as stored (no descriptor binding), so restoring it puts
    back the very object that was there."""
    if inspect.isclass(owner):
        return vars(owner)[attr]
    return getattr(owner, attr)
