"""Whole-world snapshot/restore for the discrete-event simulator.

A :class:`WorldSnapshot` captures one deep copy of a simulator *and every
object reachable from the caller-supplied roots* (networks, senders,
experiment bookkeeping).  Materialising it yields an independent, runnable
clone that continues byte-identically to the original — the property test
in ``tests/test_snapshot.py`` pins this.

Why deep copy works here:

* the engine's state is plain data — an integer clock, a heap of
  ``(time, seq, ...)`` tuples whose callbacks are bound methods of objects
  inside the copied graph, and a :class:`random.Random` whose state
  round-trips through pickling;
* determinism never depends on object identity: heap order is decided by
  the integer ``(time, seq)`` prefix, and dict iteration order (insertion
  order) is preserved by ``deepcopy``;
* the inert probe (:data:`repro.probe.INERT`) deep-copies to itself, so
  clones share it instead of dragging useless copies around;
* the process-wide :data:`PACKET_POOL` free list is intentionally *not*
  part of the world: cloned in-flight packets are distinct objects, and
  releasing them into the shared pool is safe (the pool guards against
  double-release per object).

**Live sinks are rejected by default.**  A world whose simulator's probe
carries sinks (recorder, auditor, tracer, inspector, sampler, profiler)
would deep-copy their buffers along with it — the fork then appends to a
private copy while callers holding the original sink see nothing, which
reads as silent data loss.  Snapshotting such a world raises
:class:`SnapshotHookError` naming the live sinks; pass ``allow_hooks=True``
to copy them anyway (each fork gets a probe over independent deep-copied
sinks — the right call when the fork *should* record into its own buffers).

Nothing in ``repro`` snapshots a world yet.  The intended consumer is the
hybrid fluid core (:mod:`repro.fluid`): a world checkpointed at a fluid
epoch's entry can be replayed at packet level from the same instant, which
measures that epoch's error against a packet twin (ROADMAP item 8).
"""

from __future__ import annotations

import copy
from typing import Tuple

__all__ = ["WorldSnapshot", "SnapshotHookError", "snapshot_world", "fork_world"]

class SnapshotHookError(RuntimeError):
    """A world with live probe sinks was snapshotted without opting in."""


def _check_hooks(sim) -> None:
    live = [type(sink).__name__ for sink in sim.probe.sinks]
    if live:
        raise SnapshotHookError(
            f"simulator's probe has live sinks ({', '.join(live)}): a "
            f"deep-copied fork would record into private copies of their "
            f"buffers, invisible to holders of the originals. Build the "
            f"world outside the install scope, or pass allow_hooks=True to "
            f"give each fork its own independent copy."
        )


class WorldSnapshot:
    """Frozen copy of a simulator plus its reachable object graph."""

    __slots__ = ("_world",)

    def __init__(self, sim, *roots, allow_hooks: bool = False):
        if not allow_hooks:
            _check_hooks(sim)
        self._world = copy.deepcopy((sim, roots))

    def materialize(self) -> Tuple:
        """Return ``(sim, *roots)`` clones, independent and runnable.

        The snapshot itself is never mutated, so it can be materialised any
        number of times — each call is one fresh world at the captured
        instant.
        """
        sim, roots = copy.deepcopy(self._world)
        return (sim,) + tuple(roots)


def snapshot_world(sim, *roots, allow_hooks: bool = False) -> WorldSnapshot:
    """Capture ``sim`` (and anything reachable from ``roots``) for later."""
    return WorldSnapshot(sim, *roots, allow_hooks=allow_hooks)


def fork_world(sim, *roots, allow_hooks: bool = False) -> Tuple:
    """One-shot snapshot+materialize: a single deep copy, returned directly."""
    if not allow_hooks:
        _check_hooks(sim)
    sim2, roots2 = copy.deepcopy((sim, roots))
    return (sim2,) + tuple(roots2)
