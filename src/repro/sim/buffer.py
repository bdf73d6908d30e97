"""Shared switch buffer with dynamic-threshold admission.

Models the memory-management unit of a shared-buffer switch chip:

* one **shared pool** used by all egress queues, with admission governed by
  the dynamic-threshold algorithm of Choudhury & Hahne (a queue may grow up to
  ``alpha`` times the *remaining free* shared memory);
* a **PFC headroom pool**, reserved up-front per lossless priority, that
  absorbs the in-flight data arriving between a PAUSE being sent and the
  upstream actually stopping.

The paper's ``Physical*`` configuration ("ideal physical priority", §6.2) is
obtained by reserving *zero* headroom regardless of the number of lossless
priorities — headroom is assumed to live outside the chip buffer.
"""

from __future__ import annotations

from .. import probe as _probe

__all__ = ["SharedBuffer", "BufferStats"]


class BufferStats:
    """Counters exported by a :class:`SharedBuffer`.

    ``dropped`` counts *packets* rejected by the buffer — a packet refused by
    the shared pool and then refused by headroom is one drop, not two.
    ``dropped_by_reason`` splits that count by the pool that made the final
    decision (``"buffer_shared"`` / ``"buffer_headroom"``) plus any caller-
    supplied reason, and always sums to ``dropped``.
    """

    __slots__ = (
        "admitted_shared",
        "admitted_headroom",
        "dropped",
        "dropped_by_reason",
        "peak_shared",
        "peak_headroom",
    )

    def __init__(self):
        self.admitted_shared = 0
        self.admitted_headroom = 0
        self.dropped = 0
        self.dropped_by_reason = {}
        self.peak_shared = 0
        self.peak_headroom = 0


class SharedBuffer:
    """Byte-accounting for one switch's packet memory.

    Parameters
    ----------
    capacity_bytes:
        Total chip buffer.
    headroom_bytes:
        Bytes reserved for PFC headroom (0 for lossy or ``Physical*``).

    Admission is by dynamic threshold with factor 1: an egress queue of
    current length ``q`` may accept a packet only if ``q < free_shared``.
    """

    def __init__(self, capacity_bytes: int, headroom_bytes: int = 0):
        if headroom_bytes > capacity_bytes:
            raise ValueError(
                f"headroom {headroom_bytes} exceeds buffer capacity {capacity_bytes}"
            )
        self.capacity = capacity_bytes
        self.headroom_capacity = headroom_bytes
        self.shared_capacity = capacity_bytes - headroom_bytes
        self.shared_used = 0
        self.headroom_used = 0
        self.stats = BufferStats()
        # clock + identity arrive with bind_telemetry; until then the buffer
        # reports to the active probe at t=0 under an empty name, so the audit
        # shadow ledger sees a standalone buffer's admits/releases too
        self.sim = None
        self.name = ""
        self.probe = _probe.active

    def bind_telemetry(self, sim, name: str) -> None:
        """Attach the owning simulator's clock, probe and a switch identity.

        Fails fast on a clock-less binding instead of deferring the crash to
        the first admitted packet.
        """
        if sim is None or not hasattr(sim, "now"):
            raise ValueError(
                f"bind_telemetry({name!r}): sim must provide a .now clock, got {sim!r}"
            )
        self.sim = sim
        self.name = name
        self.probe = sim.probe
        if self.probe.on:
            self.probe.register("buffer", self)

    def _now(self) -> int:
        """Clock for emission sites; 0 while unbound."""
        sim = self.sim
        return sim.now if sim is not None else 0

    # ------------------------------------------------------------------
    @property
    def free_shared(self) -> int:
        return self.shared_capacity - self.shared_used

    def try_admit_shared(self, queue_bytes: int, size: int) -> bool:
        """Admit ``size`` bytes into a queue currently holding ``queue_bytes``."""
        used = self.shared_used
        cap = self.shared_capacity
        new_used = used + size
        # inline free_shared: this runs once per forwarded packet
        if new_used > cap or queue_bytes >= cap - used:
            return False
        self.shared_used = new_used
        stats = self.stats
        stats.admitted_shared += 1
        if new_used > stats.peak_shared:
            stats.peak_shared = new_used
        p = self.probe
        if p.on:
            p.buffer(self._now(), self, False, size)
        return True

    def try_admit_headroom(self, size: int) -> bool:
        """Admit into the PFC headroom pool (post-PAUSE in-flight data)."""
        if self.headroom_used + size > self.headroom_capacity:
            return False
        self.headroom_used += size
        self.stats.admitted_headroom += 1
        if self.headroom_used > self.stats.peak_headroom:
            self.stats.peak_headroom = self.headroom_used
        p = self.probe
        if p.on:
            p.buffer(self._now(), self, True, size)
        return True

    def release(self, size: int, from_headroom: bool) -> None:
        """Return ``size`` bytes to the pool the packet was charged to."""
        if from_headroom:
            self.headroom_used -= size
            if self.headroom_used < 0:
                raise AssertionError("headroom accounting went negative")
        else:
            self.shared_used -= size
            if self.shared_used < 0:
                raise AssertionError("shared-pool accounting went negative")
        p = self.probe
        if p.on:
            p.buffer(self._now(), self, from_headroom, -size)

    def record_drop(self, size: int = 0, priority: int = -1, reason: str = "buffer_shared") -> None:
        """Count one rejected packet under ``reason``.

        Callers invoke this exactly once per dropped packet, with the reason
        of the *final* rejection (a lossless packet refused by the shared
        pool and then by headroom is one ``"buffer_headroom"`` drop).
        """
        stats = self.stats
        stats.dropped += 1
        by_reason = stats.dropped_by_reason
        by_reason[reason] = by_reason.get(reason, 0) + 1
        p = self.probe
        if p.on:
            p.buffer_drop(self._now(), self.name, size, priority, reason)
