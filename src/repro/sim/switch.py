"""Output-queued switch with shared buffer, ECN, PFC and ECMP routing."""

from __future__ import annotations

from typing import Dict, List, Optional

from .buffer import SharedBuffer
from .engine import Simulator
from .packet import PACKET_POOL, Packet
from .pfc import DYN_ALPHA, PfcConfig, PfcIngressState
from .port import Port

__all__ = ["Switch", "SwitchConfig", "ecmp_hash"]

_GOLDEN = 0x9E3779B1
_MIX = 0x85EBCA77

#: bound on a switch's memoised ECMP picks: a key is one flow and direction,
#: and a long trace brings millions of flow ids past one multipath switch.
#: At the cap the cache is cleared wholesale — ``ecmp_hash`` is pure, so the
#: only cost is re-deriving the picks of the flows still live
_ROUTE_CACHE_MAX = 65536


def ecmp_hash(flow_id: int, node_id: int) -> int:
    """Deterministic per-flow hash used for ECMP next-hop selection."""
    h = (flow_id * _GOLDEN) ^ (node_id * _MIX)
    h ^= h >> 13
    h = (h * 0x27D4EB2F) & 0xFFFFFFFF
    return h ^ (h >> 16)


class SwitchConfig:
    """Buffer/PFC/ECN parameters shared by all switches of one experiment."""

    __slots__ = (
        "n_queues",
        "buffer_bytes",
        "headroom_per_port_per_prio",
        "n_lossless",
        "ideal_headroom",
        "pfc",
        "ecn_k_bytes",
    )

    def __init__(
        self,
        n_queues: int = 8,
        buffer_bytes: int = 32 * 1024 * 1024,
        headroom_per_port_per_prio: int = 50 * 1024,
        n_lossless: Optional[int] = None,
        ideal_headroom: bool = False,
        pfc: Optional[PfcConfig] = None,
        ecn_k_bytes: Optional[int] = None,
    ):
        self.n_queues = n_queues
        self.buffer_bytes = buffer_bytes
        self.headroom_per_port_per_prio = headroom_per_port_per_prio
        #: number of priorities configured lossless (defaults to all queues)
        self.n_lossless = n_lossless if n_lossless is not None else n_queues
        #: Physical* from the paper: headroom does not consume chip buffer
        self.ideal_headroom = ideal_headroom
        self.pfc = pfc if pfc is not None else PfcConfig()
        self.ecn_k_bytes = ecn_k_bytes


class Switch:
    """A shared-buffer switch.

    Ports are added by the topology builder via :meth:`add_port`; ingress
    bookkeeping (which upstream egress port feeds ingress ``i``) is registered
    via :meth:`register_ingress` so PFC signals can be sent back upstream.
    """

    __slots__ = (
        "sim",
        "node_id",
        "cfg",
        "name",
        "ports",
        "_ingress_peer",
        "_ingress_delay",
        "routes",
        "buffer",
        "_pfc",
        "_pfc_on",
        "_n_lossless",
        "_nq",
        "_route_cache",
        "drops",
        "forwarded",
        "probe",
    )

    def __init__(self, sim: Simulator, node_id: int, cfg: SwitchConfig, name: str = ""):
        self.sim = sim
        self.node_id = node_id
        self.cfg = cfg
        self.name = name or f"switch{node_id}"
        self.ports: List[Port] = []
        self._ingress_peer: List[Optional[Port]] = []
        self._ingress_delay: List[int] = []
        #: dst node id -> list of candidate egress port indices (ECMP)
        self.routes: Dict[int, List[int]] = {}
        self.buffer: Optional[SharedBuffer] = None
        #: (in_idx * n_queues + prio) -> pause state; int keys keep the
        #: per-packet lookup free of tuple construction
        self._pfc: Dict[int, PfcIngressState] = {}
        # hoisted per-packet config reads
        self._pfc_on = cfg.pfc.enabled
        self._n_lossless = cfg.n_lossless
        self._nq = cfg.n_queues
        #: (dst, flow_id) -> egress index; ecmp_hash is pure, routes are
        #: fixed after topology build, so the pick per flow never changes
        #: (at most ``_ROUTE_CACHE_MAX`` entries)
        self._route_cache: Dict[tuple, int] = {}
        self.drops = 0
        self.forwarded = 0
        self.probe = sim.probe
        if self.probe.on:
            self.probe.register("switch", self)

    # ------------------------------------------------------------------
    # topology wiring
    # ------------------------------------------------------------------
    def add_port(self, rate_bps: float) -> int:
        idx = len(self.ports)
        port = Port(
            self.sim,
            rate_bps,
            n_queues=self.cfg.n_queues,
            ecn_k=self.cfg.ecn_k_bytes,
            name=f"{self.name}.p{idx}",
            stamp_int=True,
        )
        port.on_dequeue = self._on_port_dequeue
        self.ports.append(port)
        self._ingress_peer.append(None)
        self._ingress_delay.append(0)
        return idx

    def register_ingress(self, in_idx: int, upstream_port: Port, prop_delay_ns: int) -> None:
        self._ingress_peer[in_idx] = upstream_port
        self._ingress_delay[in_idx] = int(prop_delay_ns)

    def finalize(self) -> None:
        """Size the buffer once the port count is known."""
        cfg = self.cfg
        if cfg.pfc.enabled and not cfg.ideal_headroom:
            headroom = cfg.headroom_per_port_per_prio * len(self.ports) * cfg.n_lossless
            # headroom may starve the shared pool (the paper's §2.2 concern);
            # only a small floor is guaranteed so the chip stays functional
            floor = min(128 * 1024, cfg.buffer_bytes // 4)
            headroom = min(headroom, cfg.buffer_bytes - floor)
        else:
            headroom = 0
        # Physical* still needs headroom capacity to absorb post-PAUSE data,
        # it just doesn't subtract it from the shared pool: model that as an
        # extra pool on top of the chip buffer.
        if cfg.pfc.enabled and cfg.ideal_headroom:
            self.buffer = SharedBuffer(cfg.buffer_bytes, 0)
            extra = cfg.headroom_per_port_per_prio * len(self.ports) * cfg.n_lossless
            self.buffer.headroom_capacity = extra
        else:
            self.buffer = SharedBuffer(cfg.buffer_bytes, headroom)
        self.buffer.bind_telemetry(self.sim, self.name)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, in_idx: int) -> None:
        try:
            routes = self.routes[pkt.dst]
        except KeyError:
            # reconvergence left no path to the destination: the frame
            # blackholes here, as on a down port
            self._drop(pkt, "blackhole")
            return
        if len(routes) == 1:
            out_idx = routes[0]
        else:
            rkey = (pkt.dst, pkt.flow_id)
            try:
                out_idx = self._route_cache[rkey]
            except KeyError:
                out_idx = routes[ecmp_hash(pkt.flow_id, self.node_id) % len(routes)]
                if len(self._route_cache) >= _ROUTE_CACHE_MAX:
                    self._route_cache.clear()
                self._route_cache[rkey] = out_idx
        port = self.ports[out_idx]
        if port.down:
            # routes still point at a dead interface (the detection window
            # before reconvergence): the frame blackholes here — parking it
            # on a port that cannot drain would freeze the fabric via PFC
            self._drop(pkt, "blackhole")
            return

        prio = pkt.priority
        size = pkt.size
        lossless = self._pfc_on and prio < self._n_lossless
        buf = self.buffer
        if not self.probe.on and port.ecn_marker is None:
            # Common case (docs/PERFORMANCE.md, "One call per hop"): the
            # shared pool admits and no PFC threshold is crossed.  Decided
            # before anything is mutated, so every other outcome — DT
            # refusal, headroom, drop, PAUSE, a paused ingress — falls
            # through to the general path below with no state touched.
            used = buf.shared_used
            cap = buf.shared_capacity
            new_used = used + size
            qb = port.qbytes[prio]
            clear = new_used <= cap and qb < cap - used
            state = None
            if clear and lossless:
                state = self._pfc.get(in_idx * self._nq + prio)
                if state is None or state.pause_sent:
                    clear = False
                else:
                    pfc = state.cfg
                    xoff = pfc.xoff_bytes
                    if pfc.dynamic:
                        # against the pool *after* admission, as
                        # PfcIngressState.on_enqueue reads it
                        dyn = DYN_ALPHA * (cap - new_used)
                        if dyn < xoff:
                            xoff = dyn
                    clear = state.bytes + size <= xoff
            if clear:
                stats = buf.stats
                stats.admitted_shared += 1
                if new_used > stats.peak_shared:
                    stats.peak_shared = new_used
                self.forwarded += 1
                if port.ecn_k is not None and qb + size > port.ecn_k:
                    pkt.ecn = True
                pkt.ctx = in_idx << 1
                if (
                    not port.busy
                    and not port.total_bytes
                    and not port.paused[prio]
                    and port.impairment is None
                ):
                    # admitted and released within this event: pool and PFC
                    # backlog are net unchanged
                    port._cut_through(pkt, size)
                    return
                buf.shared_used = new_used
                if state is not None:
                    state.bytes += size
                port.queues[prio].append(pkt)
                port._active |= 1 << prio
                port.qbytes[prio] = qb + size
                port.total_bytes += size
                if not port.busy:
                    port._kick()
                return
        from_headroom = 0
        if not buf.try_admit_shared(port.qbytes[prio], size):
            if lossless and buf.try_admit_headroom(size):
                from_headroom = 1
            else:
                # one packet, one drop — the reason is the pool that made the
                # final call (headroom for lossless traffic, shared otherwise)
                self._drop(pkt, "buffer_headroom" if lossless else "buffer_shared")
                return
        if lossless:
            key = in_idx * self._nq + prio
            state = self._pfc.get(key)
            if state is None:
                state = self._pfc_state(in_idx, prio)
            state.on_enqueue(size)
        self.forwarded += 1
        # ctx packs (in_idx, from_headroom) into one int: in_idx << 1 | flag
        port.enqueue(pkt, in_idx << 1 | from_headroom)

    def _drop(self, pkt: Packet, reason: str) -> None:
        """The packet dies here: count it once, under one reason."""
        self.drops += 1
        if self.buffer is not None:
            self.buffer.record_drop(pkt.size, pkt.priority, reason)
        p = self.probe
        if p.on:
            p.pkt_dropped(self.sim.now, pkt, reason)
        PACKET_POOL.release(pkt)

    def _on_port_dequeue(self, pkt: Packet, ctx: int) -> None:
        prio = pkt.priority
        size = pkt.size
        state = None
        if self._pfc_on and prio < self._n_lossless:
            in_idx = ctx >> 1
            state = self._pfc.get(in_idx * self._nq + prio)
            if state is None:
                state = self._pfc_state(in_idx, prio)
        if ctx & 1 or self.probe.on or (state is not None and state.pause_sent):
            self.buffer.release(size, ctx & 1)
            if state is not None:
                state.on_dequeue(size)
            return
        # common case: a shared-pool packet, no sink listening and no RESUME
        # that could be due — two subtractions, same accounting assertions
        buf = self.buffer
        buf.shared_used -= size
        if buf.shared_used < 0:
            raise AssertionError("shared-pool accounting went negative")
        if state is not None:
            state.bytes -= size
            if state.bytes < 0:
                raise AssertionError("PFC ingress accounting went negative")

    # ------------------------------------------------------------------
    # PFC
    # ------------------------------------------------------------------
    def _pfc_state(self, in_idx: int, prio: int) -> PfcIngressState:
        key = in_idx * self.cfg.n_queues + prio
        state = self._pfc.get(key)
        if state is None:
            state = PfcIngressState(
                self.sim,
                self.cfg.pfc,
                self.buffer,
                self._make_signal_sender(in_idx, prio),
                key=(self.name, in_idx, prio),
            )
            self._pfc[key] = state
        return state

    def _make_signal_sender(self, in_idx: int, prio: int):
        upstream = self._ingress_peer[in_idx]
        delay = self._ingress_delay[in_idx]

        def send(paused: bool) -> None:
            p = self.probe
            if p.on:
                # every PAUSE/RESUME leaves through here
                p.pfc(
                    self.sim.now,
                    self.name,
                    upstream.name if upstream is not None else None,
                    in_idx,
                    prio,
                    paused,
                    self._pfc[in_idx * self._nq + prio].bytes,
                )
            if upstream is not None:
                self.sim.after(delay, upstream.set_paused, prio, paused)

        return send

    # ------------------------------------------------------------------
    def pfc_pause_count(self) -> int:
        return sum(s.pauses_sent for s in self._pfc.values())
