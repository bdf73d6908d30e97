"""Hybrid fluid/packet simulation driver.

The :class:`HybridDriver` wraps the packet-level DES and alternates two
regimes per epoch:

**packet** — the simulator runs exactly as without the driver.  After a
fluid exit it runs straight through the hysteresis floor in force.  The
floor is short (``_MIN_PACKET_NS``) and backs off: a contention exit from an
epoch shorter than ``_SHORT_EPOCH_NS`` doubles it up to ``_MAX_PACKET_NS``,
so persistent contention is not re-entered every few tens of µs; any other
exit resets it.  Past the floor the phase is stepped on the
``_QUIET_STEP_NS`` grid and the *quiescence predicate* is evaluated after
every step: fabric backlog below a threshold, no PFC pause asserted, and no
flow inside a PrioPlus transition window (stopped / probe outstanding /
``consec > 0``) or loss recovery.  A packet phase therefore lasts as long
as the fabric is busy, not until a polling boundary.

**withdraw → fluid** — when the predicate holds, every active sender is
parked (``fluid_hold``, window state untouched) and every packet in the
fabric is taken out in one pass (:meth:`HybridDriver._withdraw`): the port
queues, the frames in service, the buffer and PFC-ingress bytes the queued
ones hold, and their deliveries and tx wake-ups in the heap
(:meth:`Simulator.withdraw <repro.sim.engine.Simulator.withdraw>`).  No
event runs between the decision and the first solve.  The withdrawn
packets are timed over the rest of their paths through the ports' FIFOs (a
data packet echoed back as its ACK) without the engine, and each held
flow's in-flight window — its packets ``[acked, next_new_seq)`` — becomes
ledger credit that lands when its ACK would have reached the sender; the
ACKs reach the congestion control then, and a held sender's PrioPlus probe
crosses the fabric the same way (``fly_probe``).  No byte is credited by
rate before the epoch *opens*: at the first point of the quiet grid at which
every held window has landed, every port is idle and no probe is out —
where running the packets out on the engine would have left the fabric.
A flow whose whole rest was in flight completes as its last ACK lands, its
receiver where its last data would have.  From the decision on *no packet
exists anywhere in the fabric*, and the driver advances the fabric in
fluid segments, one per connected component of the flow–link graph:
per-flow rates come from strict-priority max-min water-filling over the
link-capacity matrix (:mod:`repro.fluid.model`), solved per component and
only for the components whose members or caps moved, windows ramp per the
scheme's fluid law (:mod:`repro.fluid.laws`), and delivered bytes are
credited as whole packets to a per-flow byte ledger.  A component is
*settled* (credited, ramped, its completions reaped) only at its own
events — a completion, a gate, a merge or split — or at every step while a
window in it ramps; a steady component skips the steps other components
and the time boundaries make.  Only the senders' acked counters move per
settlement; while a sink listens (``probe.on``) the counters of the steady
components are brought up to each step too, count only, so samplers read
them as fresh as per-step credit would.  Each flow's sender/receiver
sequence state is written back once (``FlowSender.fluid_advance``), when
its last packet is credited or at the epoch's exit, so completions,
telemetry and results read exactly as if the packets had flown.  The wall
clock of the DES still advances through :meth:`Simulator.run`, so residual
timers (RTOs, experiment samplers) fire normally; an in-simulation reader
of the acked counters (an experiment's ``RateSampler``) sees a steady
component's as of its last settlement.  Flows that *start* during a fluid
epoch are absorbed directly into the fluid model.

**handoff** — on exit (contention or deadline) each surviving flow's ledger
is written back (in-flight credit that has not landed yet lands at the
exit), its congestion window is re-synchronised to its fluid state
(``cc.fluid_sync``), capped near ``rate × base_rtt`` for network-limited
flows so the resumed DES does not burst, and the senders are released.
Re-materialised packet state is exact by construction: in fluid mode the
network is empty, so the only state to restore is sequence/window state,
which the write-back sets to what direct credit at every settlement would
have left.

Error envelope (documented in docs/PERFORMANCE.md): fluid epochs model
steady-state scheduling but approximate away standing-queue delay and
O(RTT) transition dynamics.  The driver falls back to packets only when
flows of different ranks meet on a saturated link (``contention:priority``);
same-rank sharing stays fluid.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.packet import ACK, DATA, PACKET_POOL
from ..transport.flow import AckInfo
from . import model
from .laws import law_for
from .withdraw import FlightPlan

__all__ = ["FluidConfig", "HybridDriver"]

_PACKET = "packet"
_FLUID = "fluid"

#: fluid step ceiling: no step runs the DES further (a steady group's
#: segment is not bounded by it)
_DT_MAX_NS = 50_000
#: the end of a segment nothing in it bounds (every member held at rate 0)
_NEVER = 1 << 62
#: the one packet-side step: DES chunk between "quiet?" checks past the
#: floor of a packet phase
_QUIET_STEP_NS = 5_000
#: hysteresis: after a fluid exit stay in packet mode at least the floor in
#: force (``HybridDriver._floor_ns``), which starts and resets at this base
_MIN_PACKET_NS = 15_000
#: a contention exit from an epoch shorter than this doubles the next
#: floor: the contention outlived the last one
_SHORT_EPOCH_NS = 100_000
#: the floor backs off no further than this
_MAX_PACKET_NS = 800_000
#: hysteresis: don't exit a fluid epoch before this (deadline wins)
_MIN_FLUID_NS = 20_000


class FluidConfig:
    """Tuning knob for :class:`HybridDriver`."""

    __slots__ = ("check_every_ns",)

    def __init__(self, check_every_ns: int = 200_000):
        if not isinstance(check_every_ns, int) or check_every_ns <= 0:
            # a non-advancing horizon would spin the drive loop forever
            raise ValueError(f"check_every_ns must be a positive int, got {check_every_ns!r}")
        #: how often ``done()`` and the deadline are looked at from inside a
        #: fluid epoch (the step loop's outer horizon).  Not the length of
        #: a packet phase: those end when the fabric goes quiet
        self.check_every_ns = check_every_ns


class _FluidFlow:
    """One sender absorbed into the fluid model, with the epoch's byte
    ledger: whole packets credited since ``first`` run to ``seq``, and the
    sender's sequence state catches up once (``FlowSender.fluid_advance``).
    The packets of its window withdrawn at entry sit in ``lands`` until
    they land."""

    __slots__ = (
        "sender", "links", "rank", "cwnd", "ramp", "ceil", "rtt", "credit", "rate", "cap",
        "gate_ns", "group", "seq", "first", "scan", "t_adv", "left", "t_seg", "lands", "done_ns",
    )

    def __init__(self, sender, links: List[int], rank: int, cwnd: float, ramp: float, ceil: float):
        self.sender = sender
        self.links = links
        self.rank = rank
        self.cwnd = cwnd
        self.ramp = ramp
        self.ceil = ceil
        self.rtt = float(sender.base_rtt)
        self.credit = 0.0  # fractional payload bytes not yet a whole packet
        self.rate = 0.0  # bytes/ns, in force this segment
        self.cap = 0.0  # bytes/ns, window-limited cap this segment
        self.t_seg = 0  # credited up to here: the start of its open segment
        self.gate_ns = 0  # no credit before this time (pipe-fill delay)
        self.group = None  # the _Group holding it while live
        # the ledger: packets [first, seq) credited this epoch, the last
        # settlement that credited any began at packet scan, at time t_adv
        self.seq = self.first = self.scan = sender.next_new_seq
        self.t_adv = 0
        self.left = sender.remaining_bytes  # payload bytes not yet credited
        #: the withdrawn window: ``(landing ns, payload)`` per packet, latest
        #: first (credited from the end), and when the receiver would have
        #: held the last of them
        self.lands = ()
        self.done_ns = 0


def _fresh(sender) -> bool:
    """Not a byte moved yet, by packets or by fluid credit."""
    return sender.flow.first_tx_ns is None and sender.acked_payload == 0


class _Group:
    """Live flows forming one connected component of the flow–link graph,
    in ``_flows`` (absorb) order, the allocation last solved for them, and
    when their open segment is next settled."""

    __slots__ = ("flows", "caps", "rates", "contended", "split", "due")

    def __init__(self, flows: List[_FluidFlow]):
        self.flows = flows
        self.caps: Optional[List[float]] = None  # None: solve at the next segment
        self.rates: List[float] = []
        self.contended = False  # two ranks meet on a saturated link
        self.split = False  # a member completed: re-split before the next solve
        #: settled at the first step ending at or after this: the segment's
        #: end while steady, its start while ramping (every step), 0 once
        #: formed, merged or split (settle and reopen at the next step)
        self.due = 0


class HybridDriver:
    """Alternates packet-level DES with fluid epochs on one fabric."""

    def __init__(self, sim, net, config: Optional[FluidConfig] = None):
        self.sim = sim
        self.net = net
        self.cfg = config if config is not None else FluidConfig()
        self.phase = _PACKET
        self._ports = []
        for node in net.nodes:
            ports = getattr(node, "ports", None)
            if ports is not None:
                self._ports.extend(ports)
            elif node.port is not None:
                self._ports.append(node.port)
        #: fabric-wide backlog below which a fluid epoch may be attempted:
        #: 8 wire-MTUs per port of this driver's own fabric
        self.quiet_backlog_bytes = 8 * 1540 * max(len(self._ports), 1)
        # persistent link index: Port -> dense link id (grows across epochs);
        # every indexed port's ``cap_memo`` is this one list, which a rate
        # write empties: the caps are re-read once it is
        self._link_index = {}
        self._link_caps: List[float] = []
        self._caps_fresh = [True]
        # fluid-epoch state: the live flows in absorb order, the same flows
        # as connected components (a dict used as an ordered set), and each
        # link a live flow crosses -> its group (stale entries name groups
        # no longer in _groups)
        self._flows: List[_FluidFlow] = []
        self._groups: Dict[_Group, None] = {}
        self._link_group: Dict[int, _Group] = {}
        # (sender, packets) whose acked counters _show ran ahead of the ledger
        self._shown: List = []
        # the callbacks of the fabric's packet events, withdrawn at entry:
        # every port's delivery and tx wake-up (built at the first entry)
        self._fabric_fns = None
        # the last entry's flight plan: a probe sent before the opening
        # queues behind the withdrawn frames it meets
        self._plan: Optional[FlightPlan] = None
        #: the last quiescence decision (``fluid_ns`` counts from it), and
        #: when that epoch's first byte may be credited by rate (``_withdraw``)
        self._decided = self._opened = 0
        # the flows held at the last entry, until the epoch opens, and those
        # of them whose withdrawn window has not all landed
        self._unopened: List[_FluidFlow] = []
        self._landing: List[_FluidFlow] = []
        self._last_exit = -(1 << 62)
        self._floor_ns = _MIN_PACKET_NS  # the packet-phase floor in force
        self.stats = {
            "fluid_epochs": 0,
            "fluid_ns": 0,
            "fluid_bytes": 0,
            "fluid_completions": 0,
            "admitted_in_fluid": 0,
            # kept at 0 for the readers of this key: entry withdraws the
            # packets in flight instead of draining them, so it cannot fail
            "drain_failures": 0,
            "exit_reasons": {},
            "handoff_fresh_starts": 0,
            "withdrawn_packets": 0,
            "withdrawn_bytes": 0,
        }
        if getattr(sim, "fluid_driver", None) is not None:
            raise RuntimeError("simulator already has a fluid driver attached")
        sim.fluid_driver = self

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def absorbing(self) -> bool:
        """True while new flow starts must be absorbed into the fluid model."""
        return self.phase != _PACKET

    def run_until_done(self, done, hard_deadline_ns: int) -> bool:
        """Run until the ``done()`` predicate holds or the deadline passes.

        The hybrid half of :func:`repro.experiments.launch.run_until`.  A
        predicate (not a flow list) is what streaming workloads need: a
        :class:`~repro.experiments.launch.FlowAdmitter` terminates on an
        O(1) counter check instead of an O(total-flows) scan, which matters
        when a multi-second trace admits millions of flows.
        """
        sim = self.sim
        cfg = self.cfg
        while sim.now < hard_deadline_ns:
            if done():
                break
            if self.phase == _PACKET:
                # hysteresis: a check before the floor could only say no, so
                # run straight to it; past it, ask on the quiet grid — resumed
                # flows are back at line rate, the expensive way to wait
                floor = self._last_exit + self._floor_ns
                until = floor if sim.now < floor else sim.now + _QUIET_STEP_NS
                sim.run(until=min(until, hard_deadline_ns))
                if sim.now >= hard_deadline_ns or done():
                    break
                if self._quiescent():
                    self._enter_fluid(self._active_senders())
            else:
                # the outer horizon counts from the epoch's opening
                start = max(sim.now, self._opened)
                self._fluid_run(min(start + cfg.check_every_ns, hard_deadline_ns))
        if self.phase != _PACKET:
            self._exit_fluid("deadline")
        return done()

    def run(self, until: int) -> None:
        """Advance the hybrid simulation to ``until`` (no flow-set to watch)."""
        self.run_until_done(lambda: False, until)

    # ------------------------------------------------------------------
    # quiescence predicate + withdrawal
    # ------------------------------------------------------------------
    def _active_senders(self) -> list:
        out = []
        for host in self.net.hosts:
            for s in host.senders.values():
                if not s.completed and s.started:
                    out.append(s)
        return out

    def _quiescent(self) -> bool:
        backlog = 0
        for port in self._ports:
            backlog += port.total_bytes
            if backlog > self.quiet_backlog_bytes:
                return False
            if True in port.paused:
                return False
        for host in self.net.hosts:
            for s in host.senders.values():
                if s.completed or not s.started:
                    continue
                if s.stopped or s.probe_outstanding or s._retx_queue:
                    return False
                if getattr(s.cc, "consec", 0) > 0:
                    return False
        return True

    def _withdraw(self, held) -> Dict:
        """Take every packet out of the fabric in one pass; returns each held
        sender's in-flight window as landings, ``{sender: (first,
        [(landing ns, payload), ...], done_ns)}``, and sets ``_opened``.

        Withdrawn are the deliveries and tx wake-ups in the heap (one
        :meth:`Simulator.withdraw`), then every port's queues, in service
        order, with the buffer and PFC-ingress bytes they hold
        (:meth:`Port.withdraw <repro.sim.port.Port.withdraw>`); each packet
        goes back to ``PACKET_POOL``.  A
        :class:`~repro.fluid.withdraw.FlightPlan` does the taking and times
        every withdrawn packet over the rest of its path, a data packet
        echoed at its receiver, without the engine.  A held sender's
        packet lands when its ACK would have reached the sender, so one
        whose data has landed and whose ACK is in flight credits the sender
        only, and at that time its ACK reaches the congestion control
        (``_echo``).  Every packet of a held sender's window ``[acked,
        next_new_seq)`` lands, in flight or not (one the fabric lost lands
        at ``_opened``).  ``done_ns`` is when the receiver would have held
        the whole window.

        ``_opened`` is the first point of the ``_QUIET_STEP_NS`` grid from
        now at which every held sender's window has landed and every port is
        idle (a probe sent before it moves it, ``fly_probe``): where running
        the packets out on the engine would have left the fabric.  No byte
        is credited by rate before it."""
        sim = self.sim
        now = sim.now
        fns = self._fabric_fns
        if fns is None:
            fns = self._fabric_fns = {port._wake for port in self._ports} | {
                port._deliver for port in self._ports if port._deliver is not None
            }
        plan = self._plan = FlightPlan(sim, self.net, fns, self._ports)
        pkts, rx, land = plan.pkts, plan.rx, plan.land
        by_id = {s.flow.flow_id: s for s in held}
        landed = {}  # sender -> {seq: (ACK at the sender, data at the receiver, echo)}
        quiet = plan.idle  # the last port goes idle ...
        p = sim.probe
        for i, pkt in enumerate(pkts):
            s = by_id.get(pkt.flow_id)
            kind = pkt.kind
            if s is not None and (kind == DATA or kind == ACK):
                t = land[i]
                if t > quiet:
                    quiet = t  # ... and the last held ACK lands
                if kind == DATA:
                    echo = (t - pkt.send_ts, pkt.ecn, pkt.int_hops)
                else:
                    echo = (t - pkt.echo_ts, pkt.ecn_echo, pkt.int_hops)
                seqs = landed.setdefault(s, {})
                old = seqs.get(pkt.seq)
                if old is None or t < old[0]:
                    seqs[pkt.seq] = (t, rx.get(i), echo)
            if p.on:
                p.withdraw(now, pkt)
            PACKET_POOL.release(pkt)
        self.stats["withdrawn_packets"] += len(pkts)
        step = _QUIET_STEP_NS
        self._decided = now
        self._opened = opened = now + step * -(-(quiet - now) // step)
        out = {}
        for s in held:
            if not s.inflight_bytes:
                continue  # no packet sent and unacked: nothing in flight
            nns = s.next_new_seq
            acked, sent = s.acked, s.sent
            first = acked.find(0, 0, nns)
            if first < 0:
                continue
            seqs = landed.get(s, {})
            lands = []
            done_ns = now
            for q in range(first, nns):
                if acked[q]:
                    continue
                payload = s.payload_of(q)
                ack, rx_ns, echo = seqs.get(q, (opened, opened, None))
                lands.append((ack, payload))
                if echo is not None:
                    # its ACK reaches the congestion control when it would have
                    sim.call_at(ack, self._echo, s, q, payload, echo, now)
                if rx_ns is not None and rx_ns > done_ns:
                    done_ns = rx_ns
                if sent[q]:
                    s.inflight_bytes -= payload
                self.stats["withdrawn_bytes"] += payload
            lands.sort(reverse=True)
            out[s] = (first, lands, done_ns)
        return out

    def _echo(self, s, seq: int, payload: int, echo, decided: int) -> None:
        """A withdrawn packet's ACK reaches its held sender's congestion
        control, as ``FlowSender.on_packet`` would hand it over (the ledger
        credits the bytes)."""
        if self._decided != decided or self.phase != _FLUID or s.completed:
            return  # handed back before it landed: the write-back took it
        delay, ecn, hops = echo
        if s.noise is not None:
            delay += s.noise.sample(self.sim.rng)
        s.last_rtt = delay
        s.cc.on_ack(AckInfo(self.sim.now, delay, ecn, payload, seq, hops, cum_seq=seq + 1))

    def fly_probe(self, s) -> None:
        """A held sender's PrioPlus probe crosses the fabric without a
        packet (``FlowSender._send_probe`` hands it here): it and its echo
        queue behind the withdrawn packets they meet (``FlightPlan.fly``),
        and the echo reaches the sender as a PROBE_ACK would.  One sent
        before the epoch opens delays the opening to the first point of the
        quiet grid after it returns: the fabric is not empty until it is
        back."""
        sim = self.sim
        now = sim.now
        s.probe_outstanding = True
        s.flow.probes_sent += 1
        src, dst, fid = s.flow.src.node_id, s.flow.dst.node_id, s.flow.flow_id
        back = self._plan.fly(dst, src, fid, self._plan.fly(src, dst, fid, now))
        sim.call_at(back, self._probe_echo, s, now)
        if now <= self._opened:
            step = _QUIET_STEP_NS
            opened = self._decided + step * -(-(back - self._decided) // step)
            if opened > self._opened:
                shift = opened - self._opened
                for f in self._flows:
                    if f.left and f.gate_ns >= self._opened:
                        f.gate_ns += shift
                self._opened = opened

    def _probe_echo(self, s, sent_ns: int) -> None:
        """A flown probe's echo reaches its sender, as ``on_packet`` would
        hand a PROBE_ACK over."""
        if s.completed:
            return
        delay = self.sim.now - sent_ns + s._probe_base_adjust
        if s.noise is not None:
            delay += s.noise.sample(self.sim.rng)
        s.last_rtt = delay
        s.probe_outstanding = False
        s._disarm_rto_if_idle()
        s.cc.on_probe_ack(AckInfo(self.sim.now, delay, False, 0, 0, None, is_probe=True))

    def _enter_fluid(self, held) -> None:
        """Park ``held``, withdraw the fabric's packets and open an epoch
        at once: no event runs between the decision and the first solve."""
        sim = self.sim
        for s in held:
            s.fluid_hold()
        before = self.stats["withdrawn_packets"]
        windows = self._withdraw(held)
        self.phase = _FLUID  # flow starts from here on are absorbed
        self._flows = []
        self._groups = {}
        self._link_group = {}
        self._landing = []
        for s in held:
            if not s.completed:
                self._absorb(s)
                window = windows.get(s)
                if window is not None:
                    # the withdrawn window lands first: the ledger starts at
                    # its lowest packet
                    f = self._flows[-1]
                    f.first, f.lands, f.done_ns = window
                    f.scan = f.first
                    f.left -= sum(payload for _, payload in f.lands)
                    if not f.left:
                        # all of it was in flight: it completes as its last
                        # ACK lands, so its group settles then
                        f.gate_ns = f.lands[0][0]
                    self._landing.append(f)
        self._unopened = list(self._flows)
        self.stats["fluid_epochs"] += 1
        p = sim.probe
        if p.on:
            withdrawn = self.stats["withdrawn_packets"] - before
            p.regime(sim.now, "fluid", "quiescent", len(self._flows), withdrawn)

    # ------------------------------------------------------------------
    # fluid epoch
    # ------------------------------------------------------------------
    def _link_id(self, port) -> int:
        idx = self._link_index.get(port)
        if idx is None:
            idx = self._link_index[port] = len(self._link_caps)
            self._link_caps.append(port.rate_bps / 8e9)  # bytes per ns
            port.cap_memo = self._caps_fresh
        return idx

    def _reread_caps(self) -> None:
        """A port's rate moved (its ``cap_memo`` was cleared): settle every
        group at the rates it ran at, then re-read every link's capacity and
        re-solve every group at its next segment."""
        now = self.sim.now
        for g in self._groups:
            g.due = 0
        if self._groups:
            self._settle(now)
        for g in self._groups:
            g.caps = None
        caps = self._link_caps
        for port, idx in self._link_index.items():
            caps[idx] = port.rate_bps / 8e9
        self._caps_fresh.append(True)

    def _absorb(self, sender) -> None:
        law = law_for(sender)
        cwnd = float(sender.cc.cwnd)
        fresh = _fresh(sender)
        if fresh:
            # starting inside the epoch: window comes from the fluid law
            cwnd = law.init
        # the flow's exact ECMP forward data path under the routes in force,
        # walked per absorption — flows that hash onto disjoint core links
        # must not share fluid capacity (the reverse path only carries 64 B
        # ACKs and is ignored)
        spec = sender.flow
        ports = self.net.path_ports(spec.src, spec.dst, flow_id=spec.flow_id)
        flow = _FluidFlow(
            sender,
            [self._link_id(p) for p in ports],
            max(int(getattr(spec, "vpriority", 0)), 0),
            min(max(cwnd, 1.0), law.ceil),
            law.ramp,
            law.ceil,
        )
        # no byte is credited by rate before the epoch opens
        now = self.sim.now
        opened = self._opened
        if fresh:
            # pipe-fill delay: at packet level the first window spends one
            # one-way delay in flight before any byte lands at the receiver,
            # so delivery (and therefore completion) starts ~RTT/2 late
            flow.gate_ns = max(now, opened) + sender.base_rtt // 2
        elif opened > now:
            flow.gate_ns = opened
        flow.t_seg = now
        self._flows.append(flow)
        self._join(flow)
        p = self.sim.probe
        if p.on:
            p.handoff(now, sender, _FLUID)

    def _join(self, flow: _FluidFlow) -> None:
        """Group a newly absorbed flow with every live group it shares a link
        with (merged, members in ``_flows`` order), or alone."""
        groups, link_group = self._groups, self._link_group
        met = {}
        for link in flow.links:
            g = link_group.get(link)
            if g is not None and g in groups:
                met[g] = None
        if not met:
            g = _Group([])
            groups[g] = None
        else:
            # the largest group absorbs the others: fewer flows re-pointed
            g = max(met, key=lambda m: len(m.flows))
        flow.group = g
        if len(met) > 1:
            for m in met:
                if m is not g:
                    del groups[m]
                    g.split = g.split or m.split
                    for f in m.flows:
                        f.group = g
                        for link in f.links:
                            link_group[link] = g
            g.flows = [f for f in self._flows if f.group is g]
        else:
            g.flows.append(flow)  # the newest flow is last in absorb order
        for link in flow.links:
            link_group[link] = g
        g.due = 0

    def _open_held(self) -> None:
        """The epoch opens: the held flows take their windows from their
        congestion control, which has seen their withdrawn ACKs land (a
        fresh one keeps its fluid law's)."""
        for f in self._unopened:
            s = f.sender
            if not s.completed and not _fresh(s):
                law = law_for(s)
                f.cwnd = min(max(float(s.cc.cwnd), 1.0), law.ceil)
                f.ramp = law.ramp
                f.ceil = law.ceil
        self._unopened = []

    def admit(self, sender) -> None:
        """A flow started inside a fluid epoch: absorb it.

        Called from ``FlowSender._start`` via the ``sim.fluid_driver`` hook
        instead of the packet-mode start path.
        """
        sim = self.sim
        p = sender.probe
        if p.on:
            p.flow_state(sim.now, sender.flow.flow_id, "running", sender)
        sender.fluid_held = True
        self.stats["admitted_in_fluid"] += 1
        self._absorb(sender)

    def _split(self, g: _Group) -> None:
        """Replace a group a completion may have disconnected by its
        components (fresh groups: links only the finished flows crossed
        are left naming ``g``, which is gone)."""
        groups, link_group, flows = self._groups, self._link_group, g.flows
        del groups[g]
        for members in model.components([f.links for f in flows]):
            part = _Group([flows[i] for i in members])
            groups[part] = None
            for f in part.flows:
                f.group = part
                for link in f.links:
                    link_group[link] = part

    def _allocate(self, now: int) -> bool:
        """Solve each group settled at ``now`` whose members or caps changed;
        returns whether any group is contended (``model.classify_contention``).

        Max-min filling never moves capacity between components, so every
        group's ``rates`` equal a solve of all live flows at once, bit for bit
        (docs/PERFORMANCE.md, "One solve per component").
        """
        groups, link_caps = self._groups, self._link_caps
        for g in [g for g in groups if g.split]:
            self._split(g)
        contended = False
        for g in groups:
            # a group in mid-segment holds its members and caps, so its
            # allocation and contention stand
            if g.due <= now:
                flows = g.flows
                # a freshly started flow's bytes only begin landing after one
                # one-way delay; until its gate passes it holds no capacity,
                # does not ramp, and its whole trajectory shifts by ~RTT/2
                caps = [0.0 if f.gate_ns > now else f.cwnd / f.rtt for f in flows]
                # same members, same caps: the last allocation holds
                if caps != g.caps:
                    ranks = [f.rank for f in flows]
                    paths = [f.links for f in flows]
                    # looked up on the module per call: the perf ledger's
                    # tracer wraps these two names from outside
                    rates, load = model.solve_rates(caps, ranks, paths, link_caps)
                    g.contended = model.classify_contention(
                        rates, caps, ranks, paths, link_caps, load
                    )
                    g.caps, g.rates = caps, rates
            if g.contended:
                contended = True
        return contended

    def _fluid_run(self, until: int) -> None:
        """Advance in fluid steps until ``until``, a regime exit or a flown
        probe delaying the epoch's opening (the caller's horizon counts from
        the opening)."""
        sim = self.sim
        show = sim.probe.on
        opened = self._opened
        while self.phase == _FLUID and sim.now < until and self._opened == opened:
            now = sim.now
            if not self._caps_fresh:
                self._reread_caps()
            if self._unopened and now >= self._opened:
                self._open_held()
            if not self._flows:
                # empty fabric: no rates to solve.  Step to the next event
                # (not to the horizon!) so a flow start that admits into the
                # epoch resumes fluid integration immediately instead of
                # sitting frozen until the caller's next check boundary.
                nxt = sim.peek_time()
                sim.run(until=until if nxt is None or nxt >= until else nxt)
                continue
            contended = self._allocate(now)
            # the exit settles every group at the rates it ran at, so the
            # reopened groups' new ones are written only once the step runs
            if contended and now - self._opened >= _MIN_FLUID_NS:
                self._exit_fluid("contention:priority")
                return
            sim.run(until=self._open(now, min(until, now + _DT_MAX_NS)))  # may admit flows
            if sim.now <= now:
                break
            self._settle(sim.now)
            if show:
                self._show(sim.now)

    def _open(self, now: int, step: int) -> int:
        """Open a segment for every group settled at ``now``: its members'
        rates and caps come into force.  Returns where the step ends: at
        ``step`` or at the earliest end of any group's segment.

        A group's segment ends at the earliest of its members' gate expiry
        (re-solve as soon as a pipe fills), completion and, while a window is
        still ramping, one RTT (the packet-level laws update once per RTT; a
        coarser explicit step would hold a growing flow at its stale rate for
        several).  A ramping group is due again at every step, whatever
        ends it; a steady one only at its own segment's end."""
        for g in self._groups:
            due = g.due
            if due > now:  # steady, in mid-segment: due is the segment's end
                if due < step:
                    step = due
                continue
            end = _NEVER
            ramping = False
            for f, cap, r in zip(g.flows, g.caps, g.rates):
                f.rate = r
                f.cap = cap
                if f.gate_ns > now:
                    if f.gate_ns < end:
                        end = f.gate_ns
                elif r >= cap * 0.999 and f.cwnd < f.ceil:
                    ramping = True
                    t = now + max(int(f.rtt), 1)
                    if t < end:
                        end = t
                if r > 0.0:
                    t = now + int((f.left - f.credit) / r) + 1
                    if t < end:
                        end = t
            g.due = now if ramping else end
            if end < step:
                step = end
        return step

    def _settle(self, now: int) -> None:
        """Settle every group that is due: credit each member's bytes from
        the start of its segment (``t_seg``) to ``now``, ramp its window, reap
        completions.  A group is due at its segment's end, at every step while
        it ramps, and at the first step after a merge or split (``due`` 0); a
        group in mid-segment costs one comparison.

        Whole packets go on each flow's ledger; of the sender only the acked
        counters move.  The packets of a withdrawn window are credited as
        they land, all before the epoch opens and any rate credit.  A
        flow whose last packet is credited is written back and completes
        here; flows finishing at one instant complete in ``_flows`` (absorb)
        order."""
        if self._shown:
            self._unshow()
        done = []
        if self._landing:
            self._land(now, done)
        reaped = False
        delivered = 0
        p = self.sim.probe
        for g in self._groups:
            if g.due > now:
                continue
            for f in g.flows:
                s = f.sender
                if s.completed:  # finished by a stray packet-path event
                    reaped = True
                    continue
                dt = now - f.t_seg
                f.t_seg = now
                if f.rate > 0.0:
                    # a flow with a rate has a cap, so its gate had passed
                    # when the segment opened
                    if s.flow.first_tx_ns is None:
                        s.flow.first_tx_ns = now - dt
                    credit = f.credit + f.rate * dt
                    mtu = s.mtu
                    if credit >= mtu or credit >= f.left:
                        a = f.seq
                        last = s.n_packets - 1
                        b = min(last, a + int(credit // mtu))
                        consumed = (b - a) * mtu
                        if b == last and credit - consumed >= s._last_payload:
                            consumed += s._last_payload
                            b += 1
                        credit -= consumed
                        if b > a:
                            f.seq, f.scan, f.t_adv = b, a, now
                            f.left -= consumed
                            s.acked_count += b - a
                            s.acked_payload += consumed
                            delivered += consumed
                            if p.on:
                                p.fluid_credit(now, s, consumed)
                            if b > last:
                                f.done_ns = now
                                done.append(f)
                                continue
                    f.credit = credit
                # window ramp: only cap-limited flows grow (a network-limited
                # flow would be sitting at its scheme's delay target instead);
                # gated flows (cap forced to 0) hold their window too, except
                # while a withdrawn window lands: its ACKs drive the window
                if f.cap > 0.0 and f.rate >= f.cap * 0.999 and f.cwnd < f.ceil:
                    f.cwnd = min(f.cwnd + f.ramp * dt / f.rtt, f.ceil)
        self.stats["fluid_bytes"] += delivered
        if done or reaped:
            if len(done) > 1:
                done.sort(key=self._flows.index)
            for f in done:
                f.sender.fluid_advance(f.first, f.seq, f.scan, f.done_ns)
            self.stats["fluid_completions"] += len(done)
            live = []
            for f in self._flows:
                g = f.group
                if g.due <= now and f.sender.completed:
                    g.flows.remove(f)
                    g.split = True
                else:
                    live.append(f)
            self._flows = live

    def _land(self, now: int, done: List[_FluidFlow]) -> None:
        """Credit, to each flow of a group due at ``now``, the packets of its
        withdrawn window that have landed; one whose rest was all in flight
        joins ``done``: it completes where the receiver would have held its
        last packet (``done_ns``)."""
        p = self.sim.probe
        landing = []
        for f in self._landing:
            s, lands = f.sender, f.lands
            if s.completed:
                continue
            if f.group.due <= now and lands[-1][0] <= now:
                n = got = 0
                while lands and lands[-1][0] <= now:
                    got += lands.pop()[1]
                    n += 1
                f.scan, f.t_adv = f.first, now
                s.acked_count += n
                s.acked_payload += got
                if p.on:
                    p.fluid_credit(now, s, got)
                if not lands:
                    if f.left == 0:
                        done.append(f)
                    continue
            landing.append(f)
        self._landing = landing

    def _show(self, now: int) -> None:
        """Bring the acked counters of every group in mid-segment up to
        ``now``, for the sinks that read them between steps.  Count only: no
        ledger moves, the last packet is never shown, and the next
        ``_settle`` takes the shown packets back before it credits."""
        shown = self._shown
        for g in self._groups:
            if g.due <= now:
                continue
            for f in g.flows:
                r = f.rate
                if r > 0.0:
                    s = f.sender
                    mtu = s.mtu
                    credit = f.credit + r * (now - f.t_seg)
                    n = min(s.n_packets - 1, f.seq + int(credit // mtu)) - f.seq
                    if n > 0:
                        s.acked_count += n
                        s.acked_payload += n * mtu
                        shown.append((s, n))

    def _unshow(self) -> None:
        for s, n in self._shown:
            s.acked_count -= n
            s.acked_payload -= n * s.mtu
        self._shown = []

    # ------------------------------------------------------------------
    # handoff back to packets
    # ------------------------------------------------------------------
    def _release_or_start(self, s) -> None:
        """Hand one sender back to the packet regime.

        A sender admitted during the epoch that never moved a byte (no
        packet-path transmission, no fluid credit) must run the *real*
        packet-mode start path — ``cc.on_start`` performs scheme start
        logic (PrioPlus probe / linear-start tier selection, initial
        window) that ``fluid_release`` deliberately does not.
        """
        p = self.sim.probe
        if p.on:
            p.handoff(self.sim.now, s, _PACKET)
        if _fresh(s):
            s.fluid_held = False
            s.cc.on_start()
            s.try_send()
            self.stats["handoff_fresh_starts"] += 1
        else:
            s.fluid_release()

    def _back_off(self, short: bool) -> None:
        """Set the floor of the packet phase that starts now: doubled (up to
        ``_MAX_PACKET_NS``) after a ``short`` try at fluid — the contention
        outlived the last floor — else back to the base."""
        self._floor_ns = min(2 * self._floor_ns, _MAX_PACKET_NS) if short else _MIN_PACKET_NS

    def _exit_fluid(self, reason: str) -> None:
        sim = self.sim
        now = sim.now
        if self._unopened:
            self._open_held()  # the deadline came before the opening
        for g in self._groups:
            g.due = 0  # every group settles on the segment it is in
        for f in self._landing:  # in flight at entry, not landed yet: it lands now
            f.lands = [(now, payload) for _, payload in f.lands]
            f.done_ns = min(f.done_ns, now)
        self._settle(now)
        survivors = [f.sender for f in self._flows]
        for f in self._flows:
            s = f.sender
            if s.completed:
                continue
            if f.seq > f.first:
                s.fluid_advance(f.first, f.seq, f.scan, f.t_adv)
            if _fresh(s):
                # fresh flow: restarted via the packet start path below,
                # its fluid window was never real — don't sync it back
                continue
            cwnd_out = f.cwnd
            if f.rate < f.cap * 0.999:
                # network-limited: hand back a window matched to the
                # allocated rate so the resumed DES does not burst
                cwnd_out = min(cwnd_out, f.rate * s.base_rtt + 2.0 * s.mtu)
            s.cc.fluid_sync(cwnd_out)
        self.phase = _PACKET
        self._flows = []
        self._groups = {}
        self._link_group = {}
        self._landing = []
        self._last_exit = now
        self._back_off(reason.startswith("contention") and now - self._opened < _SHORT_EPOCH_NS)
        self.stats["fluid_ns"] += now - self._decided
        reasons = self.stats["exit_reasons"]
        reasons[reason] = reasons.get(reason, 0) + 1
        for s in survivors:
            if not s.completed:
                self._release_or_start(s)
        p = sim.probe
        if p.on:
            p.regime(now, "packet", reason, len(survivors), 0)
