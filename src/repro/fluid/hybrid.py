"""Hybrid fluid/packet simulation driver.

The :class:`HybridDriver` wraps the packet-level DES and alternates two
regimes:

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
fabric is taken out in one pass (:meth:`HybridDriver._withdraw`), so no
event runs between the decision and the first solve.  Each held flow's
in-flight window becomes ledger credit that lands when its ACK would have
reached the sender; the ACK reaches the congestion control then, and a held
sender's PrioPlus probe crosses the fabric the same way (``fly_probe``).  A
flow whose whole rest was in flight completes as its last ACK lands.  The
withdrawal opens an *epoch* (:class:`~repro.fluid.epoch._Epoch`,
``self.epoch``; ``None`` in the packet regime), which holds the absorbed
flows and advances the empty fabric in fluid segments, one per connected
component of the flow–link graph (:mod:`repro.fluid.epoch`).  It credits no
byte by rate before it *opens*: at the first point of the quiet grid at
which every held window has landed, every port is idle and no probe is out —
where running the packets out on the engine would have left the fabric.

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

from typing import Dict, Optional, Tuple

from ..transport.flow import AckInfo
from .epoch import _Epoch, _fresh
from .withdraw import FlightPlan

__all__ = ["FluidConfig", "HybridDriver"]

#: the one packet-side step: DES chunk between "quiet?" checks past the
#: floor of a packet phase
_QUIET_STEP_NS = 5_000
#: hysteresis: after a fluid exit stay in packet mode at least the floor in
#: force (``HybridDriver._floor_ns``), which starts and resets at this base.
#: The three floor constants are judged by the twin ratchet:
#: ``tests/hybrid_twins.py --sweep BASE:THRESHOLD:CAP`` (µs) runs the
#: hybrid golden worlds against their twins' bounds at any setting
_MIN_PACKET_NS = 15_000
#: a contention exit from an epoch shorter than this doubles the next
#: floor: the contention outlived the last one
_SHORT_EPOCH_NS = 100_000
#: the floor backs off no further than this
_MAX_PACKET_NS = 800_000


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


class HybridDriver:
    """Alternates packet-level DES with fluid epochs on one fabric."""

    def __init__(self, sim, net, config: Optional[FluidConfig] = None):
        self.sim = sim
        self.net = net
        self.cfg = config if config is not None else FluidConfig()
        #: the fluid epoch in force; ``None`` in the packet regime
        self.epoch: Optional[_Epoch] = None
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
        self._link_caps = []
        self._caps_fresh = [True]
        # the callbacks of the fabric's packet events, withdrawn at entry:
        # every port's delivery and tx wake-up (built at the first entry)
        self._fabric_fns = None
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
        return self.epoch is not None

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
            epoch = self.epoch
            if epoch is None:
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
                start = max(sim.now, epoch._opened)
                if epoch._fluid_run(min(start + cfg.check_every_ns, hard_deadline_ns)):
                    self._exit_fluid("contention:priority")
        if self.epoch is not None:
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

    def _withdraw(self, held) -> Tuple[_Epoch, Dict]:
        """Take every packet out of the fabric in one pass (a
        :class:`~repro.fluid.withdraw.FlightPlan`) and open the epoch they
        leave; returns it and each held sender's window ``[acked,
        next_new_seq)`` as landings, ``{sender: (first, [(landing ns,
        payload), ...], done_ns)}``, ``done_ns`` when the receiver would
        have held it all.  A packet lands when its ACK would have reached
        the sender, its ACK reaching the congestion control then
        (``_echo``); one the fabric lost lands at the opening.  The epoch
        opens at the first point of the ``_QUIET_STEP_NS`` grid at which
        every held window has landed and every port is idle (a probe sent
        before it moves it, ``fly_probe``)."""
        sim = self.sim
        now = sim.now
        fns = self._fabric_fns
        if fns is None:
            fns = self._fabric_fns = {port._wake for port in self._ports} | {
                port._deliver for port in self._ports if port._deliver is not None
            }
        plan = FlightPlan(sim, self.net, fns, self._ports)
        quiet, landed = plan._landed(sim, held)
        self.stats["withdrawn_packets"] += len(plan.pkts)
        step = _QUIET_STEP_NS
        opened = now + step * -(-(quiet - now) // step)
        epoch = _Epoch(self, plan, opened)
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
                    sim.call_at(ack, self._echo, s, q, payload, echo, epoch)
                if rx_ns is not None and rx_ns > done_ns:
                    done_ns = rx_ns
                if sent[q]:
                    s.inflight_bytes -= payload
                self.stats["withdrawn_bytes"] += payload
            lands.sort(reverse=True)
            out[s] = (first, lands, done_ns)
        return epoch, out

    def _echo(self, s, seq: int, payload: int, echo, epoch: _Epoch) -> None:
        """A withdrawn packet's ACK reaches its held sender's congestion
        control, as ``FlowSender.on_packet`` would hand it over (the ledger
        credits the bytes)."""
        if epoch is not self.epoch or s.completed:
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
        epoch = self.epoch
        s.probe_outstanding = True
        s.flow.probes_sent += 1
        src, dst, fid = s.flow.src.node_id, s.flow.dst.node_id, s.flow.flow_id
        back = epoch._plan.fly(dst, src, fid, epoch._plan.fly(src, dst, fid, now))
        sim.call_at(back, self._probe_echo, s, now)
        if now <= epoch._opened:
            step = _QUIET_STEP_NS
            opened = epoch._decided + step * -(-(back - epoch._decided) // step)
            if opened > epoch._opened:
                shift = opened - epoch._opened
                for f in epoch._flows:
                    if f.left and f.gate_ns >= epoch._opened:
                        f.gate_ns += shift
                epoch._opened = opened

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
        epoch, windows = self._withdraw(held)
        self.epoch = epoch  # flow starts from here on are absorbed
        epoch._absorb_held(held, windows)
        self.stats["fluid_epochs"] += 1
        p = sim.probe
        if p.on:
            withdrawn = self.stats["withdrawn_packets"] - before
            p.regime(sim.now, "fluid", "quiescent", len(epoch._flows), withdrawn)

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
        self.epoch._absorb(sender)

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
            p.handoff(self.sim.now, s, "packet")
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
        epoch = self.epoch
        flows = epoch._close(now)
        survivors = [f.sender for f in flows]
        for f in flows:
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
        self.epoch = None
        self._last_exit = now
        self._back_off(reason.startswith("contention") and now - epoch._opened < _SHORT_EPOCH_NS)
        self.stats["fluid_ns"] += now - epoch._decided
        reasons = self.stats["exit_reasons"]
        reasons[reason] = reasons.get(reason, 0) + 1
        for s in survivors:
            if not s.completed:
                self._release_or_start(s)
        p = sim.probe
        if p.on:
            p.regime(now, "packet", reason, len(survivors), 0)
