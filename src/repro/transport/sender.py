"""Windowed, reliable flow sender.

The sender owns the congestion window supplied by a pluggable congestion
control object, per-packet ACK processing (with sender-side delay
measurement plus additive noise), pacing for sub-MTU windows, fast
retransmit via cumulative-ACK duplicates, RTO recovery, and the
probe/stop/resume hooks PrioPlus needs (§4.2.1 of the paper).

Delay normalisation: probes are 64-byte frames and therefore have a smaller
unloaded RTT than MTU data packets.  All delays handed to the CC are
normalised to *data-packet equivalents* so one set of channel thresholds
applies to both (see ``_probe_base_adjust``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.packet import DATA, HEADER_BYTES, MIN_PACKET_BYTES, PACKET_POOL, PROBE, PROBE_ACK, Packet
from .flow import AckInfo, Flow
from .receiver import Filled, FlowReceiver

__all__ = ["FlowSender", "DEFAULT_MTU"]

#: Default payload bytes per packet (the paper's footnote 5 assumes 1 KB MTU).
DEFAULT_MTU = 1000

_DUP_THRESH = 3


class FlowSender:
    """Sends one flow from its source host, driven by a CC object."""

    # slotted: a paper-scale trace holds thousands of idle senders at once;
    # a caller that needs more state subclasses (fig6_dualrtt does)
    __slots__ = (
        "sim", "net", "flow", "cc", "mtu", "noise", "on_done", "probe",
        "n_packets", "_last_payload", "ack_priority", "base_rtt",
        "_probe_base_adjust", "line_rate_bps", "bdp_bytes", "rto_ns",
        "acked_count", "acked_payload", "next_new_seq", "inflight_bytes",
        "_retx_queue", "_retx_pending", "_cum_watch", "_dup", "_retx_scan",
        "started", "stopped", "completed", "fluid_held", "last_rtt",
        "next_send_time", "_pace_ev", "_rto_ev", "_last_activity", "_probe_ev",
        "probe_outstanding", "receiver", "sent", "acked",
    )

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        flow: Flow,
        cc,
        mtu: int = DEFAULT_MTU,
        ack_priority: Optional[int] = None,
        noise=None,
        rto_ns: Optional[int] = None,
        on_done: Optional[Callable[[Flow], None]] = None,
        on_receive_done: Optional[Callable[[Flow], None]] = None,
    ):
        self.sim = sim
        self.net = net
        self.flow = flow
        self.cc = cc
        self.mtu = mtu
        self.noise = noise
        self.on_done = on_done
        self.probe = sim.probe
        if self.probe.on:
            self.probe.register("sender", self)

        self.n_packets = (flow.size_bytes + mtu - 1) // mtu
        self._last_payload = flow.size_bytes - (self.n_packets - 1) * mtu

        src, dst = flow.src, flow.dst
        if ack_priority is None:
            ack_priority = src.n_queues - 1
        self.ack_priority = ack_priority
        data_wire = mtu + HEADER_BYTES
        self.base_rtt = net.base_rtt_ns(src, dst, data_wire)
        probe_rtt = net.base_rtt_ns(src, dst, MIN_PACKET_BYTES)
        self._probe_base_adjust = self.base_rtt - probe_rtt
        self.line_rate_bps = net.bottleneck_rate_bps(src, dst)
        self.bdp_bytes = self.line_rate_bps * self.base_rtt / 8e9
        self.rto_ns = rto_ns if rto_ns is not None else max(16 * self.base_rtt, 500_000)

        # reliability state; the per-packet bitmaps (``sent``, ``acked``)
        # and the retransmit containers exist only while the flow is live
        self.acked_count = 0
        self.acked_payload = 0
        self.next_new_seq = 0
        self.inflight_bytes = 0
        self._retx_queue = self._retx_pending = ()
        self._cum_watch = 0
        self._dup = 0
        self._retx_scan = 0

        # control state
        self.started = False
        self.stopped = False
        self.completed = False
        #: parked by a fluid epoch (repro.fluid.hybrid); CC state untouched
        self.fluid_held = False
        self.last_rtt = self.base_rtt
        self.next_send_time = 0
        self._pace_ev = None
        self._rto_ev = None
        self._last_activity = 0
        self._probe_ev = None
        self.probe_outstanding = False

        # wire up endpoints
        src.senders[flow.flow_id] = self
        self.receiver = FlowReceiver(sim, flow, self.n_packets, ack_priority)
        if on_receive_done is not None:
            self.receiver.on_complete = on_receive_done
        dst.receivers[flow.flow_id] = self.receiver
        # until _start: one read-only all-0 sequence for all three bitmaps
        self.sent = self.acked = self.receiver.received

        cc.attach(self)
        sim.at(max(flow.start_ns, sim.now), self._start)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        self.started = True
        self._open()
        fd = self.sim.fluid_driver
        if fd is not None and fd.absorbing:
            # the fabric is in a fluid epoch: this flow is carried by the
            # fluid model until the next packet handoff
            fd.admit(self)
            return
        p = self.probe
        if p.on:
            p.flow_state(self.sim.now, self.flow.flow_id, "running", self)
        self.cc.on_start()
        self.try_send()

    def _finish(self) -> None:
        self.completed = True
        self.flow.sender_done_ns = self.sim.now
        p = self.probe
        if p.on:
            p.flow_state(self.sim.now, self.flow.flow_id, "done", self)
        for ev_name in ("_pace_ev", "_rto_ev", "_probe_ev"):
            ev = getattr(self, ev_name)
            if ev is not None:
                ev.cancel()
                setattr(self, ev_name, None)
        # every packet is acked: one read-only all-1 sequence stands in for
        # the three bitmaps, and the retransmit containers go
        self.sent = self.acked = self.receiver.received = Filled(self.n_packets, 1)
        self._retx_queue = self._retx_pending = ()
        if self.on_done is not None:
            self.on_done(self.flow)

    def _open(self) -> None:
        """Allocate the flow's bitmaps: at ``_start``, or at a write-back
        that comes before it."""
        if self.sent.__class__ is Filled:
            self.sent = bytearray(self.n_packets)
            self.acked = bytearray(self.n_packets)
        self.receiver.open_bitmap()

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def payload_of(self, seq: int) -> int:
        return self._last_payload if seq == self.n_packets - 1 else self.mtu

    def _peek_next_seq(self) -> Optional[int]:
        while self._retx_queue:
            seq = self._retx_queue[0]
            if self.acked[seq]:
                self._retx_queue.popleft()
                self._retx_pending.discard(seq)
                continue
            return seq
        if self.next_new_seq < self.n_packets:
            return self.next_new_seq
        return None

    def try_send(self) -> None:
        """Send as much as window/pacing allow right now."""
        if self.stopped or self.completed or self.fluid_held:
            return
        sim = self.sim
        while True:
            seq = self._peek_next_seq()
            if seq is None:
                return
            payload = self.payload_of(seq)
            cwnd = self.cc.cwnd
            if cwnd >= self.mtu:
                if self.inflight_bytes + payload > cwnd:
                    return
            else:
                # sub-MTU window: at most one packet in flight, rate-paced
                if self.inflight_bytes > 0:
                    return
                if sim.now < self.next_send_time:
                    self._arm_pace(self.next_send_time)
                    return
            self._send_seq(seq)
            if cwnd < self.mtu:
                gap = int(self.last_rtt * self.mtu / max(cwnd, 1.0))
                self.next_send_time = sim.now + gap

    def _send_seq(self, seq: int) -> None:
        if self._retx_queue and self._retx_queue[0] == seq:
            self._retx_queue.popleft()
            self._retx_pending.discard(seq)
            self.flow.retransmits += 1
        else:
            self.next_new_seq = seq + 1
        payload = self.payload_of(seq)
        pkt = PACKET_POOL.acquire(
            DATA,
            payload + HEADER_BYTES,
            src=self.flow.src.node_id,
            dst=self.flow.dst.node_id,
            flow_id=self.flow.flow_id,
            seq=seq,
            priority=self.flow.priority,
            payload=payload,
            send_ts=self.sim.now,
        )
        pkt.local_prio = self.flow.src.local_data_queue(self.flow.vpriority)
        if getattr(self.cc, "needs_int", False):
            pkt.int_hops = []
        if not self.sent[seq]:
            self.sent[seq] = 1
            self.inflight_bytes += payload
        if self.flow.first_tx_ns is None:
            self.flow.first_tx_ns = self.sim.now
        p = self.probe
        if p.on:
            p.pkt_sent(self.sim.now, pkt)
        self.flow.src.send(pkt)
        self._arm_rto()

    def _arm_pace(self, when: int) -> None:
        if self._pace_ev is not None:
            self._pace_ev.cancel()
        self._pace_ev = self.sim.at(when, self._pace_fire)

    def _pace_fire(self) -> None:
        self._pace_ev = None
        self.try_send()

    # ------------------------------------------------------------------
    # receiving ACKs / probe echoes
    # ------------------------------------------------------------------
    def on_packet(self, pkt: Packet) -> None:
        if self.completed:
            return
        raw_delay = self.sim.now - pkt.echo_ts
        if pkt.kind == PROBE_ACK:
            delay = raw_delay + self._probe_base_adjust
        else:
            delay = raw_delay
        if self.noise is not None:
            delay += self.noise.sample(self.sim.rng)
        self.last_rtt = delay

        if pkt.kind == PROBE_ACK:
            self.probe_outstanding = False
            self._disarm_rto_if_idle()
            info = AckInfo(self.sim.now, delay, pkt.ecn_echo, 0, pkt.seq, pkt.int_hops, is_probe=True)
            self.cc.on_probe_ack(info)
            p = self.probe
            if p.on:
                p.ack(self.sim.now, self, 0, delay, True)
            return

        seq = pkt.seq
        newly = 0
        if not self.acked[seq]:
            self.acked[seq] = 1
            self.acked_count += 1
            newly = self.payload_of(seq)
            if self.sent[seq]:
                # a packet presumed lost at RTO (sent flag cleared, window
                # already released) may still be delivered; don't deduct twice
                self.inflight_bytes -= newly
            self.acked_payload += newly
        self._fast_retx_check(pkt)
        info = AckInfo(
            self.sim.now, delay, pkt.ecn_echo, newly, seq, pkt.int_hops, cum_seq=pkt.ack_seq
        )
        self.cc.on_ack(info)
        if self.acked_count == self.n_packets:
            self._finish()
        else:
            self._arm_rto()
            self.try_send()
        # after the sends this ACK released: window accounting is reconciled
        # against the post-send state, and the CC window is already final
        p = self.probe
        if p.on:
            p.ack(self.sim.now, self, newly, delay, False)

    def _fast_retx_check(self, pkt: Packet) -> None:
        cum = pkt.ack_seq
        if cum > self._cum_watch:
            self._cum_watch = cum
            self._dup = 0
            return
        if (
            cum == self._cum_watch
            and pkt.seq > cum
            and cum < self.n_packets
            and self.sent[cum]
            and not self.acked[cum]
        ):
            self._dup += 1
            if self._dup == _DUP_THRESH:
                self._queue_retx(cum)

    def _queue_retx(self, seq: int) -> None:
        if seq in self._retx_pending or self.acked[seq]:
            return
        if self._retx_pending.__class__ is tuple:  # the flow's first retransmit
            self._retx_queue = deque()
            self._retx_pending = set()
        self._retx_pending.add(seq)
        self._retx_queue.append(seq)

    # ------------------------------------------------------------------
    # RTO (lazy re-arm: the timer fires, checks recent activity, and only
    # acts when the flow has really been silent for a full RTO — this avoids
    # a cancel+reschedule pair of heap operations on every ACK)
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        self._last_activity = self.sim.now
        if self._rto_ev is None:
            self._rto_ev = self.sim.after(self.rto_ns, self._on_rto)

    def _disarm_rto_if_idle(self) -> None:
        # a queued retransmit with zero inflight still needs the timer: with
        # it disarmed the retx would sit until unrelated traffic kicked
        # try_send, stalling the flow (see tests/test_audit.py)
        if (
            self.inflight_bytes == 0
            and not self.probe_outstanding
            and not self._retx_queue
            and self._rto_ev is not None
        ):
            self._rto_ev.cancel()
            self._rto_ev = None

    def _on_rto(self) -> None:
        self._rto_ev = None
        if self.completed:
            return
        if self.fluid_held:
            # parked for a fluid epoch: the fluid model is delivering our
            # bytes (it refreshes _last_activity); check back in an RTO
            self._rto_ev = self.sim.after(self.rto_ns, self._on_rto)
            return
        since = self.sim.now - self._last_activity
        if since < self.rto_ns:
            self._rto_ev = self.sim.after(self.rto_ns - since, self._on_rto)
            return
        if self.probe_outstanding:
            # the probe died on the wire; resend it, but don't let it shadow
            # data-loss recovery below — a blackhole that ate the probe ate
            # the in-flight data too, and waiting another full RTO to notice
            # doubles the outage
            self.probe_outstanding = False
            self._send_probe()
            if self.inflight_bytes == 0:
                return
        if self.inflight_bytes == 0 and not self.stopped:
            # nothing outstanding: just resume sending
            self.try_send()
            return
        # retransmit the lowest sent-but-unacked packet
        while self._retx_scan < self.n_packets and self.acked[self._retx_scan]:
            self._retx_scan += 1
        if self._retx_scan < self.n_packets and self.sent[self._retx_scan]:
            self.cc.on_timeout()
            # go-back-N: a full RTO of silence means the pipe is dead, so
            # everything sent-but-unacked is presumed lost.  Release the
            # window those bytes were holding and queue them all — otherwise
            # each lost packet would cost its own RTO (one retransmit per
            # timeout with the rest still pinning cwnd), turning a short
            # blackhole into milliseconds of head-of-line stall.
            for seq in range(self._retx_scan, self.next_new_seq):
                if self.sent[seq] and not self.acked[seq]:
                    self.sent[seq] = 0
                    self.inflight_bytes -= self.payload_of(seq)
                    self._queue_retx(seq)
            if not self.stopped:
                self._send_seq_force(self._retx_scan)
                self.try_send()
        self._arm_rto()
        p = self.probe
        if p.on:
            p.rto(self.sim.now, self)

    def _send_seq_force(self, seq: int) -> None:
        """Retransmit immediately, bypassing the window check."""
        if self._retx_queue and seq in self._retx_pending:
            # move it to the front so _send_seq pops it
            if self._retx_queue[0] != seq:
                self._retx_queue.remove(seq)
                self._retx_queue.appendleft(seq)
            self._send_seq(seq)

    # ------------------------------------------------------------------
    # fluid fast-path hooks (repro.fluid.hybrid)
    # ------------------------------------------------------------------
    def fluid_hold(self) -> None:
        """Park the sender for a fluid epoch.

        Unlike :meth:`stop_sending` this does not represent a CC decision:
        window and PrioPlus state are left untouched.  The driver then
        withdraws the packets in flight and credits them to its ledger as
        they would have landed, taking them off ``inflight_bytes``.
        """
        self.fluid_held = True
        if self._pace_ev is not None:
            self._pace_ev.cancel()
            self._pace_ev = None

    def fluid_release(self) -> None:
        """Resume packet-mode sending at a fluid→packet handoff."""
        self.fluid_held = False
        if not self.completed and not self.stopped:
            self.try_send()

    def fluid_advance(self, first: int, end: int, scan: int, now: int) -> None:
        """Write back one fluid epoch's delivery: packets ``[first, end)``
        sent and acked.

        Called by the fluid driver once per flow per epoch, at the flow's
        completion or at the epoch's exit, while the network is empty and
        this sender is held: every packet below ``first`` is acked, so
        delivery is a contiguous slice extension on both endpoints (the
        receiver may already hold some of the slice: the data of a packet
        whose ACK was withdrawn in flight).  The driver kept ``acked_count``
        / ``acked_payload`` current settlement by settlement; ``scan`` is
        the packet its last crediting settlement began at and ``now`` that
        settlement's time, or when the receiver would have held the flow's
        last withdrawn packet.  Handles flow completion exactly like the
        packet path (receiver completion callback first, then sender
        finish).
        """
        if self.completed:
            raise AssertionError(f"flow {self.flow.flow_id}: fluid write-back to a completed sender")
        self._open()
        ones = b"\x01" * (end - first)
        self.sent[first:end] = ones
        self.acked[first:end] = ones
        self.next_new_seq = self._cum_watch = end
        self._retx_scan = max(self._retx_scan, scan)
        self._last_activity = now
        rcv = self.receiver
        rcv.received[first:end] = ones
        rcv.rx_count = rcv.cum_seq = end
        if self.acked_count != end:
            raise AssertionError(
                f"flow {self.flow.flow_id}: {self.acked_count} packets acked, fluid ledger ends at {end}"
            )
        if end == self.n_packets:
            flow = self.flow
            if flow.completion_ns is None:
                flow.completion_ns = now
                if rcv.on_complete is not None:
                    rcv.on_complete(flow)
            self._finish()

    # ------------------------------------------------------------------
    # PrioPlus hooks
    # ------------------------------------------------------------------
    def stop_sending(self) -> None:
        """Halt data transmission (in-flight packets keep draining)."""
        self.stopped = True
        if self._pace_ev is not None:
            self._pace_ev.cancel()
            self._pace_ev = None

    def resume_sending(self) -> None:
        self.stopped = False
        if not self.completed:
            self.try_send()

    def send_probe_after(self, delay_ns: int) -> None:
        """Schedule a single probe packet (replacing any pending one)."""
        if self._probe_ev is not None:
            self._probe_ev.cancel()
        self._probe_ev = self.sim.after(max(0, int(delay_ns)), self._send_probe)

    def _send_probe(self) -> None:
        self._probe_ev = None
        if self.completed:
            return
        if self.fluid_held:
            # parked for a fluid epoch: the fabric carries no packet
            self.sim.fluid_driver.fly_probe(self)
            self._arm_rto()
            return
        pkt = PACKET_POOL.acquire(
            PROBE,
            MIN_PACKET_BYTES,
            src=self.flow.src.node_id,
            dst=self.flow.dst.node_id,
            flow_id=self.flow.flow_id,
            seq=0,
            priority=self.flow.priority,
            send_ts=self.sim.now,
        )
        pkt.local_prio = self.flow.src.local_data_queue(self.flow.vpriority)
        self.probe_outstanding = True
        self.flow.probes_sent += 1
        p = self.probe
        if p.on:
            p.pkt_sent(self.sim.now, pkt)
        self.flow.src.send(pkt)
        self._arm_rto()

    # ------------------------------------------------------------------
    @property
    def snd_nxt(self) -> int:
        """Next new packet index (Algorithm 1's sndNxt, packet-granular)."""
        return self.next_new_seq

    @property
    def remaining_bytes(self) -> int:
        return self.flow.size_bytes - self.acked_payload
