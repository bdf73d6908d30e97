"""Hybrid fluid/packet simulation driver.

The :class:`HybridDriver` wraps the packet-level DES and alternates two
regimes per epoch:

**packet** — the simulator runs exactly as without the driver.  After a
fluid exit it runs straight through the hysteresis floor in force.  The
floor is short (``_MIN_PACKET_NS``) and backs off: a contention exit from an
epoch shorter than ``_SHORT_EPOCH_NS``, or a drain failure, doubles it up to
``_MAX_PACKET_NS``, so persistent contention is not re-entered every few
tens of µs; any other exit resets it.  Past the floor the phase is stepped
on the ``_DRAIN_STEP_NS`` grid and the *quiescence predicate* is evaluated
after every step: fabric backlog below a threshold, no PFC pause asserted,
and no flow inside a PrioPlus transition window (stopped / probe
outstanding / ``consec > 0``) or loss recovery.  A packet phase therefore lasts as long as the fabric is busy,
not until a polling boundary.

**drain → fluid** — when the predicate holds, every active sender is
parked (``fluid_hold``, window state untouched) and the DES runs on until
the last in-flight packet and ACK has landed.  From that point *no packet
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

**handoff** — on exit (contention, deadline, or drain failure) each
surviving flow's ledger is written back, its congestion window is
re-synchronised to its fluid state (``cc.fluid_sync``), capped near
``rate × base_rtt`` for network-limited flows so the resumed DES does not
burst, and the senders are released.  Re-materialised packet state is
exact by construction: in fluid mode the network is empty, so the only
state to restore is sequence/window state, which the write-back sets to
what direct credit at every settlement would have left.

Error envelope (documented in docs/PERFORMANCE.md): fluid epochs model
steady-state scheduling but approximate away standing-queue delay and
O(RTT) transition dynamics.  The driver falls back to packets only when
flows of different ranks meet on a saturated link (``contention:priority``);
same-rank sharing stays fluid.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import model
from .laws import law_for

__all__ = ["FluidConfig", "HybridDriver"]

_PACKET = "packet"
_DRAIN = "drain"
_FLUID = "fluid"

#: fluid step ceiling: no step runs the DES further (a steady group's
#: segment is not bounded by it)
_DT_MAX_NS = 50_000
#: the end of a segment nothing in it bounds (every member held at rate 0)
_NEVER = 1 << 62
#: give up draining after this many times the slowest held sender's base
#: RTT plus the slack (the quiescence predicate lied, e.g. an RTO in flight)
_DRAIN_TIMEOUT_RTTS = 6
_DRAIN_TIMEOUT_SLACK_NS = 20_000
#: the one packet-side step: DES chunk between "quiet?" checks in a packet
#: phase and between "drained?" checks while draining
_DRAIN_STEP_NS = 5_000
#: hysteresis: after a fluid exit stay in packet mode at least the floor in
#: force (``HybridDriver._floor_ns``), which starts and resets at this base
_MIN_PACKET_NS = 15_000
#: a contention exit (or drain failure) from an epoch shorter than this
#: doubles the next floor: the contention outlived the last one
_SHORT_EPOCH_NS = 100_000
#: the floor backs off no further than this
_MAX_PACKET_NS = 800_000
#: hysteresis: don't exit a fluid epoch before this (deadline wins)
_MIN_FLUID_NS = 20_000
#: a link loaded past this share of its capacity counts as saturated
_SAT_THRESHOLD = 0.98
#: contention labels, least to most severe: a segment reads its worst group's
_SEVERITY = {"none": 0, "single": 1, "shared": 2, "priority": 3}


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
    sender's sequence state catches up once (``FlowSender.fluid_advance``)."""

    __slots__ = (
        "sender", "links", "rank", "cwnd", "ramp", "ceil", "rtt", "credit", "rate", "cap",
        "gate_ns", "group", "seq", "first", "scan", "t_adv", "left", "t_seg",
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


class _Group:
    """Live flows forming one connected component of the flow–link graph,
    in ``_flows`` (absorb) order, the allocation last solved for them, and
    when their open segment is next settled."""

    __slots__ = ("flows", "caps", "rates", "label", "split", "due")

    def __init__(self, flows: List[_FluidFlow]):
        self.flows = flows
        self.caps: Optional[List[float]] = None  # None: solve at the next segment
        self.rates: List[float] = []
        self.label = "none"
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
        # persistent link index: Port -> dense link id (grows across epochs)
        self._link_index = {}
        self._link_caps: List[float] = []
        # fluid-epoch state: the live flows in absorb order, the same flows
        # as connected components (a dict used as an ordered set), and each
        # link a live flow crosses -> its group (stale entries name groups
        # no longer in _groups)
        self._flows: List[_FluidFlow] = []
        self._groups: Dict[_Group, None] = {}
        self._link_group: Dict[int, _Group] = {}
        # (sender, packets) whose acked counters _show ran ahead of the ledger
        self._shown: List = []
        # senders parked by the drain in progress, then those admitted
        # during it, in that order
        self._held: List = []
        self._fluid_entered = 0
        self._last_exit = -(1 << 62)
        self._floor_ns = _MIN_PACKET_NS  # the packet-phase floor in force
        self.stats = {
            "fluid_epochs": 0,
            "fluid_ns": 0,
            "fluid_bytes": 0,
            "fluid_completions": 0,
            "admitted_in_fluid": 0,
            "drain_failures": 0,
            "exit_reasons": {},
            "handoff_fresh_starts": 0,
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
                # run straight to it; past it, ask on the drain grid — resumed
                # flows are back at line rate, the expensive way to wait
                floor = self._last_exit + self._floor_ns
                until = floor if sim.now < floor else sim.now + _DRAIN_STEP_NS
                sim.run(until=min(until, hard_deadline_ns))
                if sim.now >= hard_deadline_ns or done():
                    break
                if self._quiescent():
                    self._try_enter_fluid()
            else:
                self._fluid_run(min(sim.now + cfg.check_every_ns, hard_deadline_ns))
        if self.phase != _PACKET:
            self._exit_fluid("deadline")
        return done()

    def run(self, until: int) -> None:
        """Advance the hybrid simulation to ``until`` (no flow-set to watch)."""
        self.run_until_done(lambda: False, until)

    # ------------------------------------------------------------------
    # quiescence predicate + drain
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

    def _drained(self, held) -> bool:
        for s in held:
            if not s.completed and (s.inflight_bytes or s.probe_outstanding or s._retx_queue):
                return False
        for port in self._ports:
            if port.total_bytes or port.busy:
                return False
        return True

    def _try_enter_fluid(self) -> bool:
        sim = self.sim
        held = self._active_senders()
        self.phase = _DRAIN  # flow starts from here on are absorbed
        self._held = held
        for s in held:
            s.fluid_hold()
        max_rtt = max((s.base_rtt for s in held), default=10_000)
        deadline = sim.now + _DRAIN_TIMEOUT_RTTS * max_rtt + _DRAIN_TIMEOUT_SLACK_NS
        while not self._drained(held):
            if sim.now >= deadline:
                # predicate lied (e.g. a long RTO in flight): back out
                self.phase = _PACKET
                for s in held:
                    if not s.completed:
                        self._release_or_start(s)
                self._held = []
                self.stats["drain_failures"] += 1
                self._last_exit = sim.now
                self._back_off(True)
                return False
            sim.run(until=min(sim.now + _DRAIN_STEP_NS, deadline))
        self._enter_fluid(held)
        return True

    # ------------------------------------------------------------------
    # fluid epoch
    # ------------------------------------------------------------------
    def _link_id(self, port) -> int:
        idx = self._link_index.get(port)
        if idx is None:
            idx = self._link_index[port] = len(self._link_caps)
            self._link_caps.append(port.rate_bps / 8e9)  # bytes per ns
        return idx

    def _absorb(self, sender) -> None:
        law = law_for(sender)
        cwnd = float(sender.cc.cwnd)
        fresh = sender.flow.first_tx_ns is None and sender.acked_payload == 0
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
        if fresh:
            # pipe-fill delay: at packet level the first window spends one
            # one-way delay in flight before any byte lands at the receiver,
            # so delivery (and therefore completion) starts ~RTT/2 late
            flow.gate_ns = self.sim.now + sender.base_rtt // 2
        flow.t_seg = self.sim.now
        self._flows.append(flow)
        self._join(flow)

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

    def _enter_fluid(self, held) -> None:
        sim = self.sim
        self.phase = _FLUID
        self._fluid_entered = sim.now
        self._flows = []
        self._groups = {}
        self._link_group = {}
        for s in held:
            if not s.completed:
                self._absorb(s)
        self._held = []
        self.stats["fluid_epochs"] += 1
        p = sim.probe
        if p.on:
            p.regime(sim.now, "fluid", "quiescent", len(self._flows))

    def admit(self, sender) -> None:
        """A flow started while the fabric is drained/fluid: absorb it.

        Called from ``FlowSender._start`` via the ``sim.fluid_driver`` hook
        instead of the packet-mode start path.
        """
        sim = self.sim
        p = sender.probe
        if p.on:
            p.flow_state(sim.now, sender.flow.flow_id, "running", sender)
        sender.fluid_held = True
        self.stats["admitted_in_fluid"] += 1
        if self.phase == _FLUID:
            self._absorb(sender)
        else:
            self._held.append(sender)

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

    def _allocate(self, now: int) -> str:
        """Solve each group settled at ``now`` whose members or caps changed;
        returns the step's contention label, the most severe of the groups'.

        Max-min filling never moves capacity between components, so every
        group's ``rates`` equal a solve of all live flows at once, bit for bit
        (docs/PERFORMANCE.md, "One solve per component").
        """
        groups, link_caps = self._groups, self._link_caps
        for g in [g for g in groups if g.split]:
            self._split(g)
        worst = "none"
        for g in groups:
            # a group in mid-segment holds its members and caps, so its
            # allocation and label stand
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
                    g.label = model.classify_contention(
                        rates, caps, ranks, paths, link_caps, load, _SAT_THRESHOLD
                    )
                    g.caps, g.rates = caps, rates
            if _SEVERITY[g.label] > _SEVERITY[worst]:
                worst = g.label
        return worst

    def _fluid_run(self, until: int) -> None:
        """Advance in fluid steps until ``until`` or a regime exit."""
        sim = self.sim
        show = sim.probe.on
        while self.phase == _FLUID and sim.now < until:
            now = sim.now
            if not self._flows:
                # empty fabric: no rates to solve.  Step to the next event
                # (not to the horizon!) so a flow start that admits into the
                # epoch resumes fluid integration immediately instead of
                # sitting frozen until the caller's next check boundary.
                nxt = sim.peek_time()
                sim.run(until=until if nxt is None or nxt >= until else nxt)
                continue
            contention = self._allocate(now)
            # the exit settles every group at the rates it ran at, so the
            # reopened groups' new ones are written only once the step runs
            if contention == "priority" and now - self._fluid_entered >= _MIN_FLUID_NS:
                self._exit_fluid("contention:" + contention)
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
        counters move.  A flow whose last packet is credited is written back
        and completes here; flows finishing at one instant complete in
        ``_flows`` (absorb) order."""
        if self._shown:
            self._unshow()
        done = []
        reaped = False
        delivered = 0
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
                            if b > last:
                                done.append(f)
                                continue
                    f.credit = credit
                # window ramp: only cap-limited flows grow (a network-limited
                # flow would be sitting at its scheme's delay target instead);
                # gated flows (cap forced to 0) hold their window too
                if f.cap > 0.0 and f.rate >= f.cap * 0.999 and f.cwnd < f.ceil:
                    f.cwnd = min(f.cwnd + f.ramp * dt / f.rtt, f.ceil)
        self.stats["fluid_bytes"] += delivered
        if done or reaped:
            if len(done) > 1:
                done.sort(key=self._flows.index)
            for f in done:
                f.sender.fluid_advance(f.first, f.seq, f.scan, now)
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
        if s.flow.first_tx_ns is None and s.acked_payload == 0:
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
        epoch_ns = now - self._fluid_entered
        for g in self._groups:
            g.due = 0  # every group settles on the segment it is in
        self._settle(now)
        survivors = [f.sender for f in self._flows]
        for f in self._flows:
            s = f.sender
            if s.completed:
                continue
            if f.seq > f.first:
                s.fluid_advance(f.first, f.seq, f.scan, f.t_adv)
            if s.flow.first_tx_ns is None and s.acked_payload == 0:
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
        self._last_exit = now
        self._back_off(reason.startswith("contention") and epoch_ns < _SHORT_EPOCH_NS)
        self.stats["fluid_ns"] += epoch_ns
        reasons = self.stats["exit_reasons"]
        reasons[reason] = reasons.get(reason, 0) + 1
        for s in survivors:
            if not s.completed:
                self._release_or_start(s)
        p = sim.probe
        if p.on:
            p.regime(now, "packet", reason, len(survivors))
