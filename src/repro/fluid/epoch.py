"""One fluid epoch: the flows it holds and the step loop that integrates them.

:class:`repro.fluid.hybrid.HybridDriver` makes an :class:`_Epoch` when it
withdraws the fabric's packets and drops it at the exit, so what lives one
epoch starts fresh with it.  No packet exists in the fabric meanwhile: the
epoch advances it in fluid segments, one per connected component of the
flow–link graph.  Per-flow rates come from strict-priority max-min
water-filling (:mod:`repro.fluid.model`), solved per component and only
where members or caps moved; windows ramp per the scheme's fluid law
(:mod:`repro.fluid.laws`); delivered bytes are credited as whole packets to
a per-flow byte ledger, none by rate before the epoch *opens*.  A component
is *settled* (credited, ramped, its completions reaped) only at its own
events — a completion, a gate, a merge or split — or at every step while a
window in it ramps.  A settlement moves only the senders' acked counters
(an in-simulation reader sees a steady component's as of its last one);
while a sink listens (``probe.on``) the steady components' counters are
brought up to each step too, count only.  Each flow's sequence state is
written back once (``FlowSender.fluid_advance``), at its last credited
packet or at the exit, so results read as if the packets had flown.  The
DES clock still advances through :meth:`Simulator.run`, so timers fire
normally, and a flow that *starts* during the epoch is absorbed into it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import model
from .laws import law_for

#: fluid step ceiling: no step runs the DES further (a steady group's
#: segment is not bounded by it)
_DT_MAX_NS = 50_000
#: the end of a segment nothing in it bounds (every member held at rate 0)
_NEVER = 1 << 62
#: hysteresis: don't exit a fluid epoch before this (deadline wins)
_MIN_FLUID_NS = 20_000


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


class _Epoch:
    """The flows of one fluid epoch, their groups and their integration."""

    __slots__ = (
        "sim", "net", "stats", "_link_index", "_link_caps", "_caps_fresh", "_plan", "_decided",
        "_opened", "_flows", "_groups", "_link_group", "_landing", "_unopened", "_shown",
    )

    def __init__(self, driver, plan, opened: int):
        self.sim = driver.sim
        self.net = driver.net
        self.stats = driver.stats
        # the driver's link index and capacities, shared: a port's dense
        # link id and its ``cap_memo`` outlive the epoch
        self._link_index = driver._link_index
        self._link_caps = driver._link_caps
        self._caps_fresh = driver._caps_fresh
        #: the entry's flight plan: a probe sent before the opening queues
        #: behind the withdrawn frames it meets
        self._plan = plan
        #: the quiescence decision (``fluid_ns`` counts from it), and when
        #: the first byte may be credited by rate
        self._decided = self.sim.now
        self._opened = opened
        # the live flows in absorb order, the same flows as connected
        # components (a dict used as an ordered set), and each link a live
        # flow crosses -> its group (stale entries name groups no longer in
        # _groups)
        self._flows: List[_FluidFlow] = []
        self._groups: Dict[_Group, None] = {}
        self._link_group: Dict[int, _Group] = {}
        # the held flows whose withdrawn window has not all landed, and
        # those held at entry, until the epoch opens
        self._landing: List[_FluidFlow] = []
        self._unopened: List[_FluidFlow] = []
        # (sender, packets) whose acked counters _show ran ahead of the ledger
        self._shown: List = []

    # ------------------------------------------------------------------
    # entry and exit
    # ------------------------------------------------------------------
    def _absorb_held(self, held, windows: Dict) -> None:
        """Absorb the senders held at entry, each one's withdrawn window
        (``windows[s]``: ``(first, lands, done_ns)``) landing first."""
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

    def _close(self, now: int) -> List[_FluidFlow]:
        """Settle every group on the segment it is in, a withdrawn packet
        that has not landed yet landing now; returns the live flows."""
        if self._unopened:
            self._open_held()  # the deadline came before the opening
        for g in self._groups:
            g.due = 0
        for f in self._landing:  # in flight at entry, not landed yet: it lands now
            f.lands = [(now, payload) for _, payload in f.lands]
            f.done_ns = min(f.done_ns, now)
        self._settle(now)
        return self._flows

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
        init, ramp, ceil = law_for(sender)
        cwnd = float(sender.cc.cwnd)
        fresh = _fresh(sender)
        if fresh:
            # starting inside the epoch: window comes from the fluid law
            cwnd = init
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
            min(max(cwnd, 1.0), ceil),
            ramp,
            ceil,
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
            p.handoff(now, sender, "fluid")

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
                _, f.ramp, f.ceil = law_for(s)
                f.cwnd = min(max(float(s.cc.cwnd), 1.0), f.ceil)
        self._unopened = []

    # ------------------------------------------------------------------
    # the step loop
    # ------------------------------------------------------------------
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

    def _fluid_run(self, until: int) -> bool:
        """Advance in fluid steps until ``until``, a contention the epoch
        must exit on, or a flown probe delaying its opening (the caller's
        horizon counts from the opening); returns whether it must exit."""
        sim = self.sim
        show = sim.probe.on
        opened = self._opened
        while sim.now < until and self._opened == opened:
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
            # the exit settles every group at the rates it ran at, so the
            # reopened groups' new ones are written only once the step runs
            if self._allocate(now) and now - self._opened >= _MIN_FLUID_NS:
                return True
            sim.run(until=self._open(now, min(until, now + _DT_MAX_NS)))  # may admit flows
            if sim.now <= now:
                break
            self._settle(sim.now)
            if show:
                self._show(sim.now)
        return False

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
