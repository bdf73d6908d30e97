"""The packets a fluid entry withdraws, and where they would have gone.

The hybrid core (:mod:`repro.fluid.hybrid`) enters a fluid epoch by taking
every packet out of the fabric at once instead of running them out on the
engine.  A :class:`FlightPlan` does the taking and works out, without the
engine, what would have become of those packets: each one crosses the rest of
its path — a delivery from its heap time, a queued frame in service order
behind the frame in service — through every port as a FIFO of the frames
the plan puts on it, and a data packet is echoed at its receiver as its ACK.
The plan keeps each port's log of frames, so a probe sent while the
withdrawn packets would still be flying queues behind the ones it meets,
and it tells each held sender where the packets of its window landed.
"""

from __future__ import annotations

import bisect
import heapq
from array import array
from typing import Dict, List, Tuple

from ..sim.packet import ACK, DATA, MIN_PACKET_BYTES, PACKET_POOL, PROBE

__all__ = ["FlightPlan"]


class _Path:
    """The ports a packet crosses from one host to another, where on them a
    withdrawn packet can be, and the per-hop timing the plan reads."""

    __slots__ = ("ports", "index", "logs", "_steps")

    def __init__(self, ports, logs: Dict):
        self.ports = ports
        # the index of the port it leaves next: queued at port i, or
        # delivered to that port's peer, which forwards it on port i + 1
        self.index = {}
        for i, port in enumerate(ports):
            self.index[port] = i
            self.index[port.peer] = i + 1
        self.logs = logs
        self._steps = {}

    def steps(self, size: int) -> List[tuple]:
        """``(serialisation ns, propagation ns, reached, sent)`` per hop for
        a ``size``-byte frame: the last two are that port's log, when each
        frame reached it and when it was sent."""
        steps = self._steps.get(size)
        if steps is None:
            steps = self._steps[size] = [
                (port.tx_time_ns(size), port.prop_delay_ns, *_log(self.logs, port))
                for port in self.ports
            ]
        return steps


def _log(logs: Dict, port) -> tuple:
    """``port``'s frame log: two int arrays, in the order it sends them."""
    log = logs.get(port)
    if log is None:
        log = logs[port] = (array("q"), array("q"))
    return log


class FlightPlan:
    """Every packet of one fabric, withdrawn at one instant, timed over the
    rest of its path.

    ``pkts`` are the packets taken out, ``rx[i]`` when packet ``i``'s data
    reached its receiver and ``land[i]`` when it, or its echo, reached its
    sender; ``idle`` is when the last port finished the last frame.
    ``_landed`` releases the packets.
    """

    __slots__ = ("net", "hosts", "paths", "logs", "pkts", "rx", "land", "idle")

    def __init__(self, sim, net, fns, ports):
        """Withdraw every pending event whose callback is in ``fns`` (the
        fabric's deliveries and tx wake-ups) and empty ``ports``, then fly
        the plan."""
        self.net = net
        self.hosts = {h.node_id: h for h in net.hosts}
        self.paths: Dict = {}
        self.logs: Dict = {}
        now = sim.now
        # (time it reaches the next port, order, packet index, its path's
        # steps, that port's index)
        plan = []
        pkts = self.pkts = []
        for t, _, fn, args in sim.withdraw(fns):
            if args:
                pkt = args[0]
                path = self.path(pkt.src, pkt.dst, pkt.flow_id)
                # off its path (routes were rebuilt while it flew): it lands
                hop = path.index.get(fn.__self__, len(path.ports))
                plan.append((t, len(pkts), len(pkts), path.steps(pkt.size), hop))
                pkts.append(pkt)
            else:
                # the wake-up ends the frame in service
                reached, sent = _log(self.logs, fn.__self__)
                reached.append(now)
                sent.append(t)
        for port in ports:
            if port.busy or port.total_bytes:
                for pkt in port.withdraw():
                    path = self.path(pkt.src, pkt.dst, pkt.flow_id)
                    hop = path.index.get(port, len(path.ports))
                    plan.append((now, len(pkts), len(pkts), path.steps(pkt.size), hop))
                    pkts.append(pkt)
        self._fly_all(plan)
        self.idle = max((sent[-1] for _, sent in self.logs.values() if sent), default=now)

    def _fly_all(self, plan) -> None:
        pkts = self.pkts
        heapq.heapify(plan)
        order = len(pkts)
        rx = self.rx = {}
        land = self.land = {}
        replace = heapq.heapreplace
        while plan:
            t, _, i, steps, hop = plan[0]
            if hop == len(steps):
                pkt = pkts[i]
                if (pkt.kind == DATA or pkt.kind == PROBE) and i not in rx:
                    rx[i] = t  # echoed at once
                    back = self.path(pkt.dst, pkt.src, pkt.flow_id).steps(MIN_PACKET_BYTES)
                    replace(plan, (t, order, i, back, 0))
                    order += 1
                else:
                    land[i] = t
                    heapq.heappop(plan)
                continue
            tx, prop, reached, sent = steps[hop]
            start = t
            if sent and sent[-1] > t:
                start = sent[-1]
            reached.append(t)
            sent.append(start + tx)
            replace(plan, (start + tx + prop, order, i, steps, hop + 1))
            order += 1

    def _landed(self, sim, held) -> Tuple[int, Dict]:
        """Release every withdrawn packet (a ``withdraw`` probe event each);
        returns ``(quiet, landed)``.  ``quiet`` is when the last port goes
        idle or the last packet of a ``held`` sender lands, and
        ``landed[s][seq]`` is ``(landing ns, ns its data reached the
        receiver or None, echo)`` at the earliest landing of each of its
        packets: when its ACK would have reached the sender, with the
        ``(delay, ecn, int hops)`` that ACK hands the congestion control."""
        now = sim.now
        rx, land = self.rx, self.land
        by_id = {s.flow.flow_id: s for s in held}
        landed = {}
        quiet = self.idle  # the last port goes idle ...
        p = sim.probe
        for i, pkt in enumerate(self.pkts):
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
        return quiet, landed

    def path(self, src: int, dst: int, flow_id: int) -> _Path:
        """The path a packet of ``flow_id`` takes between two hosts (node
        ids), under the routes in force when it is first asked for."""
        key = (src, dst, flow_id)
        path = self.paths.get(key)
        if path is None:
            hosts = self.hosts
            ports = self.net.path_ports(hosts[src], hosts[dst], flow_id=flow_id)
            path = self.paths[key] = _Path(ports, self.logs)
        return path

    def fly(self, src: int, dst: int, flow_id: int, t: int) -> int:
        """When a minimum-size frame of ``flow_id`` leaving host ``src`` at
        ``t`` reaches host ``dst``, queued behind the withdrawn frames it
        meets."""
        for tx, prop, reached, sent in self.path(src, dst, flow_id).steps(MIN_PACKET_BYTES):
            i = bisect.bisect_right(reached, t)
            if i and sent[i - 1] > t:
                t = sent[i - 1]
            t += tx + prop
        return t
