"""The direct fluid credit, kept as the byte ledger's oracle.

Before each fluid flow kept a byte ledger, the driver wrote every segment's
whole packets straight into the sender and receiver with
``FlowSender.fluid_advance(payload_budget, now)``.  That method is here as
it stood at c78cbd9, as a plain function, and ``settle`` is the fluid
epoch's ``_settle`` crediting through it: the same groups settle at
the same steps (a group is due at its segment's end, at every step while it
ramps, and after a merge or split), each flow credited from its ``t_seg``,
in ``_flows`` (absorb) order.  Patched in as ``_Epoch._settle``,
``settle`` runs a fluid epoch the old way.  It moves no flow's ledger
sequence (only its remaining bytes, which the segment ends read), so the
driver's exit finds nothing to write back.  A window withdrawn at entry is
written the old way too: its packets move the acked counters as they land,
and once the last has landed ``land_window`` writes the whole window into
both endpoints, as the drain it replaced left them.  ``tests/test_fluid.py``
holds the shipped write-back to it: every survivor's sequence state must be
equal at every handoff.
"""

from __future__ import annotations


def fluid_advance(s, payload_budget: float, now: int) -> int:
    """Credit whole packets as sent-and-acked in one bulk step; returns the
    payload bytes consumed (the fractional remainder stays with the driver)."""
    a = s.next_new_seq
    n = s.n_packets
    if s.completed or a >= n:
        return 0
    last = n - 1
    b = min(last, a + int(payload_budget // s.mtu))
    consumed = (b - a) * s.mtu
    if b == last and payload_budget - consumed >= s._last_payload:
        consumed += s._last_payload
        b += 1
    if b == a:
        return 0
    ones = b"\x01" * (b - a)
    s.sent[a:b] = ones
    s.acked[a:b] = ones
    s.acked_count += b - a
    s.acked_payload += consumed
    s.next_new_seq = b
    s._cum_watch = b
    s._retx_scan = max(s._retx_scan, a)
    s._last_activity = now
    rcv = s.receiver
    rcv.received[a:b] = ones
    rcv.rx_count += b - a
    rcv.cum_seq = b
    if s.acked_count == n:
        flow = s.flow
        if flow.completion_ns is None:
            flow.completion_ns = now
            if rcv.on_complete is not None:
                rcv.on_complete(flow)
        s._finish()
    return consumed


def land_window(s, first: int, now: int) -> None:
    """The withdrawn window ``[first, next_new_seq)`` has landed: sent and
    acked at the sender, held at the receiver."""
    end = s.next_new_seq
    ones = b"\x01" * (end - first)
    s.sent[first:end] = ones
    s.acked[first:end] = ones
    s._cum_watch = end
    s._retx_scan = max(s._retx_scan, first)
    s._last_activity = now
    rcv = s.receiver
    rcv.received[first:end] = ones
    rcv.rx_count = rcv.cum_seq = end


def settle(epoch, now: int) -> None:
    """Settle every due group: deliver bytes, ramp windows, reap completions."""
    if epoch._shown:
        epoch._unshow()
    done = False
    delivered = 0
    for f in epoch._flows:
        if f.group.due > now:
            continue
        s = f.sender
        if s.completed:  # finished by a stray packet-path event
            done = True
            continue
        lands = f.lands
        if lands and lands[-1][0] <= now:
            while lands and lands[-1][0] <= now:
                s.acked_count += 1
                s.acked_payload += lands.pop()[1]
            if not lands:
                land_window(s, f.first, now)
                f.first = f.seq  # written: the exit finds nothing to write back
                if s.acked_count == s.n_packets:
                    s._last_activity = f.done_ns
                    flow = s.flow
                    if flow.completion_ns is None:
                        flow.completion_ns = f.done_ns
                        if s.receiver.on_complete is not None:
                            s.receiver.on_complete(flow)
                    s._finish()
                    epoch.stats["fluid_completions"] += 1
                    done = True
                    continue
        dt = now - f.t_seg
        f.t_seg = now
        if f.rate > 0.0:
            if s.flow.first_tx_ns is None:
                s.flow.first_tx_ns = now - dt
            f.credit += f.rate * dt
            if f.credit >= s.mtu or f.credit >= s.remaining_bytes:
                consumed = fluid_advance(s, f.credit, now)
                f.credit -= consumed
                f.left -= consumed
                delivered += consumed
                if s.completed:
                    epoch.stats["fluid_completions"] += 1
                    done = True
                    continue
        if f.cap > 0.0 and f.rate >= f.cap * 0.999 and f.cwnd < f.ceil:
            f.cwnd = min(f.cwnd + f.ramp * dt / f.sender.base_rtt, f.ceil)
    epoch.stats["fluid_bytes"] += delivered
    if done:
        live = []
        for f in epoch._flows:
            g = f.group
            if g.due <= now and f.sender.completed:
                g.flows.remove(f)
                g.split = True
            else:
                live.append(f)
        epoch._flows = live
