"""Per-scheme fluid rate laws.

Inside a fluid epoch the allocation is capacity-feasible, so queues are
empty and every scheme sits in its *additive-increase* region (no ECN
marks, delay pinned at the base RTT, never above any target).  Each CC
scheme therefore reduces to three numbers per flow:

``init``
    window at admission (for flows that *start* inside a fluid epoch);
``ramp``
    window growth in bytes per RTT while uncongested;
``ceil``
    window ceiling — where the real control loop would stop growing
    because the standing queue reaches the scheme's delay target
    (≈ ``target_delay × line_rate``).

The laws are duck-typed off attributes the schemes already expose
(``w_ls``/``nflow``/``d_target`` for PrioPlus, ``ai_bytes``/
``target_delay_ns`` for Swift, ``ai_bytes``/``update_interval_ns`` for
DCQCN) so ``cc/`` stays the single source of truth for constants.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["FluidLaw", "law_for"]


class FluidLaw:
    """Resolved fluid-mode window dynamics for one attached sender."""

    __slots__ = ("init", "ramp", "ceil")

    def __init__(self, init: float, ramp: float, ceil: float):
        self.init = init
        self.ramp = ramp
        self.ceil = ceil

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FluidLaw(init={self.init:.0f}, ramp={self.ramp:.0f}, ceil={self.ceil:.0f})"


def _target_ceiling(sender, target_delay_ns: float) -> float:
    """Window at which the standing queue would reach ``target_delay_ns``."""
    line_bpns = sender.line_rate_bps / 8e9  # bytes per ns
    ceil = target_delay_ns * line_bpns
    return max(ceil, sender.bdp_bytes, float(sender.mtu))


def _ramp_and_targets(sender) -> Tuple[float, float, float]:
    cc = sender.cc
    mtu = float(sender.mtu)
    base_rtt = float(sender.base_rtt)

    # PrioPlus: linear start adds w_ls/nflow per RTT; the window ceiling is
    # the point where delay would hit the channel target d_target.
    w_ls = getattr(cc, "w_ls", None)
    if w_ls is not None:
        nflow = max(float(getattr(cc, "nflow", 1.0)), 1.0)
        ramp = max(w_ls / nflow, 1.0)
        d_target = float(getattr(cc, "d_target", base_rtt))
        if getattr(cc, "probe_first", False):
            init = max(w_ls / nflow, float(getattr(cc, "min_cwnd", mtu)))
        else:
            init = max(float(w_ls), float(getattr(cc, "min_cwnd", mtu)))
        return init, ramp, _target_ceiling(sender, d_target)

    # Swift: ai_bytes per RTT below target = base_rtt + base_target.
    target = getattr(cc, "target_delay_ns", None)
    ai = getattr(cc, "ai_bytes", None)
    if target is not None and ai is not None:
        return max(float(cc.cwnd), mtu), float(ai), _target_ceiling(sender, float(target))

    # DCQCN (windowed): fast recovery then AI per update interval; in an
    # unmarked fluid epoch the average slope is ~ai_bytes per interval.
    interval = getattr(cc, "update_interval_ns", None)
    if interval is not None and ai is not None:
        ramp = float(ai) * base_rtt / max(float(interval), 1.0)
        # ECN-based: the ceiling is where marking would begin, i.e. a small
        # queue above one BDP — approximate with 1.5 RTTs worth of data
        return max(float(cc.cwnd), mtu), max(ramp, 1.0), _target_ceiling(sender, 1.5 * base_rtt)

    # Generic fallback (HPCC, NoCC, ...): hold the current window
    # and let it drift one MTU per RTT up to the scheme's own max.
    ceil = float(getattr(cc, "max_cwnd", sender.bdp_bytes * 2))
    return max(float(cc.cwnd), mtu), mtu, ceil


def law_for(sender) -> FluidLaw:
    """Resolve the fluid law for one sender's attached CC scheme."""
    init, ramp, ceil = _ramp_and_targets(sender)
    return FluidLaw(init, ramp, ceil)
