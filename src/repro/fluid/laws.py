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
``target_delay_ns`` for Swift) so ``cc/`` stays the single source of truth
for constants; every other scheme takes the generic law.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["law_for"]


def _target_ceiling(sender, target_delay_ns: float) -> float:
    """Window at which the standing queue would reach ``target_delay_ns``."""
    line_bpns = sender.line_rate_bps / 8e9  # bytes per ns
    ceil = target_delay_ns * line_bpns
    return max(ceil, sender.bdp_bytes, float(sender.mtu))


def law_for(sender) -> Tuple[float, float, float]:
    """``(init, ramp, ceil)`` for one sender's attached CC scheme."""
    cc = sender.cc
    mtu = float(sender.mtu)

    # PrioPlus: linear start adds w_ls/nflow per RTT; the window ceiling is
    # the point where delay would hit the channel target d_target.
    w_ls = getattr(cc, "w_ls", None)
    if w_ls is not None:
        nflow = max(float(getattr(cc, "nflow", 1.0)), 1.0)
        ramp = max(w_ls / nflow, 1.0)
        d_target = float(getattr(cc, "d_target", sender.base_rtt))
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

    # Generic fallback (DCQCN, HPCC, NoCC, ...): hold the current window
    # and let it drift one MTU per RTT up to the scheme's own max.
    ceil = float(getattr(cc, "max_cwnd", sender.bdp_bytes * 2))
    return max(float(cc.cwnd), mtu), mtu, ceil
