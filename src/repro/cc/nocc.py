"""NoCC: blind line-rate injection ("Physical w/o CC" in the paper).

The window is pinned far above any BDP so the host NIC's serialiser is the
only rate limiter.  Used as the uncontrolled baseline in Figures 11, 14
and 18 — strict physical priority with no congestion control, which hammers
the switch buffer and triggers PFC storms for lower priorities.
"""

from __future__ import annotations

from .base import CongestionControl

__all__ = ["NoCC"]

#: the window, in BDPs (or MTUs, whichever is larger)
BDP_MULTIPLE = 100.0


class NoCC(CongestionControl):
    def default_init_cwnd(self) -> float:
        return BDP_MULTIPLE * max(self.bdp_bytes, self.mtu)

    def default_max_cwnd(self) -> float:
        return self.default_init_cwnd()

    def on_timeout(self) -> None:
        """Stay at line rate — that is the point of this baseline."""
