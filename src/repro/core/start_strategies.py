"""Flow start strategies (§4.2.2, Table 2, Figure 5) as pluggable CCs.

Three ways to take a fresh flow from zero to line rate over an uncertain
path:

* **line-rate start** — begin at one BDP immediately (RDMA convention);
* **exponential start** — begin at one MTU, double per RTT (TCP slow start);
* **linear start** — begin at ``BDP/n`` and add ``BDP/n`` per RTT
  (PrioPlus's choice, optimal by Theorem 4.1).

The :class:`StartRampCC` freezes once the ramp completes (it is a
measurement instrument, not a full CC), so the Table-2 validation
experiment can attribute buffer occupancy purely to the start phase.
"""

from __future__ import annotations

from ..cc.base import CongestionControl
from ..transport.flow import AckInfo

__all__ = ["LINE_RATE", "EXPONENTIAL", "LINEAR", "StartRampCC"]

LINE_RATE = "line_rate"
EXPONENTIAL = "exponential"
LINEAR = "linear"

_STRATEGIES = (LINE_RATE, EXPONENTIAL, LINEAR)


class StartRampCC(CongestionControl):
    """Ramp the window to one BDP following a named start strategy."""

    #: RTTs the linear ramp takes to reach one BDP
    N_RTTS = 8

    def __init__(self, strategy: str):
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown start strategy {strategy!r}")
        super().__init__()
        self.strategy = strategy
        self._rtt_end_seq = 0
        self.rtts_elapsed = 0
        self.frozen = False
        self._queue_eps_ns = 0

    def default_init_cwnd(self) -> float:
        if self.strategy == LINE_RATE:
            return max(self.bdp_bytes, self.mtu)
        if self.strategy == EXPONENTIAL:
            return float(self.mtu)
        return max(self.bdp_bytes / self.N_RTTS, self.mtu)

    def default_max_cwnd(self) -> float:
        return max(self.bdp_bytes, 4 * self.mtu)

    def configure(self) -> None:
        # "queue buildup observed": delay beyond base RTT plus a few packets
        # worth of serialisation jitter
        self._queue_eps_ns = int(4 * self.mtu * 8e9 / self.line_rate_bps)

    def on_ack(self, info: AckInfo) -> None:
        if self.frozen:
            return
        if info.delay_ns > self.base_rtt + self._queue_eps_ns:
            # the sender sees the queue it built: stop increasing (Fig 5)
            self.frozen = True
            return
        if info.seq < self._rtt_end_seq or self.cwnd >= self.max_cwnd:
            return
        # one RTT boundary passed: take the next ramp step
        self._rtt_end_seq = self.sender.snd_nxt
        self.rtts_elapsed += 1
        if self.strategy == EXPONENTIAL:
            self.cwnd *= 2
        elif self.strategy == LINEAR:
            self.cwnd += self.bdp_bytes / self.N_RTTS
        self.clamp()

    def on_timeout(self) -> None:
        """Keep the ramp deterministic for measurement purposes."""
