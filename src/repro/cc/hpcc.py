"""HPCC (Li et al., SIGCOMM 2019), simplified window-mode implementation.

Every data packet carries INT telemetry appended by each switch hop
(queue length, cumulative transmitted bytes, timestamp, link rate).  The
sender computes per-hop utilisation::

    U_j = qlen_j / (B_j * T) + txRate_j / B_j

takes the max across hops and steers it to ``ETA`` (0.95): multiplicative
adjustment by ``U/eta`` against a per-RTT reference window ``w_ref``, with up
to ``MAX_STAGE`` additive-increase-only stages when under-utilised.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..transport.flow import AckInfo
from .base import CongestionControl

__all__ = ["Hpcc"]

#: the utilisation HPCC steers to
ETA = 0.95
#: additive-increase-only stages before a multiplicative update
MAX_STAGE = 5


class Hpcc(CongestionControl):
    needs_int = True

    def __init__(self):
        super().__init__()
        self.ai_bytes = 0.0  # one MTU, resolved at attach
        self.w_ref = 0.0
        self.inc_stage = 0
        self._last_update = -(1 << 62)
        #: per-hop previous (tx_bytes, ts) for rate estimation
        self._prev: Dict[int, Tuple[int, int]] = {}
        self._u = 0.0

    def configure(self) -> None:
        self.ai_bytes = float(self.mtu)
        self.w_ref = self.cwnd

    # ------------------------------------------------------------------
    def _max_utilisation(self, hops) -> float:
        u_max = 0.0
        T = self.base_rtt
        for j, hop in enumerate(hops):
            rate_byte_per_ns = hop.rate_bps / 8e9
            prev = self._prev.get(j)
            tx_rate = 0.0
            if prev is not None:
                d_bytes = hop.tx_bytes - prev[0]
                d_ts = hop.ts - prev[1]
                if d_ts > 0:
                    tx_rate = d_bytes / d_ts  # bytes per ns
            self._prev[j] = (hop.tx_bytes, hop.ts)
            u = hop.qlen / (rate_byte_per_ns * T) + tx_rate / rate_byte_per_ns
            if u > u_max:
                u_max = u
        return u_max

    def on_ack(self, info: AckInfo) -> None:
        if not info.int_hops:
            return
        u = self._max_utilisation(info.int_hops)
        self._u = u
        per_rtt = info.now - self._last_update >= self.sender.last_rtt
        if u >= ETA or self.inc_stage >= MAX_STAGE:
            new_w = self.w_ref / (u / ETA) + self.ai_bytes
            if per_rtt:
                self.w_ref = max(new_w, self.min_cwnd)
                self.inc_stage = 0
                self._last_update = info.now
        else:
            new_w = self.w_ref + self.ai_bytes
            if per_rtt:
                self.w_ref = new_w
                self.inc_stage += 1
                self._last_update = info.now
        self.cwnd = max(new_w, self.min_cwnd)
        self.clamp()

    def on_timeout(self) -> None:
        self.cwnd *= 0.5
        self.w_ref = self.cwnd
        self.clamp()
