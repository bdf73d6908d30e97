"""PrioPlus: the paper's Algorithm 1 as a CC wrapper.

``PrioPlusCC`` wraps any delay-based CC that exposes ``target_delay_ns``
(set through ``pin_target``, which the ``CongestionControl`` base provides),
``ai_bytes`` and ``set_target_scaling`` (Swift and LEDBAT here).  The wrapper
implements the full state machine:

* **Relinquish + probe with collision avoidance** (§4.2.1): after two
  consecutive delay samples ≥ ``D_limit`` (the noise *filter mechanism*,
  §4.3.1) the flow stops sending and probes after
  ``(delay - D_target) + random(BaseRtt)``.
* **Linear start** (§4.2.2): on an empty path, grow by ``W_LS / #flow`` per
  RTT instead of line-rate or exponential start.
* **Dual-RTT adaptive increase** (§4.2.3): when only lower priorities are
  transmitting (base RTT < delay ≤ D_target), raise the delay to ``D_target``
  in one shot by widening the wrapped CC's AI step — but only every *two*
  RTTs, because the effect of an increase is observable exactly two RTTs
  later (Fig. 6).
* **Delay-based flow-cardinality estimation** (§4.3.1): on relinquish,
  ``#flow = max(#flow, delay·LineRate / cwnd)``; ``W_AI`` and ``W_LS`` are
  divided by ``#flow``; a countdown halves ``#flow`` when the path stays
  empty long enough for the estimate to be proven stale.

Ablation switches (``dual_rtt``, ``cardinality_estimation``,
``collision_avoidance``) reproduce the paper's design-choice experiments
(Figs 9, 10c).
"""

from __future__ import annotations

from typing import Optional

from ..probe import INERT
from ..transport.flow import AckInfo
from .channels import ChannelConfig

__all__ = ["PrioPlusCC", "StartTier", "W_LS_FRACTION"]


class StartTier:
    """Recommended W_LS fractions of base BDP per traffic class (§4.4)."""

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


#: §4.4: W_LS = BaseBdp for high, 0.25·BaseBdp for medium, 0.125·BaseBdp for low.
W_LS_FRACTION = {
    StartTier.HIGH: 1.0,
    StartTier.MEDIUM: 0.25,
    StartTier.LOW: 0.125,
}


class PrioPlusCC:
    """Virtual-priority enhancement wrapped around a delay-based CC."""

    needs_int = False

    __slots__ = (
        "inner",
        "channels",
        "vpriority",
        "tier",
        "_w_ls_cfg",
        "probe_first",
        "filter_consecutive",
        "dual_rtt",
        "cardinality_estimation",
        "collision_avoidance",
        "_empty_eps_cfg",
        "sender",
        "d_target",
        "d_limit",
        "base_rtt",
        "empty_eps",
        "w_ls",
        "w_ai_origin",
        "base_bdp",
        "_line_rate_bpns",
        "nflow",
        "consec",
        "countdown",
        "rtt_end_seq",
        "rtt_pass",
        "dual_rtt_pass",
        "relinquish_count",
        "linear_start_steps",
        "adaptive_increases",
        "_probe",
    )

    def __init__(
        self,
        inner,
        channels: ChannelConfig,
        vpriority: int,
        tier: str = StartTier.MEDIUM,
        w_ls_bytes: Optional[float] = None,
        probe_first: Optional[bool] = None,
        filter_consecutive: int = 2,
        dual_rtt: bool = True,
        cardinality_estimation: bool = True,
        collision_avoidance: bool = True,
        empty_eps_ns: Optional[int] = None,
    ):
        if vpriority < 1:
            raise ValueError("virtual priorities are 1-based (larger = higher)")
        self.inner = inner
        self.channels = channels
        self.vpriority = vpriority
        self.tier = tier
        self._w_ls_cfg = w_ls_bytes
        #: high-priority / latency-sensitive flows skip the initial probe (§4.4)
        self.probe_first = probe_first if probe_first is not None else tier != StartTier.HIGH
        self.filter_consecutive = filter_consecutive
        self.dual_rtt = dual_rtt
        self.cardinality_estimation = cardinality_estimation
        self.collision_avoidance = collision_avoidance
        self._empty_eps_cfg = empty_eps_ns

        # resolved at attach
        self.sender = None
        self.d_target = 0
        self.d_limit = 0
        self.base_rtt = 0
        self.empty_eps = 0
        self.w_ls = 0.0
        self.w_ai_origin = 0.0
        self.base_bdp = 0.0
        self._line_rate_bpns = 0.0  # bytes per ns

        # Algorithm 1 state
        self.nflow = 1.0
        self.consec = 0
        self.countdown = 0
        self.rtt_end_seq = 0
        self.rtt_pass = False
        self.dual_rtt_pass = False
        self.relinquish_count = 0
        self.linear_start_steps = 0
        self.adaptive_increases = 0
        self._probe = INERT

    # ------------------------------------------------------------------
    # window delegation: the sender reads PrioPlusCC.cwnd
    # ------------------------------------------------------------------
    @property
    def cwnd(self) -> float:
        return self.inner.cwnd

    # ------------------------------------------------------------------
    def attach(self, sender) -> None:
        self.sender = sender
        self.inner.attach(sender)
        self.base_rtt = sender.base_rtt
        self.base_bdp = sender.bdp_bytes
        self._line_rate_bpns = sender.line_rate_bps / 8e9
        target_offset, limit_offset = self.channels.offsets_ns(self.vpriority)
        self.d_target = self.base_rtt + target_offset
        self.d_limit = self.base_rtt + limit_offset
        self.empty_eps = (
            self._empty_eps_cfg
            if self._empty_eps_cfg is not None
            else self.channels.noise_ns
        )
        self.w_ls = (
            self._w_ls_cfg
            if self._w_ls_cfg is not None
            else max(W_LS_FRACTION[self.tier] * self.base_bdp, self.inner.mtu)
        )
        # PrioPlus pins the wrapped CC to the channel target and disables any
        # target-scaling heuristic (§4.1).
        self.inner.set_target_scaling(False)
        self.inner.pin_target(self.d_target)
        self.w_ai_origin = self.inner.ai_bytes
        self._probe = sender.probe
        if self._probe.on:
            self._probe.register("prioplus", self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.countdown = self._countdown_reset_value()
        self._flow_state(self.sender.sim.now, "probe_wait" if self.probe_first else "linear_start")
        if self.probe_first:
            self.sender.stop_sending()
            self.sender.send_probe_after(0)
        else:
            # linear start from W_LS without probing (§4.4)
            self.inner.cwnd = max(self.w_ls, self.inner.min_cwnd)
            self.inner.clamp()

    def _flow_state(self, now: int, state: str) -> None:
        p = self._probe
        if p.on:
            p.flow_state(now, self.sender.flow.flow_id, state, self.sender)

    def _cc_event(self, now: int, kind: str) -> None:
        p = self._probe
        if p.on:
            p.cc_event(now, self.sender.flow.flow_id, kind)

    def _countdown_reset_value(self) -> int:
        return max(1, int(self.base_bdp / max(self.w_ls, 1.0)))

    # ------------------------------------------------------------------
    # Algorithm 1: NewAck
    # ------------------------------------------------------------------
    def on_ack(self, info: AckInfo) -> None:
        if self.sender.stopped:
            # ACKs of draining in-flight data after relinquishing: the probe
            # loop owns recovery; these samples are not acted on.
            return
        if info.seq >= self.rtt_end_seq:
            # one RTT elapsed (lines 2-6)
            self.rtt_pass = True
            self.rtt_end_seq = self.sender.snd_nxt
            self.dual_rtt_pass = not self.dual_rtt_pass
            if not self.dual_rtt_pass or not self.dual_rtt:
                # end of an adaptive-increase window: restore the AI step
                self.inner.ai_bytes = self.w_ai_origin / self.nflow

        delay = info.delay_ns
        if delay >= self.d_limit:
            self.consec += 1
            if self.consec >= self.filter_consecutive:
                self._relinquish(delay)
                return
        else:
            self.consec = 0

        if delay <= self.d_target and self.rtt_pass:
            if delay <= self.base_rtt + self.empty_eps:
                # linear start step (lines 13-16)
                self.inner.cwnd += self.w_ls / self.nflow
                self.linear_start_steps += 1
                self._cc_event(info.now, "linear_start_step")
                self._countdown_tick()
                self.rtt_pass = False
            elif self.dual_rtt_pass or not self.dual_rtt:
                # dual-RTT adaptive increase (lines 17-19)
                step = min(
                    self.inner.cwnd / 2.0,
                    (self.d_target - delay) / max(delay, 1) * self.inner.cwnd,
                )
                if step > 0:
                    self.inner.ai_bytes = self.inner.ai_bytes + step
                    self.adaptive_increases += 1
                    self._cc_event(info.now, "adaptive_increase")
                self.rtt_pass = False
        self.inner.on_ack(info)

    def _countdown_tick(self) -> None:
        if self.countdown > 0:
            self.countdown -= 1
        else:
            self.nflow = max(1.0, self.nflow / 2.0)
            self.countdown = self._countdown_reset_value()
            self.inner.ai_bytes = self.w_ai_origin / self.nflow

    # ------------------------------------------------------------------
    # relinquish + probe (lines 7-10, §4.2.1)
    # ------------------------------------------------------------------
    def _relinquish(self, delay: int) -> None:
        if self.cardinality_estimation:
            inflight = delay * self._line_rate_bpns
            est = inflight / max(self.inner.cwnd, self.inner.mtu)
            if est > self.nflow:
                self.nflow = est
        self.inner.ai_bytes = self.w_ai_origin / self.nflow
        self.countdown = self._countdown_reset_value()
        self.relinquish_count += 1
        self.consec = 0
        self.sender.stop_sending()
        self._schedule_probe(delay)
        # emitted with the probe armed: the auditor checks that a relinquished
        # flow holds one (its only path back to sending)
        self._flow_state(self.sender.sim.now, "relinquished")

    def _schedule_probe(self, delay: int) -> None:
        if self.collision_avoidance:
            jitter = self.sender.sim.rng.uniform(0, self.base_rtt)
            wait = (delay - self.d_target) + jitter
        else:
            wait = self.base_rtt
        self.sender.send_probe_after(max(0, int(wait)))

    # ------------------------------------------------------------------
    # Algorithm 1: NewProbeAck (lines 25-34)
    # ------------------------------------------------------------------
    def on_probe_ack(self, info: AckInfo) -> None:
        delay = info.delay_ns
        if delay >= self.d_limit:
            p = self._probe
            if p.on:
                p.probe_rejected(info.now, self.sender.flow.flow_id)
            self._schedule_probe(delay)
            return
        if delay <= self.base_rtt + self.empty_eps:
            self._flow_state(info.now, "linear_start")
            self.inner.cwnd = max(self.w_ls / self.nflow, self.inner.min_cwnd)
            self._countdown_tick()
        else:
            # one delay sample between base RTT and D_limit: be conservative,
            # adaptive increase will take over within a couple of RTTs (§4.4)
            self._flow_state(info.now, "cautious_restart")
            self.inner.cwnd = float(self.inner.mtu)
        self.inner.clamp()
        self.consec = 0
        self.sender.resume_sending()
        self.rtt_end_seq = self.sender.snd_nxt
        self.rtt_pass = False
        self.dual_rtt_pass = False

    # ------------------------------------------------------------------
    def fluid_sync(self, cwnd_bytes: float) -> None:
        """Fluid→packet handoff (:mod:`repro.fluid`): adopt the converged window.

        Beyond the window itself, the RTT-boundary bookkeeping of Algorithm 1
        must be re-anchored: sequence numbers advanced in bulk during the
        epoch, so a stale ``rtt_end_seq`` would mark the next ACK as an RTT
        boundary immediately.  The relinquish filter restarts clean — delay
        samples from before the epoch say nothing about the queue now.
        """
        self.inner.cwnd = cwnd_bytes
        self.inner.clamp()
        self.consec = 0
        self.rtt_end_seq = self.sender.snd_nxt
        self.rtt_pass = False
        self.dual_rtt_pass = False
        self.inner.ai_bytes = self.w_ai_origin / self.nflow

    # ------------------------------------------------------------------
    def on_timeout(self) -> None:
        self.inner.on_timeout()

    @property
    def min_cwnd(self) -> float:
        return self.inner.min_cwnd
