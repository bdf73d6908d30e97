"""Evaluation modes and the factory that turns one into a running system.

:class:`CCFactory` maps an evaluation *mode* (PrioPlus+Swift, physical
priority + Swift, Physical* ideal queues, NoCC, D2TCP, HPCC, LEDBAT...) to
per-flow CC instances, physical queue assignments and a switch
configuration.  Priority *groups* are 0-based with **group 0 = highest
priority** (smallest flows), matching the scheduling literature; the
factory translates groups to physical queue indices (larger = higher, the
switch convention) or PrioPlus channel indices.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..cc import D2tcp, Dcqcn, Hpcc, Ledbat, NoCC, Swift, SwiftParams
from ..core import ChannelConfig, PrioPlusCC, StartTier
from ..sim.engine import MICROSECOND
from ..sim.pfc import PfcConfig
from ..sim.switch import SwitchConfig
from ..transport.flow import Flow

__all__ = ["Mode", "CCFactory", "MAX_PHYSICAL_PRIORITIES"]


class Mode:
    """Evaluation modes compared throughout §6."""

    PRIOPLUS = "prioplus"  # PrioPlus + Swift, single data queue
    PRIOPLUS_LEDBAT = "prioplus_ledbat"  # PrioPlus + LEDBAT
    PRIOPLUS_SAME_ACK = "prioplus_same_ack"  # PrioPlus*: ACKs share the data queue
    PHYSICAL = "physical"  # Swift + real priority queues (headroom cost, <= 8)
    PHYSICAL_IDEAL = "physical_ideal"  # Physical*: headroom is free, any count
    PHYSICAL_IDEAL_NOCC = "physical_ideal_nocc"  # Physical* without CC
    SWIFT = "swift"  # Swift, no prioritisation (baseline for speedups)
    SWIFT_TARGETS = "swift_targets"  # Swift w/o scaling, per-priority targets (§3.2)
    D2TCP = "d2tcp"  # single queue, deadline-weighted ECN backoff (§3.1)
    DCQCN = "dcqcn"  # single ECN-marked queue, no deadlines (fault experiments)
    HPCC = "hpcc"  # HPCC + physical priority queues

    ALL = (
        PRIOPLUS,
        PRIOPLUS_LEDBAT,
        PRIOPLUS_SAME_ACK,
        PHYSICAL,
        PHYSICAL_IDEAL,
        PHYSICAL_IDEAL_NOCC,
        SWIFT,
        SWIFT_TARGETS,
        D2TCP,
        DCQCN,
        HPCC,
    )

    ECN_MODES = (D2TCP, DCQCN, HPCC)
    SINGLE_QUEUE_MODES = (
        PRIOPLUS, PRIOPLUS_LEDBAT, PRIOPLUS_SAME_ACK, SWIFT, SWIFT_TARGETS, D2TCP, DCQCN,
    )


#: the physical-queue ceiling the paper cites (8 lossless priorities via PFC)
MAX_PHYSICAL_PRIORITIES = 8

#: per-priority target step of the SWIFT_TARGETS baseline
_TARGET_STEP_NS = 4 * MICROSECOND
#: D2TCP deadlines span this multiple of the ideal FCT, highest to lowest group
_DDL_FACTOR_RANGE = (1.5, 12.0)
#: ECN marking threshold of the ECN modes' switch queues
_ECN_K_BYTES = 100 * 1024


class CCFactory:
    """Builds CC instances and switch configs for one mode."""

    def __init__(
        self,
        mode: str,
        n_priorities: int = 8,
        channels: Optional[ChannelConfig] = None,
        tier_of_group: Optional[Callable[[int], str]] = None,
        probe_tiers: Optional[Sequence[str]] = None,
    ):
        if mode not in Mode.ALL:
            raise ValueError(f"unknown mode {mode!r}")
        if n_priorities < 1:
            raise ValueError("need at least one priority")
        if mode == Mode.PHYSICAL and n_priorities > MAX_PHYSICAL_PRIORITIES:
            raise ValueError(
                f"physical priority supports at most {MAX_PHYSICAL_PRIORITIES} "
                f"queues (paper §2.2); use PHYSICAL_IDEAL beyond that"
            )
        self.mode = mode
        self.n_priorities = n_priorities
        self.channels = channels or ChannelConfig(n_priorities=n_priorities)
        self._tier_of_group = tier_of_group
        # which start tiers probe before transmitting (§4.4): by default only
        # the throughput (LOW) tier pays the probe RTT; latency-sensitive
        # tiers linear-start blind, which is safe by Theorem 4.1's bound.
        self.probe_tiers = (
            tuple(probe_tiers) if probe_tiers is not None else (StartTier.LOW,)
        )

    # ------------------------------------------------------------------
    # queue layout
    # ------------------------------------------------------------------
    def n_queues(self) -> int:
        if self.mode in Mode.SINGLE_QUEUE_MODES:
            return 2  # data + ACK
        return self.n_priorities + 1  # one per priority + ACK queue on top

    def data_priority(self, group: int) -> int:
        """Physical queue index for priority group ``group`` (0 = highest)."""
        self._check_group(group)
        if self.mode in Mode.SINGLE_QUEUE_MODES:
            return 0
        return self.n_priorities - 1 - group

    def ack_priority(self, group: int) -> int:
        if self.mode == Mode.PRIOPLUS_SAME_ACK:
            return self.data_priority(group)
        return self.n_queues() - 1

    def vpriority(self, group: int) -> int:
        """PrioPlus channel index (1-based, larger = higher priority).

        The unprioritised Swift baseline keeps every flow in one class —
        including at its own NIC — so it measures "no scheduling anywhere".
        """
        self._check_group(group)
        if self.mode == Mode.SWIFT:
            return 1
        return self.n_priorities - group

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.n_priorities:
            raise ValueError(f"group {group} out of range [0, {self.n_priorities})")

    # ------------------------------------------------------------------
    # switch configuration
    # ------------------------------------------------------------------
    def switch_config(
        self,
        buffer_bytes: int = 32 * 1024 * 1024,
        headroom_per_port_per_prio: int = 50 * 1024,
        pfc_enabled: bool = True,
    ) -> SwitchConfig:
        return SwitchConfig(
            n_queues=self.n_queues(),
            buffer_bytes=buffer_bytes,
            headroom_per_port_per_prio=headroom_per_port_per_prio,
            n_lossless=self.n_queues(),
            ideal_headroom=self.mode in (Mode.PHYSICAL_IDEAL, Mode.PHYSICAL_IDEAL_NOCC)
            or self.mode in Mode.SINGLE_QUEUE_MODES,
            pfc=PfcConfig(enabled=pfc_enabled),
            ecn_k_bytes=_ECN_K_BYTES if self.mode in Mode.ECN_MODES else None,
        )

    # ------------------------------------------------------------------
    # per-flow CC
    # ------------------------------------------------------------------
    def tier(self, group: int) -> str:
        if self._tier_of_group is not None:
            return self._tier_of_group(group)
        if group == 0:
            return StartTier.HIGH
        if group >= max(1, self.n_priorities - self.n_priorities // 3):
            return StartTier.LOW
        return StartTier.MEDIUM

    def _swift(self, scaling: bool, base_target_ns: int = 20 * MICROSECOND) -> Swift:
        return Swift(SwiftParams(base_target_ns=base_target_ns, target_scaling=scaling))

    def make(self, flow: Flow, group: int):
        """CC instance for one flow of priority group ``group``."""
        self._check_group(group)
        mode = self.mode
        if mode in (Mode.PRIOPLUS, Mode.PRIOPLUS_SAME_ACK, Mode.PRIOPLUS_LEDBAT):
            tier = self.tier(group)
            return PrioPlusCC(
                Ledbat() if mode == Mode.PRIOPLUS_LEDBAT else self._swift(scaling=False),
                self.channels,
                vpriority=self.vpriority(group),
                tier=tier,
                probe_first=tier in self.probe_tiers,
                # "delay == BaseRtt" (Algorithm 1) means "no standing queue";
                # under packet granularity a transient sub-channel queue
                # qualifies, so the epsilon is half a channel step
                empty_eps_ns=self.channels.step_ns // 2,
            )
        if mode in (Mode.PHYSICAL, Mode.PHYSICAL_IDEAL, Mode.SWIFT):
            return self._swift(scaling=True)
        if mode == Mode.SWIFT_TARGETS:
            # targets descend with priority: 4 us (lowest) .. 4*n us (highest)
            return self._swift(
                scaling=False, base_target_ns=_TARGET_STEP_NS * self.vpriority(group)
            )
        if mode == Mode.PHYSICAL_IDEAL_NOCC:
            return NoCC()
        if mode == Mode.D2TCP:
            return D2tcp()
        if mode == Mode.DCQCN:
            return Dcqcn()
        if mode == Mode.HPCC:
            return Hpcc()
        raise AssertionError(f"unhandled mode {mode}")

    def deadline_for(self, flow_size: int, group: int, line_rate_bps: float, start_ns: int) -> Optional[int]:
        """D2TCP deadline: 1.5x .. 12x the ideal FCT, by priority (§6)."""
        if self.mode != Mode.D2TCP:
            return None
        lo, hi = _DDL_FACTOR_RANGE
        factor = lo + (hi - lo) * group / max(self.n_priorities - 1, 1)
        ideal = flow_size * 8e9 / line_rate_bps
        return int(start_ns + factor * ideal)
