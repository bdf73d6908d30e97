"""Queue planning: the paper's deployment vision (§2.3) as an API.

The paper argues physical queues should be reserved for *isolation between
traffic classes* while virtual priorities provide *scheduling within* each
class.  :func:`plan_queues` turns that argument into a checked plan:

* each traffic class gets one physical queue (plus one shared ACK queue);
* classes that want scheduling get a PrioPlus :class:`ChannelConfig` sized
  from the class's expected flow count (Appendix-D fluctuation bound) and
  the operator's measured noise tolerance;
* the plan validates the physical-queue budget (8 by default, §2.2) and
  each class's worst-case added delay (the top channel's D_limit offset)
  against an optional latency SLO.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .channels import ChannelConfig

__all__ = ["TrafficClass", "QueuePlan", "PlanError", "plan_queues"]

#: protocol ceiling on lossless physical priorities (§2.2)
PHYSICAL_BUDGET = 8
#: the fabric the plan sizes channels for: line rate, the delay-noise
#: tolerance B, and Swift's per-RTT additive step W_AI
LINE_RATE_BPS = 100e9
NOISE_TOLERANCE_NS = 800
SWIFT_AI_BYTES = 150.0


class PlanError(ValueError):
    """A requested plan cannot be realised."""


class TrafficClass:
    """One isolation class (e.g. 'storage', 'training', 'latency RPCs')."""

    def __init__(
        self,
        name: str,
        n_virtual_priorities: int = 1,
        expected_flows: int = 150,
        max_added_delay_ns: Optional[int] = None,
    ):
        if n_virtual_priorities < 1:
            raise ValueError(f"{name}: need at least one priority")
        if expected_flows < 1:
            raise ValueError(f"{name}: expected flow count must be positive")
        self.name = name
        self.n_virtual_priorities = n_virtual_priorities
        self.expected_flows = expected_flows
        #: optional SLO on the extra queuing the channel ladder may add
        self.max_added_delay_ns = max_added_delay_ns


class QueuePlan:
    """Result of :func:`plan_queues`."""

    def __init__(
        self,
        physical_queue_of: Dict[str, int],
        ack_queue: int,
        channels_of: Dict[str, Optional[ChannelConfig]],
    ):
        self.physical_queue_of = physical_queue_of
        self.ack_queue = ack_queue
        self.channels_of = channels_of

    @property
    def n_physical_queues(self) -> int:
        return self.ack_queue + 1

    def describe(self) -> str:
        lines = [f"{self.n_physical_queues} physical queues (top = ACK)"]
        for name, q in sorted(self.physical_queue_of.items(), key=lambda kv: -kv[1]):
            ch = self.channels_of[name]
            if ch is None:
                lines.append(f"  q{q}: {name} (no internal scheduling)")
            else:
                top = ch.limit_offset_ns(ch.n_priorities) / 1e3
                lines.append(
                    f"  q{q}: {name} — {ch.n_priorities} virtual priorities, "
                    f"step {ch.step_ns / 1e3:.1f} us, worst added delay {top:.1f} us"
                )
        return "\n".join(lines)


def plan_queues(classes: Sequence[TrafficClass]) -> QueuePlan:
    """Build and validate a physical/virtual queue plan.

    Classes are listed lowest-priority-first; they receive physical queues
    0..n-1 in order, with the ACK queue on top.
    """
    if not classes:
        raise PlanError("no traffic classes")
    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        raise PlanError("duplicate class names")
    needed = len(classes) + 1  # + ACK queue
    if needed > PHYSICAL_BUDGET:
        raise PlanError(
            f"{len(classes)} classes need {needed} physical queues "
            f"(incl. ACK) but only {PHYSICAL_BUDGET} exist — merge classes "
            f"or move scheduling into virtual priorities"
        )

    physical: Dict[str, int] = {}
    channel_cfgs: Dict[str, Optional[ChannelConfig]] = {}
    for idx, cls in enumerate(classes):
        physical[cls.name] = idx
        if cls.n_virtual_priorities <= 1:
            channel_cfgs[cls.name] = None
            continue
        # size A from the above-target component of the Appendix-D bound,
        # doubled for headroom, floored at 2 us
        above_ns = cls.expected_flows * SWIFT_AI_BYTES / (LINE_RATE_BPS / 8e9)
        fluctuation_ns = max(int(2 * above_ns), 2_000)
        cfg = ChannelConfig(
            fluctuation_ns=fluctuation_ns,
            noise_ns=NOISE_TOLERANCE_NS,
            n_priorities=cls.n_virtual_priorities,
        )
        cfg.validate()
        worst = cfg.limit_offset_ns(cls.n_virtual_priorities)
        if cls.max_added_delay_ns is not None and worst > cls.max_added_delay_ns:
            raise PlanError(
                f"{cls.name}: channel ladder adds up to {worst / 1e3:.1f} us "
                f"but the SLO allows {cls.max_added_delay_ns / 1e3:.1f} us — "
                f"reduce priorities, flow count, or noise tolerance"
            )
        channel_cfgs[cls.name] = cfg
    return QueuePlan(physical, ack_queue=len(classes), channels_of=channel_cfgs)
