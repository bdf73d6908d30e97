"""Flow descriptor and completion record."""

from __future__ import annotations

from typing import List, Optional

__all__ = ["Flow", "AckInfo"]


class Flow:
    """One transfer: who sends how much to whom, at which priority.

    ``priority`` is the *physical* switch queue the flow's data packets use.
    ``vpriority`` is the virtual priority (PrioPlus channel index); for
    physical-priority baselines the two coincide.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size_bytes",
        "priority",
        "vpriority",
        "start_ns",
        "deadline_ns",
        "tag",
        "completion_ns",
        "sender_done_ns",
        "first_tx_ns",
        "retransmits",
        "probes_sent",
    )

    def __init__(
        self,
        flow_id: int,
        src,
        dst,
        size_bytes: int,
        priority: int = 0,
        vpriority: int = 0,
        start_ns: int = 0,
        deadline_ns: Optional[int] = None,
        tag: Optional[object] = None,
    ):
        if size_bytes <= 0:
            raise ValueError("flow size must be positive")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.priority = priority
        self.vpriority = vpriority
        self.start_ns = start_ns
        self.deadline_ns = deadline_ns
        #: free-form grouping handle (coflow id, model name, size class, ...)
        self.tag = tag
        #: receiver-side time the last data byte arrived (None until done)
        self.completion_ns: Optional[int] = None
        #: sender-side time the last ACK arrived
        self.sender_done_ns: Optional[int] = None
        self.first_tx_ns: Optional[int] = None
        self.retransmits = 0
        self.probes_sent = 0

    @property
    def done(self) -> bool:
        return self.completion_ns is not None

    def fct_ns(self) -> int:
        """Receiver-side flow completion time."""
        if self.completion_ns is None:
            raise RuntimeError(f"flow {self.flow_id} has not completed")
        return self.completion_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Flow {self.flow_id} {self.size_bytes}B prio={self.priority} "
            f"vprio={self.vpriority} done={self.done}>"
        )


class AckInfo:
    """Everything a congestion-control algorithm may read from one ACK."""

    __slots__ = ("now", "delay_ns", "ecn", "acked_bytes", "int_hops", "seq", "is_probe", "cum_seq")

    def __init__(
        self,
        now: int,
        delay_ns: int,
        ecn: bool,
        acked_bytes: int,
        seq: int,
        int_hops: Optional[List] = None,
        is_probe: bool = False,
        cum_seq: int = 0,
    ):
        self.now = now
        self.delay_ns = delay_ns
        self.ecn = ecn
        self.acked_bytes = acked_bytes
        self.seq = seq
        self.int_hops = int_hops
        self.is_probe = is_probe
        self.cum_seq = cum_seq
