"""Delay channels: the virtual-priority → delay-range mapping (§4.1, §4.3.2).

Priority ``i`` (larger = higher, Table 1) owns the channel
``[D_target^i, D_limit^i]``.  Two placements are supported:

* **Uniform** (the paper's): ``D_target^i = BaseRtt + i * (A + B)`` and
  ``D_limit^i = D_target^i + A/2 + B``, where ``A`` accommodates the wrapped
  CC's normal delay fluctuation and ``B`` the tolerable delay-measurement
  noise.  The paper's evaluation uses ``A = 3.2 µs`` (150 Swift flows) and
  ``B = 0.8 µs`` (P99.85 of the measured NIC-timestamp noise), giving the
  4 µs channel step and ``D_limit = D_target + 2.4 µs`` used throughout §6.
* **Explicit bands**: an arbitrary ordered, non-overlapping list of
  ``(target_offset, limit_offset)`` pairs above base RTT, one per priority.
  This is the representation :mod:`repro.tune` searches over when
  auto-tuning channel placement per workload; both placements share one
  validation path and the :class:`ChannelConfig` API, so a tuned placement
  is a drop-in replacement anywhere the paper default is accepted
  (:class:`~repro.experiments.modes.CCFactory`,
  :class:`~repro.core.prioplus.PrioPlusCC`).

Every configuration is validated at construction: bands must be strictly
ordered (``D_limit^{i-1} < D_target^i < D_limit^i``) and strictly above base
RTT, so an invalid placement fails with a diagnostic naming the offending
priorities instead of silently mis-classifying delay samples mid-run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["ChannelConfig", "PAPER_A_NS", "PAPER_B_NS"]

PAPER_A_NS = 3200
PAPER_B_NS = 800


class ChannelConfig:
    """Computes per-priority delay thresholds (offsets above base RTT).

    Immutable: every sender's attach reads its priority's two offsets, so
    they are resolved once at construction, and the parameters they come
    from are read-only.
    """

    __slots__ = ("_fluctuation_ns", "_noise_ns", "_n_priorities", "_bands", "_offsets")

    def __init__(
        self,
        fluctuation_ns: int = PAPER_A_NS,
        noise_ns: int = PAPER_B_NS,
        n_priorities: Optional[int] = None,
        bands: Optional[Sequence[Sequence[int]]] = None,
    ):
        if noise_ns < 0:
            raise ValueError("noise tolerance B cannot be negative")
        self._noise_ns = noise_ns
        if bands is not None:
            if n_priorities is not None and n_priorities != len(bands):
                raise ValueError(
                    f"n_priorities={n_priorities} contradicts the {len(bands)} "
                    f"explicit bands; drop one of the two"
                )
            self._fluctuation_ns = None
            self._bands = self._validated_bands(bands)
            self._n_priorities = len(self._bands)
            offsets = [(0, 0)] + self._bands
        else:
            if fluctuation_ns <= 0:
                raise ValueError("CC fluctuation budget A must be positive")
            self._fluctuation_ns = fluctuation_ns
            self._n_priorities = 8 if n_priorities is None else n_priorities
            if self._n_priorities < 1:
                raise ValueError("need at least one priority")
            self._bands = None
            step = fluctuation_ns + noise_ns
            margin = max(1, fluctuation_ns // 2 + noise_ns)
            offsets = [(i * step, i * step + margin) for i in range(self._n_priorities + 1)]
        #: priority 0..n -> (target offset, limit offset)
        self._offsets = tuple(offsets)

    @property
    def fluctuation_ns(self) -> Optional[int]:
        """A, the wrapped CC's fluctuation budget (None for explicit bands)."""
        return self._fluctuation_ns

    @property
    def noise_ns(self) -> int:
        """B, the tolerable delay-measurement noise."""
        return self._noise_ns

    @property
    def n_priorities(self) -> int:
        return self._n_priorities

    @staticmethod
    def _validated_bands(bands: Sequence[Sequence[int]]) -> List[Tuple[int, int]]:
        """Normalize and validate explicit ``(target, limit)`` offset pairs."""
        if len(bands) < 1:
            raise ValueError("need at least one priority band")
        out: List[Tuple[int, int]] = []
        prev_limit = 0  # band offsets live strictly above base RTT
        for i, band in enumerate(bands, start=1):
            try:
                target, limit = band
            except (TypeError, ValueError):
                raise ValueError(
                    f"band for priority {i} must be a (target_offset_ns, "
                    f"limit_offset_ns) pair, got {band!r}"
                ) from None
            target, limit = int(target), int(limit)
            if target <= prev_limit:
                if i == 1:
                    raise ValueError(
                        f"priority 1 target offset must be strictly above base "
                        f"RTT (> 0), got {target}"
                    )
                raise ValueError(
                    f"channel overlap between priorities {i - 1} and {i}: "
                    f"limit {prev_limit} >= target {target} (bands must be "
                    f"ordered lowest priority first, strictly increasing)"
                )
            if limit <= target:
                raise ValueError(
                    f"degenerate channel at priority {i}: limit {limit} must "
                    f"exceed target {target}"
                )
            out.append((target, limit))
            prev_limit = limit
        return out

    @classmethod
    def from_bands(cls, bands: Sequence[Sequence[int]]) -> "ChannelConfig":
        """Explicit placement: one ``(target, limit)`` offset pair per
        priority, with the paper's noise budget B."""
        return cls(bands=bands)

    # ------------------------------------------------------------------
    @property
    def step_ns(self) -> int:
        """Channel pitch A + B (4 µs with paper parameters).

        For explicit bands — where the pitch need not be uniform — this is
        the smallest gap between consecutive channels (taking base RTT as
        the floor below priority 1), which is what the pitch is *used* for:
        sizing "the path is empty" epsilons safely below the first target.
        """
        if self._bands is None:
            return self.fluctuation_ns + self.noise_ns
        prev_limits = [0] + [limit for (_target, limit) in self._bands[:-1]]
        return min(
            target - prev for (target, _limit), prev in zip(self._bands, prev_limits)
        )

    def bands(self) -> List[Tuple[int, int]]:
        """``(target_offset, limit_offset)`` per priority 1..n, lowest first.

        Computed for uniform configs, so
        ``ChannelConfig.from_bands(cfg.bands())`` reproduces any placement
        exactly — the starting point :mod:`repro.tune` perturbs.
        """
        if self._bands is not None:
            return list(self._bands)
        return [
            (self.target_offset_ns(i), self.limit_offset_ns(i))
            for i in range(1, self.n_priorities + 1)
        ]

    def offsets_ns(self, priority: int) -> Tuple[int, int]:
        """``(D_target^i - BaseRtt, D_limit^i - BaseRtt)``.

        Channel indices are 1-based in the paper's evaluation (D_target =
        4*i µs for i = 1..n); index 0 would put the target *at* base RTT.
        """
        if not 0 <= priority <= self._n_priorities:
            raise ValueError(
                f"priority {priority} out of range [0, {self._n_priorities}]"
            )
        return self._offsets[priority]

    def target_offset_ns(self, priority: int) -> int:
        """D_target^i - BaseRtt."""
        return self.offsets_ns(priority)[0]

    def limit_offset_ns(self, priority: int) -> int:
        """D_limit^i - BaseRtt (always strictly above the target)."""
        return self.offsets_ns(priority)[1]

    def target_ns(self, priority: int, base_rtt_ns: int) -> int:
        return base_rtt_ns + self.offsets_ns(priority)[0]

    def limit_ns(self, priority: int, base_rtt_ns: int) -> int:
        return base_rtt_ns + self.offsets_ns(priority)[1]

    def validate(self) -> None:
        """Assert the ordering invariant D_limit^{i-1} < D_target^i < D_limit^i.

        Explicit bands are already validated at construction; this re-checks
        any configuration (uniform ones cannot violate it by construction
        either, since ``A/2 + B < A + B`` for positive ``A``).
        """
        for i in range(1, self.n_priorities + 1):
            if not self.limit_offset_ns(i - 1) < self.target_offset_ns(i):
                raise AssertionError(
                    f"channel overlap between priorities {i - 1} and {i}: "
                    f"limit {self.limit_offset_ns(i - 1)} >= target {self.target_offset_ns(i)}"
                )
        for i in range(1, self.n_priorities + 1):
            if not self.target_offset_ns(i) < self.limit_offset_ns(i):
                raise AssertionError(f"degenerate channel at priority {i}")

    def __repr__(self) -> str:  # pragma: no cover
        if self._bands is not None:
            return (
                f"ChannelConfig(bands={self._bands!r}, B={self.noise_ns}ns, "
                f"n={self.n_priorities})"
            )
        return (
            f"ChannelConfig(A={self.fluctuation_ns}ns, B={self.noise_ns}ns, "
            f"n={self.n_priorities}, step={self.step_ns}ns)"
        )
