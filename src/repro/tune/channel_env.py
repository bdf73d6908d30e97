"""Channel placement as a black-box search problem.

The paper fixes PrioPlus's delay channels uniformly: ``D_target^i =
BaseRtt + i*(A+B)``, ``D_limit^i = D_target^i + A/2 + B`` with hand-picked
``A = 3.2 µs``, ``B = 0.8 µs`` (§4.1).  Here the placement itself is the
decision variable.

**Parameterisation.**  A candidate is ``theta = [gap_1, width_1, ...,
gap_n, width_n]`` (ns): ``target_i = limit_{i-1} + gap_i`` and
``limit_i = target_i + width_i`` with ``limit_0 = 0``.  Any theta inside
the per-dimension bounds maps to a *valid* ordered non-overlapping band
list — the search space has no infeasible region, so optimizers never
waste evaluations on rejected configs.  The paper default is itself a
theta (``gap_1 = A+B``, ``width = A/2+B``, ``gap_{i>1} = A/2``), which
search loops use as the incumbent seed.

**Evaluation.**  :func:`evaluate_candidate` is a pure function of
``(spec, theta)``, where ``spec`` is ``{"workload", "n_priorities",
"seed"}``.  Workloads:

* ``flowsched_micro`` — tiny fig11-style WebSearch run (~1 s/eval), the
  ``--quick`` workload; utility = -mean FCT (µs).
* ``flowsched`` — a fuller fig11-style run; utility = -mean FCT (µs).
* ``fault_flap`` — the spine-flap fault scenario; utility =
  high-priority goodput retained during the fault (Gbit/s).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.channels import PAPER_A_NS, PAPER_B_NS, ChannelConfig

__all__ = [
    "WORKLOADS",
    "theta_bounds",
    "default_theta",
    "theta_to_bands",
    "theta_to_channels",
    "evaluate_candidate",
]

#: per-dimension bounds (ns): inter-channel gap and channel width
GAP_MIN_NS, GAP_MAX_NS = 200, 16_000
WIDTH_MIN_NS, WIDTH_MAX_NS = 200, 12_000


def theta_bounds(n_priorities: int) -> Tuple[List[int], List[int]]:
    """Per-dimension ``(low, high)`` of a theta for ``n_priorities`` channels."""
    return (
        [GAP_MIN_NS, WIDTH_MIN_NS] * n_priorities,
        [GAP_MAX_NS, WIDTH_MAX_NS] * n_priorities,
    )


def default_theta(n_priorities: int) -> List[float]:
    """The paper's uniform placement expressed as a theta vector."""
    pitch = PAPER_A_NS + PAPER_B_NS  # 4 µs
    width = PAPER_A_NS // 2 + PAPER_B_NS  # 2.4 µs
    theta: List[float] = [float(pitch), float(width)]
    for _ in range(n_priorities - 1):
        theta.extend([float(pitch - width), float(width)])
    return theta


def theta_to_bands(theta: Sequence[float]) -> List[Tuple[int, int]]:
    """Decode theta into ordered ``(target, limit)`` offset pairs.

    Values are clipped into the per-dimension bounds first, so any real
    vector (e.g. a Gaussian CEM sample) decodes to a valid placement.
    """
    if len(theta) % 2 != 0 or not theta:
        raise ValueError(f"theta must be [gap, width] pairs, got {len(theta)} values")
    bands: List[Tuple[int, int]] = []
    limit = 0
    for i in range(0, len(theta), 2):
        gap = int(round(min(max(theta[i], GAP_MIN_NS), GAP_MAX_NS)))
        width = int(round(min(max(theta[i + 1], WIDTH_MIN_NS), WIDTH_MAX_NS)))
        target = limit + gap
        limit = target + width
        bands.append((target, limit))
    return bands


def theta_to_channels(theta: Sequence[float]) -> ChannelConfig:
    return ChannelConfig.from_bands(theta_to_bands(theta))


# ----------------------------------------------------------------------
# workload evaluators (pure functions of spec and channels)
# ----------------------------------------------------------------------
def _eval_flowsched(spec: dict, channels: ChannelConfig, scale: dict) -> dict:
    from ..experiments.modes import Mode
    from ..experiments.flowsched import FlowSchedConfig, run_flowsched

    cfg = FlowSchedConfig(
        rate_bps=scale["rate_bps"],
        duration_ns=scale["duration_ns"],
        size_scale=scale["size_scale"],
        seed=spec.get("seed", 0) + 42,
        channels=channels,
    )
    res = run_flowsched(Mode.PRIOPLUS, spec["n_priorities"], cfg)
    fct = res.get("fct", {}).get("all")
    if not fct or not fct["count"]:
        return {"utility": float("-inf"), "metrics": {"n_done": res.get("n_done", 0)}}
    return {
        "utility": -fct["mean_us"],
        "metrics": {
            "mean_fct_us": fct["mean_us"],
            "p99_fct_us": fct["p99_us"],
            "n_done": res["n_done"],
            "all_done": res["all_done"],
        },
    }


def _eval_flowsched_micro(spec: dict, channels: ChannelConfig) -> dict:
    return _eval_flowsched(
        spec, channels, {"rate_bps": 40e9, "duration_ns": 200_000, "size_scale": 0.05}
    )


def _eval_flowsched_full(spec: dict, channels: ChannelConfig) -> dict:
    return _eval_flowsched(
        spec, channels, {"rate_bps": 10e9, "duration_ns": 1_000_000, "size_scale": 0.1}
    )


def _eval_fault_flap(spec: dict, channels: ChannelConfig) -> dict:
    from ..experiments.modes import Mode
    from ..experiments.fault_experiments import run_fault_flap

    res = run_fault_flap(
        Mode.PRIOPLUS,
        rate=10e9,
        flaps=1,
        seed=spec.get("seed", 0) + 1,
        channels=channels,
    )
    during = res["rates"]["during"]["high"]
    return {
        "utility": during / 1e9,
        "metrics": {
            "high_during_gbps": during / 1e9,
            "high_post_gbps": res["rates"]["post"]["high"] / 1e9,
            "low_during_gbps": res["rates"]["during"]["low"] / 1e9,
        },
    }


#: workload name -> {evaluator, natural channel count}
WORKLOADS: Dict[str, dict] = {
    "flowsched_micro": {"fn": _eval_flowsched_micro, "n_priorities": 4},
    "flowsched": {"fn": _eval_flowsched_full, "n_priorities": 4},
    "fault_flap": {"fn": _eval_fault_flap, "n_priorities": 2},
}


def evaluate_candidate(spec: dict, theta: Sequence[float]) -> dict:
    """Score one placement: ``{"utility", "metrics", "bands"}`` (higher is better)."""
    workload = WORKLOADS[spec["workload"]]
    channels = theta_to_channels(theta)
    out = workload["fn"](spec, channels)
    out["bands"] = channels.bands()
    return out

