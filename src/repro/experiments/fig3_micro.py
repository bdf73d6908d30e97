"""Figures 1 & 3: why existing CCs cannot provide virtual priority (§3).

Four micro-benchmarks on a single 100 Gbps bottleneck (RTT ≈ 12 µs):

* **fig3a / fig1** — two D2TCP flows with deadlines 1x and 2x the ideal FCT.
  Strict priority would let the urgent flow finish in one ideal FCT; instead
  both flows decelerate on ECN and share bandwidth, so the urgent flow's FCT
  lands well above ideal while the total stays work-conserving.
* **fig3b** — Swift *with* target scaling and per-priority targets
  (base + 15 µs / base + 5 µs): scaling raises the low-priority target after
  decreases, converging to *weighted* (not strict) sharing.
* **fig3c** — Swift *without* scaling: 300 low-priority flows underutilise
  the link (fluctuations overshoot the low target), and a late high-priority
  flow decelerates because fluctuations cross its target too.
* **fig3d** — Swift without scaling, 2 high then 2 low flows: the low flows
  pin at the minimum-rate floor, and after the high flows finish the link
  stays idle for a long ramp-up (the signal-frequency trade-off).
"""

from __future__ import annotations

from typing import Dict

from ..cc import D2tcp, Swift, SwiftParams
from ..sim.engine import MICROSECOND, MILLISECOND, Simulator
from ..sim.switch import SwitchConfig
from ..topology import star
from ..transport.flow import Flow
from ..transport.sender import FlowSender
from .launch import run_until_flows_done
from .registry import FunctionExperiment, register
from .samplers import RateSampler

_RATE = 100e9
_DELAY = 1500  # per-link propagation, ns (base RTT lands near 12 us)


def _star(sim: Simulator, n: int, ecn: bool = False, rate: float = _RATE):
    cfg = SwitchConfig(
        n_queues=2,
        buffer_bytes=32 * 1024 * 1024,
        ecn_k_bytes=100 * 1024 if ecn else None,
    )
    return star(sim, n, rate_bps=rate, link_delay_ns=_DELAY, switch_cfg=cfg)


def _run_fig3a(size_bytes: int = 2_000_000, rate: float = _RATE, seed: int = 1) -> Dict[str, float]:
    """Two D2TCP flows, deadlines 1x and 2x ideal FCT."""
    sim = Simulator(seed)
    net, senders, recv = _star(sim, 2, ecn=True, rate=rate)
    ideal_ns = size_bytes * 8e9 / rate
    f_hi = Flow(1, senders[0], recv, size_bytes, start_ns=0, deadline_ns=int(ideal_ns))
    f_lo = Flow(2, senders[1], recv, size_bytes, start_ns=0, deadline_ns=int(2 * ideal_ns))
    s_hi = FlowSender(sim, net, f_hi, D2tcp())
    s_lo = FlowSender(sim, net, f_lo, D2tcp())
    sampler = RateSampler(sim, [s_hi, s_lo], key=lambda s: s.flow.flow_id, interval_ns=20 * MICROSECOND)
    run_until_flows_done(sim, [f_hi, f_lo], int(ideal_ns * 20))
    # overlap: while the urgent flow runs, how much does the other send?
    lo_rate_during_hi = sampler.average_rate_bps(2, 0, f_hi.completion_ns)
    return {
        "hi_fct_over_ideal": f_hi.fct_ns() / ideal_ns,
        "lo_fct_over_ideal": f_lo.fct_ns() / ideal_ns,
        "lo_share_during_hi": lo_rate_during_hi / rate,
        "hi_met_deadline": float(f_hi.fct_ns() <= ideal_ns * 1.05),
    }


def _run_fig3b(
    duration_ns: int = 4 * MILLISECOND, rate: float = _RATE, seed: int = 1
) -> Dict[str, float]:
    """Swift + target scaling, 2 hi (base+15us) vs 2 lo (base+5us) flows."""
    sim = Simulator(seed)
    net, senders, recv = _star(sim, 4, rate=rate)
    big = int(rate * duration_ns / 8e9)  # effectively long-running
    flows, snds = [], []
    for i in range(4):
        target = 15 * MICROSECOND if i < 2 else 5 * MICROSECOND
        f = Flow(i + 1, senders[i], recv, big, start_ns=0, tag="hi" if i < 2 else "lo")
        cc = Swift(SwiftParams(base_target_ns=target, target_scaling=True))
        snds.append(FlowSender(sim, net, f, cc))
        flows.append(f)
    sampler = RateSampler(sim, snds, key=lambda s: s.flow.tag, interval_ns=50 * MICROSECOND)
    sim.run(until=duration_ns)
    settle = duration_ns // 2
    hi = sampler.average_rate_bps("hi", settle, duration_ns)
    lo = sampler.average_rate_bps("lo", settle, duration_ns)
    return {
        "hi_share": hi / rate,
        "lo_share": lo / rate,
        "utilization": (hi + lo) / rate,
    }


def _run_fig3c(
    n_low: int = 300,
    hi_start_ns: int = 2 * MILLISECOND,
    duration_ns: int = 4 * MILLISECOND,
    rate: float = _RATE,
    seed: int = 1,
) -> Dict[str, float]:
    """Swift w/o scaling: many low flows underutilise; late hi flow decelerates."""
    sim = Simulator(seed)
    net, senders, recv = _star(sim, n_low + 1, rate=rate)
    big = int(rate * duration_ns / 8e9)
    snds, flows = [], []
    for i in range(n_low):
        f = Flow(i + 1, senders[i], recv, max(big // n_low, 100_000), start_ns=0, tag="lo")
        cc = Swift(SwiftParams(base_target_ns=5 * MICROSECOND, target_scaling=False))
        snds.append(FlowSender(sim, net, f, cc))
        flows.append(f)
    f_hi = Flow(n_low + 1, senders[n_low], recv, big, start_ns=hi_start_ns, tag="hi")
    s_hi = FlowSender(
        sim, net, f_hi, Swift(SwiftParams(base_target_ns=15 * MICROSECOND, target_scaling=False))
    )
    snds.append(s_hi)
    sampler = RateSampler(sim, snds, key=lambda s: s.flow.tag, interval_ns=50 * MICROSECOND)
    sim.run(until=duration_ns)
    util_before = (
        sampler.average_rate_bps("lo", hi_start_ns // 2, hi_start_ns)
        / rate
    )
    hi_share_after = sampler.average_rate_bps("hi", hi_start_ns + hi_start_ns // 2, duration_ns) / rate
    return {"util_before_hi": util_before, "hi_share_after": hi_share_after}


def _run_fig3d(
    lo_start_ns: int = 100 * MICROSECOND,
    hi_end_target_ns: int = 1 * MILLISECOND,
    duration_ns: int = 2 * MILLISECOND,
    rate: float = _RATE,
    seed: int = 1,
) -> Dict[str, float]:
    """Swift w/o scaling: min-rate floor for starved lows, slow reclaim."""
    sim = Simulator(seed)
    net, senders, recv = _star(sim, 4, rate=rate)
    hi_size = int(rate * hi_end_target_ns / 8e9 / 2)  # 2 hi flows fill until ~1 ms
    lo_size = int(rate * duration_ns / 8e9)
    # the paper's experiment pins the minimum send rate at 100 Mbps
    base_rtt_guess = 12 * MICROSECOND
    min_cwnd = 100e6 * base_rtt_guess / 8e9
    flows, snds = [], []
    for i in range(2):
        f = Flow(i + 1, senders[i], recv, hi_size, start_ns=0, tag="hi")
        snds.append(
            FlowSender(sim, net, f, Swift(SwiftParams(base_target_ns=15 * MICROSECOND, target_scaling=False)))
        )
        flows.append(f)
    for i in range(2, 4):
        f = Flow(i + 1, senders[i], recv, lo_size, start_ns=lo_start_ns, tag="lo")
        snds.append(
            FlowSender(
                sim,
                net,
                f,
                Swift(
                    SwiftParams(base_target_ns=5 * MICROSECOND, target_scaling=False),
                    min_cwnd_bytes=min_cwnd,
                ),
            )
        )
        flows.append(f)
    sampler = RateSampler(sim, snds, key=lambda s: s.flow.tag, interval_ns=100 * MICROSECOND)
    sim.run(until=duration_ns)
    hi_done = max(f.completion_ns or duration_ns for f in flows[:2])
    # minimum sustained rate of the low flows while the hi flows run
    # (100 us buckets: the 100 Mbps floor is ~1 packet / 84 us)
    lo_series = [r for (t, r) in sampler.series.get("lo", []) if lo_start_ns * 3 <= t <= hi_done]
    lo_min_rate = min(lo_series) if lo_series else 0.0
    # after the hi flows finish, how much of the line do the lows reclaim?
    window_end = min(hi_done + 500 * MICROSECOND, duration_ns)
    lo_share_after = sampler.average_rate_bps("lo", hi_done, window_end) / rate
    return {
        "lo_min_rate_share": lo_min_rate / rate,
        "lo_share_after": lo_share_after,
        "hi_done_us": hi_done / 1e3,
    }


for _name, _fn, _desc, _quick in (
    ("fig3a", _run_fig3a, "two D2TCP flows, 1x vs 2x deadlines (Fig 1/3a)",
     {"size_bytes": 1_000_000}),
    ("fig3b", _run_fig3b, "Swift + target scaling converges to weighted sharing",
     {"duration_ns": 2 * MILLISECOND}),
    ("fig3c", _run_fig3c, "Swift w/o scaling: underutilisation + hi-flow deceleration",
     {"n_low": 100, "duration_ns": 3 * MILLISECOND}),
    ("fig3d", _run_fig3d, "Swift w/o scaling: min-rate floor and slow reclaim", None),
):
    register(FunctionExperiment(
        _name, {_name: (_fn, {"seed": 1})}, description=_desc,
        quick_spec=_quick and {_name: (_fn, dict(_quick, seed=1))},
    ))
