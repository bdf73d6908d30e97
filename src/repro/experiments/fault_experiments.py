"""Robustness experiments: virtual priority under faults (``fault_flap``,
``fault_degrade``).

The paper argues PrioPlus preserves strict virtual priorities under adverse
conditions (delay noise, traffic fluctuation, non-congestive interference);
these experiments push that question into operator territory: what happens
during *infrastructure* faults — a flapping spine link and a degraded
bottleneck — compared against the Swift-with-per-priority-targets and DCQCN
baselines?

Both scenarios run two priority groups whose demand is shaped by NIC speed:
the high-priority group's hosts attach at a quarter of the line rate (total
demand = half the fabric capacity), the low-priority group is backlogged at
line rate.  Healthy, both groups get about half the capacity each.  During a
50 %-capacity fault window the paper's claim predicts the high group retains
its demand (= the whole residual) while the low group backs off toward zero,
and everything reconverges within a bounded number of RTTs after repair.

* ``fault_flap`` — 2 ToR + 2 spines, each uplink at half rate; a
  :class:`~repro.faults.plan.FaultPlan` flaps the ``tor0<->spine0`` link, so
  one down window removes exactly half the cross-fabric capacity.  Traffic
  blackholes until the control plane's detection latency elapses and routes
  reconverge onto the surviving spine (senders recover via RTO).
* ``fault_degrade`` — star with the receiver downlink degraded to half rate
  plus wire corruption and delay spikes (``link_degrade``): same residual
  capacity, no rerouting, so it isolates the congestion-control reaction
  from the routing reaction.

Each point reports per-group goodput timelines, window averages, the fault
injector's stats, and three smoke-level invariants (the whole per-mode table
of both ``--quick`` runs is asserted in ``tests/test_faults.py``):

* ``high_retains_residual`` — high-priority goodput during the fault window
  is at least half the residual capacity;
* ``low_backs_off`` — low-priority goodput during the window drops below
  half its pre-fault level;
* ``reconverges`` — total goodput shortly after repair recovers to at least
  70 % of the pre-fault level.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..faults import FaultInjector, FaultPlan, FaultSpec, Schedule
from ..sim.engine import MICROSECOND, MILLISECOND, Simulator
from ..sim.host import Host
from ..sim.network import Network
from ..sim.switch import Switch, SwitchConfig
from ..workloads.generators import FlowSpec
from .launch import launch_specs
from .modes import CCFactory, Mode
from .registry import FunctionExperiment, register
from .samplers import RateSampler

__all__ = ["run_fault_flap", "run_fault_degrade"]

_LINK_DELAY_NS = 1_000
_SAMPLE_NS = 50 * MICROSECOND

#: modes every fault point sweeps: PrioPlus vs the paper's deployable baselines
FAULT_MODES = (Mode.PRIOPLUS, Mode.SWIFT_TARGETS, Mode.DCQCN)


def _factory(mode: str, channels=None) -> CCFactory:
    if mode not in FAULT_MODES:
        raise ValueError(f"fault experiments compare {FAULT_MODES}, got {mode!r}")
    return CCFactory(mode, n_priorities=2, channels=channels)


def _launch_two_groups(
    sim: Simulator,
    net: Network,
    hosts,
    recv_idx: int,
    factory: CCFactory,
    n_high: int,
    n_low: int,
    high_demand_bps: float,
    low_demand_bps: float,
    duration_ns: int,
):
    """Backlogged flows for both groups, sized to outlast the run."""
    specs: List[FlowSpec] = []
    for i in range(n_high):
        size = int(high_demand_bps * duration_ns / 8e9 * 2)
        specs.append(FlowSpec(i, recv_idx, size, start_ns=0, tag="high"))
    for i in range(n_low):
        size = int(low_demand_bps * duration_ns / 8e9 * 2)
        specs.append(FlowSpec(n_high + i, recv_idx, size, start_ns=0, tag="low"))
    flows, senders = launch_specs(
        sim, net, specs, hosts, factory, group_of=lambda s: 0 if s.tag == "high" else 1
    )
    sampler = RateSampler(sim, senders, key=lambda s: s.flow.tag, interval_ns=_SAMPLE_NS)
    return flows, senders, sampler


def _window_rates(sampler: RateSampler, windows: Dict[str, Tuple[int, int]]) -> Dict[str, Dict[str, float]]:
    return {
        wname: {
            group: sampler.average_rate_bps(group, t0, t1) for group in ("high", "low")
        }
        for wname, (t0, t1) in windows.items()
    }


def _invariants(rates: Dict[str, Dict[str, float]], residual_bps: float) -> Dict[str, bool]:
    """Smoke-level robustness checks on the windowed goodput.

    ``high_retains_residual`` asks that during the degradation window the
    high-priority channel (half the flows) keeps at least ~its share of the
    residual capacity *and* stays ahead of the low channel — priority-blind
    baselines fail the second clause because low-priority demand crowds the
    recovering high flows out.  The 0.4 factor (rather than an exact 0.5
    share) absorbs the genuine detection+RTO outage at the start of the
    window and the 50 us sampling quantisation.
    """
    pre, during, post = rates["pre"], rates["during"], rates["post"]
    return {
        "high_retains_residual": (
            during["high"] >= 0.4 * residual_bps and during["high"] > during["low"]
        ),
        "low_backs_off": during["low"] <= 0.5 * pre["low"],
        "reconverges": (post["high"] + post["low"]) >= 0.7 * (pre["high"] + pre["low"]),
    }


def _result(
    mode: str,
    rate: float,
    residual_bps: float,
    windows: Dict[str, Tuple[int, int]],
    sampler: RateSampler,
    injector: FaultInjector,
    plan: FaultPlan,
) -> dict:
    rates = _window_rates(sampler, windows)
    return {
        "mode": mode,
        "rate_bps": rate,
        "residual_bps": residual_bps,
        "windows": {k: list(v) for k, v in windows.items()},
        "rates": rates,
        "invariants": _invariants(rates, residual_bps),
        "series": {group: series for group, series in sorted(sampler.series.items())},
        "faults": injector.stats(),
        "plan": plan.to_dict(),
    }


# ----------------------------------------------------------------------
# fault_flap: spine-link flap on a 2-ToR / 2-spine fabric
# ----------------------------------------------------------------------
def _attach_groups(net: Network, send_sw: Switch, recv_sw: Switch, rate: float) -> List[Host]:
    """Two quarter-rate high senders and two line-rate low senders on
    ``send_sw``, the receiver last on ``recv_sw``; builds the routes."""
    hosts = []
    for name, nic_rate in (("hi0", rate / 4), ("hi1", rate / 4), ("lo0", rate), ("lo1", rate)):
        hosts.append(net.add_host(name))
        net.connect(hosts[-1], send_sw, nic_rate, _LINK_DELAY_NS)
    hosts.append(net.add_host("recv"))
    net.connect(hosts[-1], recv_sw, rate, _LINK_DELAY_NS)
    net.build_routes()
    return hosts


def _flap_fabric(sim: Simulator, cfg: SwitchConfig, rate: float) -> Tuple[Network, List[Host]]:
    """2 ToRs under 2 spines at half rate; senders on ``tor0``, receiver on ``tor1``."""
    net = Network(sim, cfg)
    tor0 = net.add_switch("tor0")
    tor1 = net.add_switch("tor1")
    spine0 = net.add_switch("spine0")
    spine1 = net.add_switch("spine1")
    for tor in (tor0, tor1):
        net.connect(tor, spine0, rate / 2, _LINK_DELAY_NS)
        net.connect(tor, spine1, rate / 2, _LINK_DELAY_NS)
    return net, _attach_groups(net, tor0, tor1, rate)


def _flap_plan(flaps: int, seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(
                "link_down",
                ["tor0", "spine0"],
                Schedule(
                    "flap",
                    at_ns=1 * MILLISECOND,
                    duration_ns=1 * MILLISECOND,
                    period_ns=3 * MILLISECOND,
                    count=flaps,
                ),
            )
        ],
        seed=seed,
        detection_ns=50 * MICROSECOND,
    )


def run_fault_flap(
    mode: str = Mode.PRIOPLUS,
    rate: float = 10e9,
    flaps: int = 2,
    seed: int = 1,
    channels=None,
) -> dict:
    """One mode through the spine-flap scenario; see the module docstring.

    ``channels`` overrides the delay-channel placement for PrioPlus modes
    (the :mod:`repro.tune` channel tuner passes tuned bands here).
    """
    sim = Simulator(seed)
    factory = _factory(mode, channels=channels)
    net, hosts = _flap_fabric(sim, factory.switch_config(), rate)

    plan = _flap_plan(flaps, seed)
    injector = FaultInjector(sim, net, plan).arm()

    duration_ns = (1 + 3 * (flaps - 1) + 2) * MILLISECOND
    flows, senders, sampler = _launch_two_groups(
        sim, net, hosts, len(hosts) - 1, factory,
        n_high=2, n_low=2,
        high_demand_bps=rate / 4, low_demand_bps=rate,
        duration_ns=duration_ns,
    )
    sim.run(until=duration_ns)

    # the first down window is [1, 2) ms; measure after detection (50 us) and
    # RTO recovery (<= 500 us) have played out, and again after restoration
    windows = {
        "pre": (int(0.4 * MILLISECOND), 1 * MILLISECOND),
        "during": (int(1.6 * MILLISECOND), 2 * MILLISECOND),
        "post": (int(2.6 * MILLISECOND), 3 * MILLISECOND),
    }
    return _result(mode, rate, rate / 2, windows, sampler, injector, plan)


# ----------------------------------------------------------------------
# fault_degrade: the star bottleneck drops to half rate + lossy wire
# ----------------------------------------------------------------------
def _degrade_fabric(sim: Simulator, cfg: SwitchConfig, rate: float) -> Tuple[Network, List[Host]]:
    """Every host on one ``core`` switch; the receiver's downlink is the bottleneck."""
    net = Network(sim, cfg)
    core = net.add_switch("core")
    return net, _attach_groups(net, core, core, rate)


#: the degrade window's rate, wire-loss probability and delay spike
_DEGRADE_RATE_FACTOR = 0.5
_DEGRADE_DROP_PROB = 0.02
_DEGRADE_SPIKE_NS = 2_000


def _degrade_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(
                "link_degrade",
                ["core", "recv"],
                Schedule("oneshot", at_ns=1 * MILLISECOND, duration_ns=int(1.5 * MILLISECOND)),
                rate_factor=_DEGRADE_RATE_FACTOR,
                drop_prob=_DEGRADE_DROP_PROB,
                delay_spike_ns=_DEGRADE_SPIKE_NS,
            )
        ],
        seed=seed,
        detection_ns=50 * MICROSECOND,
    )


def run_fault_degrade(mode: str = Mode.PRIOPLUS, rate: float = 10e9, seed: int = 1) -> dict:
    """One mode through the degraded-bottleneck scenario."""
    sim = Simulator(seed)
    factory = _factory(mode)
    net, hosts = _degrade_fabric(sim, factory.switch_config(), rate)

    plan = _degrade_plan(seed)
    injector = FaultInjector(sim, net, plan).arm()

    duration_ns = 4 * MILLISECOND
    flows, senders, sampler = _launch_two_groups(
        sim, net, hosts, len(hosts) - 1, factory,
        n_high=2, n_low=2,
        high_demand_bps=rate / 4, low_demand_bps=rate,
        duration_ns=duration_ns,
    )
    sim.run(until=duration_ns)

    # degrade window is [1, 2.5) ms; no blackhole, so margins are smaller
    windows = {
        "pre": (int(0.4 * MILLISECOND), 1 * MILLISECOND),
        "during": (int(1.4 * MILLISECOND), int(2.5 * MILLISECOND)),
        "post": (3 * MILLISECOND, 4 * MILLISECOND),
    }
    return _result(mode, rate, rate * _DEGRADE_RATE_FACTOR, windows, sampler, injector, plan)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
def _reduce_fault(results: Mapping[str, dict]) -> dict:
    """Fold per-mode points: invariants table up front, full results kept."""
    return {
        "invariants": {name: r["invariants"] for name, r in results.items()},
        "faults": next(iter(results.values()))["faults"],
        "modes": dict(results),
    }


register(
    FunctionExperiment(
        "fault_flap",
        {m: (run_fault_flap, {"mode": m, "seed": 1}) for m in FAULT_MODES},
        description="per-priority goodput through a flapping spine link (50% residual capacity)",
        reduce_fn=_reduce_fault,
        quick_spec={m: (run_fault_flap, {"mode": m, "rate": 5e9, "flaps": 1, "seed": 1}) for m in FAULT_MODES},
    )
)

register(
    FunctionExperiment(
        "fault_degrade",
        {m: (run_fault_degrade, {"mode": m, "seed": 1}) for m in FAULT_MODES},
        description="per-priority goodput through a half-rate, lossy, delay-spiking bottleneck",
        reduce_fn=_reduce_fault,
        quick_spec={m: (run_fault_degrade, {"mode": m, "rate": 5e9, "seed": 1}) for m in FAULT_MODES},
    )
)
