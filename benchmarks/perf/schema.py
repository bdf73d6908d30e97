"""Names, units, directions and regression bounds of every metric, and the
workload rationale — the single place ``run.py``, ``BENCHMARK.json`` and the
README tables are derived from (``benchmark_json()`` must equal the committed
root ``BENCHMARK.json``; the benchmark's own tests check that).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from tracing import LAYERS

#: how long one driver-mode run measures (``--seconds``); also the ledger default
RUN_SECONDS = 15

#: name -> one-line reason the workload exists (≤ 200 characters)
WORKLOADS: Dict[str, str] = {
    "flowsched_packet": (
        "Fig 11 point, pure packet (k=4, 10G, WebSearch load 0.7, PrioPlus x8): engine, port/switch, "
        "transport and the per-ACK PrioPlus law all work; fluid, admission and runner do nothing."
    ),
    "incast_pfc": (
        "Rounds of 15->1 incast at 100G under plain Swift with PFC: deep lossless queues, pause/resume "
        "and strict-priority dequeue dominate while the CC law is cheap; the opposite port/buffer regime."
    ),
    "longtrace_hybrid": (
        "0.2 s of the paper-scale long trace (320 hosts, streaming admission, P2 reduction, hybrid core): "
        ">98% of sim-time fluid yet most wall in packet mode; where going more fluid trades wall for fidelity."
    ),
    "bulk_fluid": (
        "400 waves of 8 x 2 MB cross-core transfers on the 320-host fabric, hybrid: the fluid solver and "
        "driver hold ~80% of the wall, so a packet-path change must show nothing here."
    ),
    "sweep_runner": (
        "30 tiny simulations through api.run(jobs=2) cold then warm, then the same pair against a serve "
        "daemon: pool dispatch, pickling, cache and daemon round-trips are the cost, not the simulation."
    ),
}


class EndToEnd(NamedTuple):
    unit: str
    better: str
    #: share of the reference median the metric may worsen by
    rel: float
    #: absolute slack added on top (0.2 s of set-up jitter, 0.01 of FCT error)
    abs_slack: float
    #: satisfies the driver contract (never 0, reported by every workload and
    #: every seed); the others ride in BENCHMARK.json's unbounded list
    in_driver: bool


END_TO_END: Dict[str, EndToEnd] = {
    # the issue asked for 10 %; identical work repeats here with an IQR of
    # 3-7 % of its median (2-core shared box, median of 5-6 reps per run), so
    # the bound is the contract's cap and gains are claimed by paired runs
    "wall_s": EndToEnd("s", "lower", 0.25, 0.0, True),
    "setup_s": EndToEnd("s", "lower", 0.25, 0.2, True),
    "rss_peak_mb": EndToEnd("MB", "lower", 0.10, 0.0, True),
    "failed_ratio": EndToEnd("ratio", "lower", 0.0, 0.0, False),
    "fct_mean_err": EndToEnd("ratio", "lower", 0.0, 0.01, False),
    "fct_group_err_max": EndToEnd("ratio", "lower", 0.0, 0.01, False),
}

#: metrics that are a pure function of (code, seed): two runs must agree exactly
DETERMINISTIC = ("failed_ratio", "fct_mean_err", "fct_group_err_max")


def worse_by(name: str, reference: float, value: float) -> Optional[float]:
    """How far ``value`` is past ``reference``'s bound (None when inside it)."""
    spec = END_TO_END[name]
    allowed = reference * (1.0 + spec.rel) + spec.abs_slack
    return value - allowed if value > allowed else None


class PerLayer(NamedTuple):
    unit: str
    better: str


def _per_layer() -> Dict[str, PerLayer]:
    out: Dict[str, PerLayer] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = PerLayer("s", "lower")
        out[f"{layer}.calls"] = PerLayer("count", "lower")
        out[f"{layer}.self_share"] = PerLayer("ratio", "lower")
    out.update(
        {
            "engine.events": PerLayer("count", "lower"),
            "engine.events_per_s": PerLayer("1/s", "higher"),
            "buffer_pfc.pfc_pauses": PerLayer("count", "lower"),
            "buffer_pfc.drops": PerLayer("count", "lower"),
            "transport.data_pkts": PerLayer("count", "lower"),
            "transport.acks": PerLayer("count", "lower"),
            "transport.rto_fires": PerLayer("count", "lower"),
            "cc.probe_acks": PerLayer("count", "lower"),
            "fluid_driver.epochs": PerLayer("count", "lower"),
            "fluid_driver.fluid_sim_share": PerLayer("ratio", "higher"),
            "fluid_driver.packet_wall_share": PerLayer("ratio", "lower"),
            "fluid_driver.drain_failures": PerLayer("count", "lower"),
            "fluid_driver.handoff_fresh_starts": PerLayer("count", "lower"),
            "admission.admitted": PerLayer("count", "higher"),
            "admission.live_peak": PerLayer("count", "lower"),
            "reduction.samples": PerLayer("count", "higher"),
            "runner.points": PerLayer("count", "higher"),
            "runner.exec_s_sum": PerLayer("s", "lower"),
            "runner.dispatch_overhead_s": PerLayer("s", "lower"),
            "runner.jobs1_wall_s": PerLayer("s", "lower"),
            "cache.hit_ratio": PerLayer("ratio", "higher"),
            "cache.warm_wall_ms": PerLayer("ms", "lower"),
            "serve.boot_s": PerLayer("s", "lower"),
            "serve.cold_wall_s": PerLayer("s", "lower"),
            "serve.warm_wall_ms": PerLayer("ms", "lower"),
            "serve.dispatch_overhead_ms": PerLayer("ms", "lower"),
            "sim.sim_ms": PerLayer("ms", "lower"),
            "sim.digest_match": PerLayer("count", "higher"),
            "trace.overhead_ratio": PerLayer("ratio", "lower"),
            "machine.calib_mops": PerLayer("Mops/s", "higher"),
        }
    )
    return out


PER_LAYER: Dict[str, PerLayer] = _per_layer()

#: counts read from public state after the untraced run: they repeat exactly
COUNT_METRICS = (
    "engine.events", "buffer_pfc.pfc_pauses", "buffer_pfc.drops", "fluid_driver.epochs",
    "fluid_driver.fluid_sim_share", "fluid_driver.drain_failures",
    "fluid_driver.handoff_fresh_starts", "admission.admitted", "admission.live_peak",
    "reduction.samples", "runner.points", "sim.sim_ms", "sim.digest_match",
)


def driver_end_to_end() -> List[str]:
    return [name for name, spec in END_TO_END.items() if spec.in_driver]


def driver_per_layer() -> List[str]:
    """Every name a ``--trace 1`` run prints: the three end-to-end metrics
    the driver's rules cannot hold a bound on, then the layer metrics."""
    return [name for name, spec in END_TO_END.items() if not spec.in_driver] + list(PER_LAYER)


def benchmark_json() -> dict:
    """The content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": END_TO_END[name].unit, "better": END_TO_END[name].better,
             "bound": END_TO_END[name].rel}
            for name in driver_end_to_end()
        ],
        "per_layer": [
            {"name": name, "unit": END_TO_END[name].unit, "better": END_TO_END[name].better}
            for name in END_TO_END if not END_TO_END[name].in_driver
        ] + [
            {"name": name, "unit": spec.unit, "better": spec.better}
            for name, spec in PER_LAYER.items()
        ],
    }
