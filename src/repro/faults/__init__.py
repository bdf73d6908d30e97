"""Deterministic fault injection & chaos testing for the simulator.

Declare *what* breaks and *when* in a :class:`FaultPlan` (JSON-serialisable,
seeded, never wall-clock), then let a :class:`FaultInjector` apply it to a
built :class:`~repro.sim.network.Network` — or install it process-wide with
:func:`set_default_fault_plan` so any experiment picks it up (that is what
``python -m repro run <exp> --faults plan.json`` does).

See docs/FAULTS.md for the fault model, plan schema, and reconvergence
semantics.
"""

from .actors import (
    FaultActor,
    LinkDegradeActor,
    LinkDownActor,
    LinkImpairment,
    build_actor,
)
from .injector import FaultInjector
from .plan import (
    FAULT_KINDS,
    SCHEDULE_KINDS,
    FaultPlan,
    FaultSpec,
    Schedule,
    current_fault_plan,
    set_default_fault_plan,
)

__all__ = [
    "FAULT_KINDS",
    "SCHEDULE_KINDS",
    "FaultActor",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "LinkDegradeActor",
    "LinkDownActor",
    "LinkImpairment",
    "Schedule",
    "build_actor",
    "current_fault_plan",
    "set_default_fault_plan",
]
