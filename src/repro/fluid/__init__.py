"""The hybrid fluid/packet simulation core (stdlib-only, like the rest of ``repro``).

* :mod:`repro.fluid.model` — strict-priority max-min water-filling rate
  solver over per-flow link lists;
* :mod:`repro.fluid.laws` — per-scheme fluid rate laws (window ramp and
  ceiling for Swift / DCQCN / PrioPlus);
* :mod:`repro.fluid.hybrid` — :class:`HybridDriver`, which alternates
  packet-level DES with fixed-Δt fluid epochs under a quiescence predicate.
"""

from __future__ import annotations

from .hybrid import FluidConfig, HybridDriver

__all__ = ["FluidConfig", "HybridDriver"]
