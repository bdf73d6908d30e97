"""The hybrid fluid/packet simulation core (stdlib-only, like the rest of ``repro``).

* :mod:`repro.fluid.hybrid` — :class:`HybridDriver`: the regime cycle, the
  entry (with :mod:`repro.fluid.withdraw`) and the exit;
* :mod:`repro.fluid.epoch` — one fluid epoch's flows and its step loop;
* :mod:`repro.fluid.model` — the strict-priority max-min rate solver;
* :mod:`repro.fluid.laws` — per-scheme window ramp and ceiling.
"""

from __future__ import annotations

from .hybrid import FluidConfig, HybridDriver

__all__ = ["FluidConfig", "HybridDriver"]
