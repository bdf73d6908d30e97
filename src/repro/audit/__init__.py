"""Online invariant auditing for the simulation core (see docs/AUDIT.md).

Usage::

    from repro.audit import audit_scope

    with audit_scope("strict") as aud:
        sim = Simulator(seed=1)       # adopts a probe carrying the auditor
        ...build topology, run...
    assert aud.report.ok

or through the runner/CLI: ``python -m repro run fig8 --audit=strict``.
"""

from .auditor import (
    AuditError,
    AuditReport,
    AuditViolation,
    Auditor,
    audit_scope,
)

__all__ = [
    "AuditError",
    "AuditReport",
    "AuditViolation",
    "Auditor",
    "audit_scope",
]
