"""Versioned request/response schema for the experiment-serving daemon.

Every payload that crosses the wire — the run request, the server-stats
snapshot, streamed progress events — is one of the dataclasses or event
constructors below, serialized as JSON and stamped with
:data:`PROTOCOL_VERSION`.  Server, client and :mod:`repro.api` share these
types, so the wire format is defined in exactly one place.

Versioning contract:

* every request and every response dict carries ``"version"``;
* a peer that receives a version it does not speak MUST reject the payload
  with :class:`ProtocolError` (the server maps it to HTTP 400 with an
  ``"error"`` body) rather than guess at field semantics;
* *unknown extra keys* are ignored on decode, so additive evolution within
  a version is safe; removals or semantic changes bump the version.

A run's progress rides in its ``POST /v1/run`` response as JSONL
(``application/x-ndjson``): one event object per line, ``"type"``
discriminated — ``point`` per finished point, then a terminal ``done`` or
``error``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SubmitRequest",
    "ServerStats",
    "check_version",
    "point_event",
    "done_event",
    "error_event",
]

#: the one protocol version this tree speaks
PROTOCOL_VERSION = 2

#: progress-event sources, in "how much work was saved" order
SOURCES = ("cache", "inflight", "run")


class ProtocolError(ValueError):
    """A payload failed schema or version validation."""


def check_version(payload: dict, what: str = "payload") -> None:
    """Reject any payload whose ``version`` is not :data:`PROTOCOL_VERSION`."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what}: expected a JSON object, got {type(payload).__name__}")
    version = payload.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{what}: protocol version {version!r} not supported; "
            f"this peer speaks version {PROTOCOL_VERSION}"
        )


@dataclass(frozen=True)
class SubmitRequest:
    """A request to run one registered experiment (all of its points).

    ``faults`` is a :meth:`repro.faults.plan.FaultPlan.to_dict` payload (or
    ``None``); it enters every point's cache key exactly as in the batch
    runner, so faulted and healthy results never alias.  ``audit`` is
    ``"strict"``/``"warn"``/``None`` with :func:`repro.runner.run_experiment`
    semantics.
    """

    experiment: str
    quick: bool = False
    faults: Optional[dict] = None
    audit: Optional[str] = None
    version: int = PROTOCOL_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SubmitRequest":
        check_version(payload, "submit request")
        experiment = payload.get("experiment")
        if not isinstance(experiment, str) or not experiment:
            raise ProtocolError("submit request: 'experiment' must be a non-empty string")
        audit = payload.get("audit")
        if audit not in (None, "strict", "warn"):
            raise ProtocolError(
                f"submit request: audit must be 'strict', 'warn' or null, got {audit!r}"
            )
        faults = payload.get("faults")
        if faults is not None and not isinstance(faults, dict):
            raise ProtocolError("submit request: 'faults' must be a fault-plan object or null")
        return cls(
            experiment=experiment,
            quick=bool(payload.get("quick", False)),
            faults=faults,
            audit=audit,
        )


@dataclass(frozen=True)
class ServerStats:
    """Whole-server snapshot returned by ``GET /v1/status``."""

    uptime_s: float
    jobs_total: int
    jobs_active: int
    points_total: int
    cache_hits: int
    inflight_hits: int
    executed: int
    worker_crashes: int
    fleet_jobs: int
    workers: List[int] = field(default_factory=list)  # live worker PIDs
    inflight_now: int = 0
    cache_dir: Optional[str] = None
    version: int = PROTOCOL_VERSION

    @property
    def hit_ratio(self) -> float:
        """Fraction of requested points served without a fresh simulation."""
        if self.points_total == 0:
            return 0.0
        return (self.cache_hits + self.inflight_hits) / self.points_total

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hit_ratio"] = self.hit_ratio
        return d

    @classmethod
    def from_dict(cls, payload: dict) -> "ServerStats":
        check_version(payload, "server stats")
        return cls(
            uptime_s=float(payload["uptime_s"]),
            jobs_total=int(payload["jobs_total"]),
            jobs_active=int(payload["jobs_active"]),
            points_total=int(payload["points_total"]),
            cache_hits=int(payload["cache_hits"]),
            inflight_hits=int(payload["inflight_hits"]),
            executed=int(payload["executed"]),
            worker_crashes=int(payload["worker_crashes"]),
            fleet_jobs=int(payload["fleet_jobs"]),
            workers=[int(p) for p in payload.get("workers", [])],
            inflight_now=int(payload.get("inflight_now", 0)),
            cache_dir=payload.get("cache_dir"),
        )


# ----------------------------------------------------------------------
# streamed progress events (JSONL lines; plain dicts, version-stamped)
# ----------------------------------------------------------------------
def point_event(point: str, source: str, done: int, total: int) -> dict:
    if source not in SOURCES:
        raise ProtocolError(f"point event: unknown source {source!r}")
    return {
        "type": "point",
        "version": PROTOCOL_VERSION,
        "point": point,
        "source": source,
        "done": done,
        "total": total,
    }


def done_event(result: dict, report: dict) -> dict:
    return {
        "type": "done",
        "version": PROTOCOL_VERSION,
        "result": result,
        "report": report,
    }


def error_event(message: str) -> dict:
    return {
        "type": "error",
        "version": PROTOCOL_VERSION,
        "error": message,
    }
