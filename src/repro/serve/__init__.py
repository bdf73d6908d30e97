"""The experiment-serving daemon (``python -m repro serve``).

Long-running asyncio service over TCP or a unix socket: many concurrent
sweep clients, one persistent warm worker fleet, zero redundant simulation.
A run request's points are deduped against the on-disk content-addressed
cache *and* a live in-flight table, so two overlapping sweeps share point
executions.  See ``docs/SERVE.md`` for the three routes (``run``,
``status``, ``shutdown``); the stable programmatic surface is
:mod:`repro.api`.

Quick taste::

    python -m repro serve --unix /tmp/repro.sock --cache .repro-cache &
    python -m repro run fig10c --server /tmp/repro.sock
"""

from .inflight import InflightTable
from .protocol import PROTOCOL_VERSION, ProtocolError, ServerStats, SubmitRequest
from .server import BackgroundServer, ExperimentServer, serve_main

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SubmitRequest",
    "ServerStats",
    "InflightTable",
    "ExperimentServer",
    "BackgroundServer",
    "serve_main",
]
