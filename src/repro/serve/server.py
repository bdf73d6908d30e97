"""``python -m repro serve`` — the experiment-serving daemon.

A single-process asyncio server that accepts experiment requests over HTTP
(TCP or a unix socket), schedules their points across one persistent
crash-tolerant :class:`~repro.runner.scheduler.WorkerFleet`, dedupes work
against both the on-disk content-addressed cache and a live
:class:`~repro.serve.inflight.InflightTable`, and streams point-granular
progress as JSONL.  Many concurrent sweep clients, one warm fleet, zero
redundant simulation.

Endpoints (all JSON; streams are ``application/x-ndjson``, close-delimited):

================================  =============================================
``GET  /v1/health``               liveness + protocol version
``GET  /v1/experiments``          registered experiment names + descriptions
``GET  /v1/status``               whole-server :class:`ServerStats`
``GET  /v1/status?job=ID``        one job's :class:`JobStatus`
``GET  /v1/result?job=ID``        final reduced result (409 while running)
``GET  /v1/stream?job=ID&from=N`` replay the job's event log from index N, then
                                  follow live until ``done``/``error``
``POST /v1/submit``               :class:`SubmitRequest` body → ``{"job_id"}``
``POST /v1/run``                  submit + stream in one response
``GET  /v1/cache``                cache inspection (entries per experiment)
``POST /v1/shutdown``             stop the daemon
================================  =============================================

Determinism: a job runs the batch runner's own plan, settle and reduce steps
(:mod:`repro.runner.pool`) around ``execute_point`` — so a served result is
byte-identical to ``run_experiment(exp, jobs=1)``.  The event *order* within
a stream reflects completion order and is not deterministic; the result is.

Every job keeps its full event log in memory, which is what makes
``/v1/stream`` reconnectable: a client that lost its connection re-attaches
with ``from=<next index>`` (or 0 for a full replay) and misses nothing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
import time
from typing import AsyncIterator, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..experiments.registry import REGISTRY, Experiment, Point
from ..faults.plan import plan_dict
from ..runner.cache import ResultCache, json_safe
from ..runner.pool import plan_points, point_error, reduce_points, settle_point
from ..runner.scheduler import RunnerError, WorkerFleet
from .inflight import InflightTable
from .protocol import (
    PROTOCOL_VERSION,
    JobStatus,
    ProtocolError,
    ServerStats,
    SubmitRequest,
    accepted_event,
    done_event,
    error_event,
    point_event,
)

__all__ = ["ExperimentServer", "BackgroundServer", "serve_main"]

_TERMINAL = ("done", "error")

#: largest request body the daemon buffers.  The only body it accepts is a
#: SubmitRequest (a few kB even with an inline fault plan), so 1 MiB is
#: generous; anything larger is refused before a byte of it is read.
MAX_BODY_BYTES = 1 << 20

#: seconds a client gets to deliver request line + headers + body; a
#: connection that stays silent longer is answered 408 and closed instead of
#: pinning a task forever.
REQUEST_READ_TIMEOUT_S = 10.0


class _RequestRejected(Exception):
    """A request refused while being read; carries the HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Job:
    """One accepted submit request and its replayable event log."""

    def __init__(self, job_id: str, request: SubmitRequest, exp: Experiment, points: List[Point],
                 keys: Dict[str, str], faults_dict: Optional[dict]):
        self.job_id = job_id
        self.request = request
        self.exp = exp
        self.points = points
        self.keys = keys
        self.faults_dict = faults_dict
        self.state = "running"
        self.result: Optional[dict] = None
        self.report: Dict[str, object] = {}
        self.error: Optional[str] = None
        self.sources: Dict[str, int] = {"cache": 0, "inflight": 0, "run": 0}
        self.t0 = time.monotonic()
        self.wall_s = 0.0
        self.events: List[dict] = []
        self._changed = asyncio.Condition()

    async def append(self, event: dict) -> None:
        async with self._changed:
            self.events.append(event)
            self._changed.notify_all()

    async def follow(self, start: int = 0) -> AsyncIterator[dict]:
        """Replay the event log from ``start``, then follow live to the end."""
        i = max(0, start)
        while True:
            while i < len(self.events):
                event = self.events[i]
                i += 1
                yield event
                if event["type"] in _TERMINAL:
                    return
            async with self._changed:
                if i >= len(self.events):
                    await self._changed.wait()

    def status(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            experiment=self.request.experiment,
            state=self.state,
            points_total=len(self.points),
            points_done=sum(self.sources.values()),
            sources=dict(self.sources),
            tag=self.request.tag,
            wall_s=self.wall_s if self.state != "running" else time.monotonic() - self.t0,
            error=self.error,
        )


class ExperimentServer:
    """The daemon core: fleet + dedupe + job book-keeping + HTTP front end."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[str] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.25,
        registry=REGISTRY,
    ):
        self.registry = registry
        self.registry.load_all()
        self.fleet = WorkerFleet(
            jobs or os.cpu_count() or 1,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
        )
        # Fork the workers *now*, before any listening or connection sockets
        # exist.  Forked children inherit every open fd; a worker forked while
        # a close-delimited stream response is in flight would hold that
        # connection open forever (the client waits for an EOF that never
        # comes).  Warming the fleet pre-socket keeps worker fd tables clean.
        self.fleet.prewarm()
        self.cache = ResultCache(cache) if cache else None
        self.cache_dir = str(self.cache.root) if self.cache else None
        self.inflight = InflightTable()
        self.jobs: Dict[str, Job] = {}
        self._job_seq = 0
        self._job_tasks: set = set()
        self._t_start = time.monotonic()
        self._stopping: Optional[asyncio.Event] = None
        self._servers: List[asyncio.AbstractServer] = []
        #: lifetime point counters across all jobs
        self.points_total = 0
        self.cache_hits = 0
        self.executed = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> str:
        server = await asyncio.start_server(self._handle_conn, host=host, port=port)
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return f"{bound[0]}:{bound[1]}"

    async def start_unix(self, path: str) -> str:
        server = await asyncio.start_unix_server(self._handle_conn, path=path)
        self._servers.append(server)
        return path

    async def run_until_stopped(self) -> None:
        self._stopping = asyncio.Event()
        await self._stopping.wait()
        await self.aclose()

    def request_stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    async def aclose(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        # the fleet's workers die with the daemon; pending tasks are dropped
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.fleet.shutdown(wait=False, cancel_futures=True)
        )

    def stats(self) -> ServerStats:
        return ServerStats(
            uptime_s=time.monotonic() - self._t_start,
            jobs_total=len(self.jobs),
            jobs_active=sum(1 for j in self.jobs.values() if j.state == "running"),
            points_total=self.points_total,
            cache_hits=self.cache_hits,
            inflight_hits=self.inflight.hits,
            executed=self.executed,
            worker_crashes=self.fleet.stats["crashes"],
            fleet_jobs=self.fleet.jobs,
            workers=self.fleet.worker_pids(),
            inflight_now=len(self.inflight),
            cache_dir=self.cache_dir,
        )

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _make_job(self, request: SubmitRequest) -> Job:
        """Resolve, canonicalise and plan a request; a bad one never becomes a job."""
        exp = self.registry.get(request.experiment)  # KeyError -> 404 upstream
        if request.quick:
            exp = exp.quick()
        try:
            faults_dict = plan_dict(request.faults)
        except ValueError as exc:
            raise RunnerError(f"{exp.name}: {exc}") from None
        points, keys = plan_points(exp, faults_dict)
        self._job_seq += 1
        job = Job(f"job-{self._job_seq:06d}", request, exp, points, keys, faults_dict)
        self.jobs[job.job_id] = job
        return job

    async def _start_job(self, request: SubmitRequest) -> Job:
        job = self._make_job(request)
        await job.append(
            accepted_event(job.job_id, request.experiment, len(job.points))
        )
        task = asyncio.get_running_loop().create_task(self._execute_job(job))
        # hold a strong reference: the loop keeps only a weak one, and a
        # mid-flight GC of the task would silently strand the job as "running"
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return job

    async def _execute_job(self, job: Job) -> None:
        try:
            result, report = await self._execute(job)
            job.result = result
            job.report = report
            job.state = "done"
            job.wall_s = time.monotonic() - job.t0
            await job.append(done_event(job.job_id, json_safe(result), report))
        except Exception as exc:
            job.state = "error"
            job.error = f"{type(exc).__name__}: {exc}"
            job.wall_s = time.monotonic() - job.t0
            await job.append(error_event(job.job_id, job.error))

    async def _execute(self, job: Job):
        """Resolve every point through cache → inflight table → fleet.

        The runner's settle and reduce steps do the rest, so the result is
        the one ``run_experiment`` gives.
        """
        exp, audit = job.exp, job.request.audit
        results: Dict[str, dict] = {}
        audit_reports: Dict[str, dict] = {}

        async def record(point: Point, source: str, result: dict) -> None:
            results[point.name] = result
            job.sources[source] += 1
            self.points_total += 1
            if source == "cache":
                self.cache_hits += 1
            elif source == "run":
                self.executed += 1
            await job.append(
                point_event(
                    job.job_id, point.name, source,
                    sum(job.sources.values()), len(job.points),
                )
            )

        async def one(point: Point) -> None:
            key = job.keys[point.name]
            entry = self.cache.get(exp.name, key) if self.cache is not None else None
            if entry is not None:
                await record(point, "cache", entry["result"])
                return
            fut, owner = self.inflight.claim(key)
            if not owner:
                # someone else (this job or a concurrent one) is computing it
                await record(point, "inflight", await fut)
                return
            try:
                raw = await asyncio.wrap_future(
                    self.fleet.submit(exp, point, audit, job.faults_dict)
                )
            except Exception as exc:
                err = point_error(exp, point, exc)
                fut.set_exception(err)
                fut.exception()  # mark retrieved: followers may or may not exist
                raise err
            finally:
                self.inflight.release(key)
            result = settle_point(exp, point, key, raw, self.cache, audit_reports)
            fut.set_result(result)
            await record(point, "run", result)

        await asyncio.gather(*(one(p) for p in job.points))

        report = {
            "experiment": exp.name,
            "points": len(job.points),
            "cache_hits": job.sources["cache"],
            "inflight_hits": job.sources["inflight"],
            "executed": job.sources["run"],
            "jobs": self.fleet.jobs,
        }
        reduced = reduce_points(
            exp, job.points, results, job.sources["run"], audit, audit_reports, report
        )
        report["wall_s"] = time.monotonic() - job.t0
        return reduced, report

    # ------------------------------------------------------------------
    # HTTP front end (hand-rolled HTTP/1.1 subset, Connection: close)
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, BrokenPipeError):
            pass  # client went away; jobs keep running, streams are replayable
        except Exception as exc:  # pragma: no cover - last-resort 500
            try:
                await self._respond_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_request(self, reader, writer) -> None:
        try:
            request = await asyncio.wait_for(
                self._read_request(reader), REQUEST_READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            await self._respond_json(writer, 408, {"error": "request read timed out"})
            return
        except _RequestRejected as rejected:
            await self._respond_json(writer, rejected.status, {"error": str(rejected)})
            return
        if request is None:
            return
        method, target, body = request
        parts = urlsplit(target)
        params = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        await self._route(writer, method.upper(), parts.path, params, body)

    async def _read_request(self, reader) -> Optional[Tuple[str, str, bytes]]:
        """Request line + headers + body; ``None`` when the client sent nothing.

        The only part of a connection whose pace and size the *client* sets,
        hence the one place the read timeout and body cap apply (responses
        and event streams are paced by the daemon).
        """
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return None
        try:
            method, target, _ = request_line.split(" ", 2)
        except ValueError:
            raise _RequestRejected(400, "malformed request line") from None
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _RequestRejected(400, "bad content-length") from None
        if content_length < 0:
            raise _RequestRejected(400, "negative content-length")
        if content_length > MAX_BODY_BYTES:
            raise _RequestRejected(
                413, f"body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(content_length) if content_length else b""
        return method, target, body

    async def _route(self, writer, method: str, path: str, params: Dict[str, str], body: bytes):
        if method == "GET" and path == "/v1/health":
            await self._respond_json(
                writer, 200, {"ok": True, "version": PROTOCOL_VERSION}
            )
        elif method == "GET" and path == "/v1/experiments":
            await self._respond_json(
                writer,
                200,
                {
                    "version": PROTOCOL_VERSION,
                    "experiments": {
                        e.name: e.description for e in self.registry.experiments()
                    },
                },
            )
        elif method == "GET" and path == "/v1/status":
            job_id = params.get("job")
            if job_id is None:
                await self._respond_json(writer, 200, self.stats().to_dict())
                return
            job = self.jobs.get(job_id)
            if job is None:
                await self._respond_json(writer, 404, {"error": f"unknown job {job_id!r}"})
                return
            await self._respond_json(writer, 200, job.status().to_dict())
        elif method == "GET" and path == "/v1/result":
            job = self.jobs.get(params.get("job", ""))
            if job is None:
                await self._respond_json(writer, 404, {"error": "unknown job"})
            elif job.state == "running":
                await self._respond_json(
                    writer, 409, {"error": f"job {job.job_id} still running"}
                )
            elif job.state == "error":
                await self._respond_json(
                    writer, 500, {"error": job.error, "job_id": job.job_id}
                )
            else:
                await self._respond_json(
                    writer,
                    200,
                    {
                        "version": PROTOCOL_VERSION,
                        "job_id": job.job_id,
                        "result": json_safe(job.result),
                        "report": job.report,
                    },
                )
        elif method == "GET" and path == "/v1/stream":
            job = self.jobs.get(params.get("job", ""))
            if job is None:
                await self._respond_json(writer, 404, {"error": "unknown job"})
                return
            start = int(params.get("from", 0))
            await self._stream_events(writer, job.follow(start))
        elif method == "GET" and path == "/v1/cache":
            info = self.cache.info() if self.cache is not None else None
            await self._respond_json(
                writer, 200, {"version": PROTOCOL_VERSION, "cache": info}
            )
        elif method == "POST" and path in ("/v1/submit", "/v1/run"):
            try:
                request = SubmitRequest.from_dict(json.loads(body.decode("utf-8")))
            except (ValueError, ProtocolError) as exc:
                await self._respond_json(writer, 400, {"error": str(exc)})
                return
            try:
                job = await self._start_job(request)
            except KeyError:
                await self._respond_json(
                    writer,
                    404,
                    {"error": f"unknown experiment {request.experiment!r}"},
                )
                return
            except RunnerError as exc:
                await self._respond_json(writer, 400, {"error": str(exc)})
                return
            if path == "/v1/submit":
                await self._respond_json(
                    writer,
                    202,
                    {
                        "version": PROTOCOL_VERSION,
                        "job_id": job.job_id,
                        "points_total": len(job.points),
                    },
                )
            else:
                await self._stream_events(writer, job.follow(0))
        elif method == "POST" and path == "/v1/shutdown":
            await self._respond_json(writer, 200, {"ok": True, "stopping": True})
            self.request_stop()
        else:
            await self._respond_json(
                writer, 404, {"error": f"no route {method} {path}"}
            )

    async def _respond_json(self, writer, status: int, payload: dict) -> None:
        body = (json.dumps(json_safe(payload)) + "\n").encode("utf-8")
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
                  408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
                  500: "Internal Server Error"}.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        writer.write(body)
        await writer.drain()

    async def _stream_events(self, writer, events: AsyncIterator[dict]) -> None:
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        async for event in events:
            writer.write((json.dumps(json_safe(event)) + "\n").encode("utf-8"))
            await writer.drain()


# ----------------------------------------------------------------------
# embedding: run a server on a background thread (tests, load harness)
# ----------------------------------------------------------------------
class BackgroundServer:
    """An :class:`ExperimentServer` on its own thread + event loop.

    The canonical way to embed the daemon in a test or harness process::

        with BackgroundServer(unix_path=sock, jobs=2, cache=dir) as srv:
            client = ServeClient(srv.address)
            ...

    ``srv.server`` is the live :class:`ExperimentServer` (read-only access
    from other threads is fine for counters; mutation must go through the
    protocol).
    """

    def __init__(
        self,
        unix_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **server_kwargs,
    ):
        self.server = ExperimentServer(**server_kwargs)
        self._unix_path = unix_path
        self._host, self._port = host, port
        self.address: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True, name="repro-serve")
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.address is None:
            raise RuntimeError("serve thread failed to start in time")
        return self

    def _run(self) -> None:
        async def main():
            try:
                if self._unix_path is not None:
                    self.address = await self.server.start_unix(self._unix_path)
                else:
                    self.address = await self.server.start_tcp(self._host, self._port)
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.run_until_stopped()

        asyncio.run(main())

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
            self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def serve_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Run the experiment-serving daemon: a warm worker fleet behind an "
            "HTTP API with content-addressed + in-flight dedupe (docs/SERVE.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP bind host (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8642, help="TCP bind port (default: 8642)")
    parser.add_argument(
        "--unix", metavar="PATH", default=None,
        help="listen on a unix socket at PATH instead of TCP",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker fleet size (default: all cores)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="content-addressed result cache directory (strongly recommended)",
    )
    parser.add_argument("--max-retries", type=int, default=2, help="crash retries per point")
    parser.add_argument(
        "--retry-backoff", type=float, default=0.25, metavar="S",
        help="base crash-retry backoff in seconds",
    )
    args = parser.parse_args(argv)

    server = ExperimentServer(
        jobs=args.jobs,
        cache=args.cache,
        max_retries=args.max_retries,
        retry_backoff_s=args.retry_backoff,
    )

    async def main() -> None:
        if args.unix:
            address = await server.start_unix(args.unix)
            kind = "unix"
        else:
            address = await server.start_tcp(args.host, args.port)
            kind = "tcp"
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        print(
            f"[serve] listening on {kind}:{address} "
            f"(fleet={server.fleet.jobs}, cache={server.cache_dir or 'off'})",
            file=sys.stderr,
            flush=True,
        )
        await server.run_until_stopped()

    asyncio.run(main())
    return 0
