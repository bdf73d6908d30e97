"""``python -m repro serve`` — the experiment-serving daemon.

A single-process asyncio server that runs experiments on request over HTTP
(TCP or a unix socket), schedules their points across one persistent
crash-tolerant :class:`~repro.runner.scheduler.WorkerFleet`, dedupes work
against both the on-disk content-addressed cache and a live
:class:`~repro.serve.inflight.InflightTable`, and streams point-granular
progress as JSONL.  Many concurrent sweep clients, one warm fleet, zero
redundant simulation.

Endpoints (all JSON; the run stream is ``application/x-ndjson``):

======================  ====================================================
``POST /v1/run``        :class:`SubmitRequest` body → the run's events,
                        ``point`` per finished point, then ``done`` (result
                        and report) or ``error``; the response ends with it
``GET  /v1/status``     whole-server :class:`ServerStats`
``POST /v1/shutdown``   stop the daemon
======================  ====================================================

Determinism: a run goes through the batch runner's own plan, settle and
reduce steps (:mod:`repro.runner.pool`) around ``execute_point`` — so a
served result is byte-identical to ``run_experiment(exp, jobs=1)``.  The
event *order* within a stream reflects completion order and is not
deterministic; the result is.

A run lives as long as its execution and its response: a client that hangs
up does not stop it (its points still fill the cache and resolve any
concurrent run waiting on them), and a finished run leaves nothing behind.
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
from urllib.parse import urlsplit

from ..experiments.registry import REGISTRY, FunctionExperiment, Point
from ..faults.plan import plan_dict
from ..runner.cache import ResultCache, json_safe
from ..runner.pool import plan_points, point_error, reduce_points, settle_point
from ..runner.scheduler import RunnerError, WorkerFleet
from .inflight import InflightTable
from .protocol import (
    ProtocolError,
    ServerStats,
    SubmitRequest,
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
    """One accepted run request: its plan, its progress and its event queue.

    Only the job's execution task and its response hold it, so it is freed
    once both are done.
    """

    def __init__(self, request: SubmitRequest, exp: FunctionExperiment, points: List[Point],
                 keys: Dict[str, str], faults_dict: Optional[dict]):
        self.request = request
        self.exp = exp
        self.points = points
        self.keys = keys
        self.faults_dict = faults_dict
        self.sources: Dict[str, int] = {"cache": 0, "inflight": 0, "run": 0}
        self.t0 = time.monotonic()
        self.events: asyncio.Queue = asyncio.Queue()

    async def follow(self) -> AsyncIterator[dict]:
        """The job's events as they happen, through ``done``/``error``."""
        while True:
            event = await self.events.get()
            yield event
            if event["type"] in _TERMINAL:
                return


class ExperimentServer:
    """The daemon core: fleet + dedupe + run counters + HTTP front end."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[str] = None,
    ):
        REGISTRY.load_all()
        self.fleet = WorkerFleet((os.cpu_count() or 1) if jobs is None else jobs)
        # Fork the workers *now*, before any listening or connection sockets
        # exist.  Forked children inherit every open fd; a worker forked while
        # a close-delimited stream response is in flight would hold that
        # connection open forever (the client waits for an EOF that never
        # comes).  Warming the fleet pre-socket keeps worker fd tables clean.
        self.fleet.prewarm()
        self.cache = ResultCache(cache) if cache else None
        self.cache_dir = str(self.cache.root) if self.cache else None
        self.inflight = InflightTable()
        self._job_tasks: set = set()
        self._t_start = time.monotonic()
        self._stopping: Optional[asyncio.Event] = None
        self._servers: List[asyncio.AbstractServer] = []
        #: lifetime counters: run requests accepted / still running, and
        #: points across all of them
        self.jobs_total = 0
        self.jobs_active = 0
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
            None, lambda: self.fleet.shutdown(wait=False)
        )

    def stats(self) -> ServerStats:
        return ServerStats(
            uptime_s=time.monotonic() - self._t_start,
            jobs_total=self.jobs_total,
            jobs_active=self.jobs_active,
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
        exp = REGISTRY.get(request.experiment)  # KeyError -> 404 upstream
        if request.quick:
            exp = exp.quick()
        try:
            faults_dict = plan_dict(request.faults)
        except ValueError as exc:
            raise RunnerError(f"{exp.name}: {exc}") from None
        points, keys = plan_points(exp, faults_dict)
        return Job(request, exp, points, keys, faults_dict)

    def _start_job(self, request: SubmitRequest) -> Job:
        job = self._make_job(request)
        self.jobs_total += 1
        self.jobs_active += 1
        task = asyncio.get_running_loop().create_task(self._execute_job(job))
        # hold a strong reference: the loop keeps only a weak one, and a
        # mid-flight GC of the task would silently drop the run
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return job

    async def _execute_job(self, job: Job) -> None:
        try:
            result, report = await self._execute(job)
            job.events.put_nowait(done_event(json_safe(result), report))
        except Exception as exc:
            job.events.put_nowait(error_event(f"{type(exc).__name__}: {exc}"))
        finally:
            self.jobs_active -= 1

    async def _execute(self, job: Job):
        """Resolve every point through cache → inflight table → fleet.

        The runner's settle and reduce steps do the rest, so the result is
        the one ``run_experiment`` gives.
        """
        exp, audit = job.exp, job.request.audit
        results: Dict[str, dict] = {}
        audit_reports: Dict[str, dict] = {}

        def record(point: Point, source: str, result: dict) -> None:
            results[point.name] = result
            job.sources[source] += 1
            self.points_total += 1
            if source == "cache":
                self.cache_hits += 1
            elif source == "run":
                self.executed += 1
            job.events.put_nowait(
                point_event(point.name, source, sum(job.sources.values()), len(job.points))
            )

        async def one(point: Point) -> None:
            key = job.keys[point.name]
            entry = self.cache.get(exp.name, key) if self.cache is not None else None
            if entry is not None:
                record(point, "cache", entry["result"])
                return
            fut, owner = self.inflight.claim(key)
            if not owner:
                # someone else (this job or a concurrent one) is computing it
                record(point, "inflight", await fut)
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
            record(point, "run", result)

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
            pass  # client went away; its run still finishes and fills the cache
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
        await self._route(writer, method.upper(), urlsplit(target).path, body)

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

    async def _route(self, writer, method: str, path: str, body: bytes):
        if method == "GET" and path == "/v1/status":
            await self._respond_json(writer, 200, self.stats().to_dict())
        elif method == "POST" and path == "/v1/run":
            try:
                request = SubmitRequest.from_dict(json.loads(body.decode("utf-8")))
            except (ValueError, ProtocolError) as exc:
                await self._respond_json(writer, 400, {"error": str(exc)})
                return
            try:
                job = self._start_job(request)
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
            await self._stream_events(writer, job.follow())
        elif method == "POST" and path == "/v1/shutdown":
            await self._respond_json(writer, 200, {"ok": True, "stopping": True})
            self.request_stop()
        else:
            await self._respond_json(
                writer, 404, {"error": f"no route {method} {path}"}
            )

    async def _respond_json(self, writer, status: int, payload: dict) -> None:
        body = (json.dumps(json_safe(payload)) + "\n").encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 408: "Request Timeout",
                  413: "Payload Too Large", 500: "Internal Server Error"}.get(status, "OK")
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
# embedding: run a server on a background thread (tests)
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
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")

    server = ExperimentServer(jobs=args.jobs, cache=args.cache)

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
