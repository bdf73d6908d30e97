"""Synchronous client for the experiment-serving daemon.

:class:`ServeClient` speaks the versioned JSON protocol from
:mod:`repro.serve.protocol` over TCP or a unix socket, stdlib-only: ``run``
(one blocking ``POST /v1/run``), ``server_status`` and ``shutdown``.  It is
the transport behind ``repro.api.run(..., server=...)`` and
``repro.api.status`` — application code should normally go through
``repro.api`` rather than construct a client directly.

Addresses: ``"host:port"`` for TCP, anything containing a path separator
(or prefixed ``"unix:"``) for a unix socket::

    client = ServeClient("127.0.0.1:8642")
    client = ServeClient("/tmp/repro.sock")
    client = ServeClient("unix:/tmp/repro.sock")
"""

from __future__ import annotations

import json
import socket
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from .serve.protocol import ServerStats, SubmitRequest, check_version

__all__ = ["ServeClient", "ServeError", "parse_address"]


class ServeError(RuntimeError):
    """The server rejected a request or a run failed remotely."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[int, object]:
    """Normalize an address into ``(address_family, connect_arg)``."""
    if isinstance(address, tuple):
        return socket.AF_INET, address
    if address.startswith("unix:"):
        return socket.AF_UNIX, address[len("unix:"):]
    if "/" in address or address.startswith("."):
        return socket.AF_UNIX, address
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(
            f"cannot parse server address {address!r}; want 'host:port', a "
            f"unix socket path, or 'unix:/path'"
        )
    return socket.AF_INET, (host or "127.0.0.1", int(port))


class ServeClient:
    """One server address; every call opens a short-lived connection."""

    def __init__(self, address: Union[str, Tuple[str, int]], timeout: float = 600.0):
        self.address = address
        self.family, self.connect_arg = parse_address(address)
        self.timeout = timeout

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.socket(self.family, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.connect_arg)
        return sock

    def _send_request(self, sock: socket.socket, method: str, path: str, body: Optional[dict]):
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
        host = (
            f"{self.connect_arg[0]}:{self.connect_arg[1]}"
            if self.family == socket.AF_INET
            else "localhost"
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        sock.sendall(head.encode("latin-1") + payload)

    @staticmethod
    def _read_head(fh) -> Tuple[int, Dict[str, str]]:
        status_line = fh.readline().decode("latin-1").strip()
        if not status_line:
            raise ServeError("server closed the connection before responding")
        try:
            status = int(status_line.split(" ", 2)[1])
        except (IndexError, ValueError):
            raise ServeError(f"malformed status line {status_line!r}") from None
        headers: Dict[str, str] = {}
        while True:
            line = fh.readline().decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    def _request_json(self, method: str, path: str) -> dict:
        with self._connect() as sock:
            self._send_request(sock, method, path, None)
            with sock.makefile("rb") as fh:
                status, headers = self._read_head(fh)
                length = headers.get("content-length")
                raw = fh.read(int(length)) if length is not None else fh.read()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            raise ServeError(f"non-JSON response (HTTP {status})", status) from None
        if status >= 400:
            raise ServeError(
                str(payload.get("error", f"HTTP {status}")), status
            )
        return payload

    def _stream_jsonl(self, method: str, path: str, body: dict) -> Iterator[dict]:
        sock = self._connect()
        fh = sock.makefile("rb")
        try:
            self._send_request(sock, method, path, body)
            status, _headers = self._read_head(fh)
            if status >= 400:
                raw = fh.read()
                try:
                    payload = json.loads(raw.decode("utf-8"))
                    message = str(payload.get("error", f"HTTP {status}"))
                except ValueError:
                    message = f"HTTP {status}"
                raise ServeError(message, status)
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line.decode("utf-8"))
                yield event
                # Run streams are close-delimited, but a worker process forked
                # while some *other* stream was open can inherit (and pin) this
                # connection's fd on the server side — so never rely on EOF:
                # the terminal event is the authoritative end of stream.
                if event.get("type") in ("done", "error"):
                    return
        finally:
            fh.close()
            sock.close()

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    def server_status(self) -> ServerStats:
        return ServerStats.from_dict(self._request_json("GET", "/v1/status"))

    def run(
        self,
        experiment: str,
        quick: bool = False,
        faults: Optional[dict] = None,
        audit: Optional[str] = None,
        on_progress: Optional[Callable[[str, str], None]] = None,
        report: Optional[dict] = None,
    ) -> dict:
        """Run ``experiment`` on the daemon and return its reduced result.

        ``on_progress`` mirrors :func:`repro.runner.run_experiment`'s
        callback signature ``(point_name, source)`` with source one of
        ``"cache"``/``"inflight"``/``"run"``.  ``report``, when given, is
        filled in place with the server-side run statistics.
        """
        request = SubmitRequest(experiment=experiment, quick=quick, faults=faults, audit=audit)
        result = None
        failed: Optional[str] = None
        for event in self._stream_jsonl("POST", "/v1/run", request.to_dict()):
            check_version(event, "stream event")
            kind = event["type"]
            if kind == "point" and on_progress is not None:
                on_progress(event["point"], event["source"])
            elif kind == "done":
                result = event["result"]
                if report is not None:
                    report.update(event.get("report", {}))
            elif kind == "error":
                failed = event["error"]
        if failed is not None:
            raise ServeError(failed)
        if result is None:
            raise ServeError("stream ended without a done event")
        return result

    def shutdown(self) -> None:
        """Ask the daemon to stop; in-flight work is dropped."""
        self._request_json("POST", "/v1/shutdown")
