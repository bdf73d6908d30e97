"""The serving daemon: protocol schema, dedupe, crash tolerance, bounded reads.

Each test boots a real :class:`BackgroundServer` on a unix socket in
``tmp_path`` and talks to it through the public client — no mocked
transport.  Custom experiments are registered into a private registry; their
point functions are module-level so the fleet's forked workers can unpickle
them by reference (same contract as ``tests/test_runner.py``).
"""

import contextlib
import gc
import json
import os
import socket
import threading
import time

import pytest

from repro import api
from repro.client import ServeClient, ServeError, parse_address
from repro.experiments.registry import REGISTRY, FunctionExperiment
from repro.runner import RunnerError, run_experiment, scheduler
from repro.serve import BackgroundServer
from repro.serve.inflight import InflightTable
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServerStats,
    SubmitRequest,
    check_version,
    point_event,
)
from repro.serve.server import Job


@pytest.fixture(autouse=True)
def _fast_crash_retry(monkeypatch):
    monkeypatch.setattr(scheduler, "RETRY_BACKOFF_S", 0.05)


# ----------------------------------------------------------------------
# point functions (module-level: picklable by reference into workers)
# ----------------------------------------------------------------------
def _quick_point(value=1, seed=0):
    return {"value": value, "seed": seed}


def _slow_point(delay_s=0.5, seed=0):
    time.sleep(delay_s)
    return {"ok": True, "seed": seed}


def _crash_once_point(marker="", seed=0):
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("crashed")
        os._exit(42)  # simulate a segfault/OOM-kill mid-request
    return {"recovered": True}


@contextlib.contextmanager
def _make_server(tmp_path, experiments=(), cache=True, **kwargs):
    """A BackgroundServer on a unix socket, serving ``experiments`` from the
    process registry for its lifetime."""
    REGISTRY.load_all()
    for exp in experiments:
        REGISTRY.register(exp)
    try:
        with BackgroundServer(
            unix_path=str(tmp_path / "serve.sock"),
            jobs=2,
            cache=str(tmp_path / "cache") if cache else None,
            **kwargs,
        ) as srv:
            yield srv
    finally:
        for exp in experiments:
            del REGISTRY._experiments[exp.name]


# ----------------------------------------------------------------------
# protocol schema: round-trip + version rejection
# ----------------------------------------------------------------------
def test_submit_request_round_trip():
    req = SubmitRequest(
        experiment="fig6", quick=True, faults={"seed": 7, "faults": []},
        audit="warn",
    )
    decoded = SubmitRequest.from_dict(json.loads(json.dumps(req.to_dict())))
    assert decoded == req
    assert decoded.version == PROTOCOL_VERSION


def test_status_round_trip():
    stats = ServerStats(
        uptime_s=10.0, jobs_total=2, jobs_active=0, points_total=4,
        cache_hits=1, inflight_hits=1, executed=2, worker_crashes=0,
        fleet_jobs=2, workers=[1, 2], inflight_now=0, cache_dir="/tmp/c",
    )
    decoded = ServerStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert decoded == stats
    assert decoded.hit_ratio == 0.5


def test_unknown_extra_keys_are_ignored():
    payload = SubmitRequest(experiment="fig6").to_dict()
    payload["future_field"] = {"anything": 1}
    assert SubmitRequest.from_dict(payload).experiment == "fig6"


def test_wrong_version_rejected_locally():
    payload = SubmitRequest(experiment="fig6").to_dict()
    payload["version"] = 999
    with pytest.raises(ProtocolError, match="version 999"):
        SubmitRequest.from_dict(payload)
    with pytest.raises(ProtocolError, match="version"):
        check_version({"no": "version"})


def test_invalid_submit_fields_rejected():
    base = SubmitRequest(experiment="fig6").to_dict()
    for corrupt in (
        {**base, "experiment": ""},
        {**base, "audit": "loud"},
        {**base, "faults": "not-a-plan"},
    ):
        with pytest.raises(ProtocolError):
            SubmitRequest.from_dict(corrupt)


def test_point_event_rejects_unknown_source():
    with pytest.raises(ProtocolError, match="source"):
        point_event("p", "telepathy", 1, 1)


def test_parse_address_forms():
    assert parse_address("/tmp/x.sock") == (socket.AF_UNIX, "/tmp/x.sock")
    assert parse_address("unix:/tmp/x.sock") == (socket.AF_UNIX, "/tmp/x.sock")
    assert parse_address("127.0.0.1:8642") == (socket.AF_INET, ("127.0.0.1", 8642))
    assert parse_address(":8642") == (socket.AF_INET, ("127.0.0.1", 8642))
    with pytest.raises(ValueError):
        parse_address("no-port-no-path")


def test_wrong_version_rejected_by_server(tmp_path):
    exp = FunctionExperiment("tiny", {"p": (_quick_point, {"seed": 0})})
    with _make_server(tmp_path, [exp]) as srv:
        client = ServeClient(srv.address)
        payload = SubmitRequest(experiment="tiny").to_dict()
        payload["version"] = 999
        with pytest.raises(ServeError, match="version 999") as err:
            list(client._stream_jsonl("POST", "/v1/run", payload))
        assert err.value.status == 400


# ----------------------------------------------------------------------
# basic serving: status, run, errors
# ----------------------------------------------------------------------
def test_health_and_connect(tmp_path):
    """``status`` is the liveness check: a fresh daemon answers it."""
    with _make_server(tmp_path, []) as srv:
        stats = ServeClient(srv.address).server_status()
        assert stats.version == PROTOCOL_VERSION
        assert stats.jobs_total == 0 and stats.fleet_jobs == 2


def test_run_and_result_and_status(tmp_path):
    exp = FunctionExperiment(
        "tiny", {"a": (_quick_point, {"value": 1, "seed": 0}),
                 "b": (_quick_point, {"value": 2, "seed": 1})},
    )
    with _make_server(tmp_path, [exp]) as srv:
        client = ServeClient(srv.address)

        seen = []
        report = {}
        result = client.run("tiny", on_progress=lambda p, s: seen.append((p, s)), report=report)
        assert result == {"a": {"value": 1, "seed": 0}, "b": {"value": 2, "seed": 1}}
        assert sorted(p for p, _ in seen) == ["a", "b"]
        assert report["executed"] == 2 and report["points"] == 2

        assert client.run("tiny") == result

        stats = client.server_status()
        assert stats.points_total == 4 and stats.cache_hits >= 2


def test_unknown_experiment_and_job_404(tmp_path):
    with _make_server(tmp_path, []) as srv:
        client = ServeClient(srv.address)
        with pytest.raises(ServeError) as err:
            client.run("no-such-experiment")
        assert err.value.status == 404


def test_served_result_identical_to_local_runner(tmp_path):
    """Acceptance: the daemon's result is byte-identical to run_experiment."""
    with BackgroundServer(
        unix_path=str(tmp_path / "serve.sock"), jobs=2, cache=str(tmp_path / "cache")
    ) as srv:  # the real registry, with every paper experiment
        remote = ServeClient(srv.address).run("fig6", quick=True)
    local = api.run("fig6", quick=True)
    assert json.dumps(remote, sort_keys=True) == json.dumps(local, sort_keys=True)


# ----------------------------------------------------------------------
# dedupe: cache fast path + in-flight sharing
# ----------------------------------------------------------------------
def test_cache_hit_fast_path(tmp_path):
    exp = FunctionExperiment("tiny", {"p": (_quick_point, {"seed": 0})})
    with _make_server(tmp_path, [exp]) as srv:
        client = ServeClient(srv.address)
        rep1, rep2 = {}, {}
        r1 = client.run("tiny", report=rep1)
        r2 = client.run("tiny", report=rep2)
        assert r1 == r2
        assert rep1["executed"] == 1 and rep1["cache_hits"] == 0
        assert rep2["executed"] == 0 and rep2["cache_hits"] == 1
        info = api.cache_info(str(tmp_path / "cache"))
        assert info["entries"] == 1 and "tiny" in info["experiments"]


def test_concurrent_identical_sweeps_share_execution(tmp_path):
    """Two overlapping identical sweeps must run each point exactly once."""
    exp = FunctionExperiment("slow", {"p": (_slow_point, {"delay_s": 0.8, "seed": 0})})
    with _make_server(tmp_path, [exp]) as srv:
        client = ServeClient(srv.address)
        results, reports = [None, None], [{}, {}]

        def go(i):
            results[i] = client.run("slow", report=reports[i])

        threads = [threading.Thread(target=go, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert results[0] == results[1] == {"ok": True, "seed": 0}
        executed = sum(r["executed"] for r in reports)
        shared = sum(r["cache_hits"] + r["inflight_hits"] for r in reports)
        assert executed == 1, f"point ran {executed} times across two sweeps"
        assert shared == 1
        stats = ServeClient(srv.address).server_status()
        assert stats.executed == 1 and stats.points_total == 2
        assert stats.hit_ratio >= 0.5  # the acceptance threshold


def test_inflight_table_claims_and_hits():
    async def scenario():
        table = InflightTable()
        fut, owner = table.claim("k1")
        assert owner and len(table) == 1
        fut2, owner2 = table.claim("k1")
        assert not owner2 and fut2 is fut
        fut.set_result({"x": 1})
        assert await fut2 == {"x": 1}
        table.release("k1")
        assert len(table) == 0 and table.hits == 1

    import asyncio

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# crash tolerance: a dying worker degrades, never fails the request
# ----------------------------------------------------------------------
def test_worker_crash_during_request_is_retried(tmp_path):
    marker = str(tmp_path / "crashed_once")
    exp = FunctionExperiment("crashy", {"p": (_crash_once_point, {"marker": marker, "seed": 0})})
    with _make_server(tmp_path, [exp]) as srv:
        client = ServeClient(srv.address)
        result = client.run("crashy")
        assert result == {"recovered": True}
        assert os.path.exists(marker)
        stats = ServeClient(srv.address).server_status()
        assert stats.worker_crashes >= 1
        # the fleet rebuilt: the daemon still serves fresh work afterwards
        assert client.run("crashy") == {"recovered": True}


# ----------------------------------------------------------------------
# a run lives as long as its response
# ----------------------------------------------------------------------
def _live_jobs():
    gc.collect()  # count only what something still refers to
    return [o for o in gc.get_objects() if isinstance(o, Job)]


def test_a_served_run_leaves_no_job_behind(tmp_path):
    exp = FunctionExperiment("tiny", {"p": (_quick_point, {"value": 5, "seed": 0})})
    with _make_server(tmp_path, [exp]) as srv:
        client = ServeClient(srv.address)
        for _ in range(5):
            assert client.run("tiny") == {"value": 5, "seed": 0}
        # the done event reaches the client a moment before the server's
        # task and handler let go of the job
        deadline = time.monotonic() + 5.0
        while _live_jobs():
            assert time.monotonic() < deadline, "a finished run's Job is still held"
            time.sleep(0.05)
        stats = client.server_status()
        assert stats.jobs_total == 5 and stats.jobs_active == 0


def test_failed_job_is_reported_not_crashing_the_server(tmp_path):
    exp = FunctionExperiment("raiser", {"p": (_raise_point, {"seed": 0})})
    with _make_server(tmp_path, [exp]) as srv:
        client = ServeClient(srv.address)
        with pytest.raises(ServeError, match="ValueError"):
            client.run("raiser")
        # the daemon survives a failed run
        assert ServeClient(srv.address).server_status().jobs_active == 0


def _raise_point(seed=0):
    raise ValueError("deterministic failure")


# ----------------------------------------------------------------------
# one point pipeline: the daemon runs the runner's plan/settle/reduce steps
# ----------------------------------------------------------------------
def test_a_failing_point_reads_the_same_everywhere(tmp_path):
    exp = FunctionExperiment("raiser", {"p": (_raise_point, {"seed": 0})})
    texts = []
    for jobs in (1, 2):
        with pytest.raises(RunnerError) as err:
            run_experiment(exp, jobs=jobs)
        texts.append(str(err.value))
    with _make_server(tmp_path, [exp]) as srv:
        with pytest.raises(ServeError) as err:
            ServeClient(srv.address).run("raiser")
        served = str(err.value)
    assert texts == ["raiser:p raised ValueError: deterministic failure"] * 2
    assert served == f"RunnerError: {texts[0]}"


def test_served_audit_block_identical_to_local(tmp_path):
    local_report, served_report = {}, {}
    local = api.run("quickstart", audit="warn", report=local_report)
    with BackgroundServer(unix_path=str(tmp_path / "serve.sock"), jobs=2) as srv:
        served = api.run("quickstart", audit="warn", server=srv.address, report=served_report)
    assert local["audit"]["points_audited"] >= 1
    assert json.dumps(served["audit"], sort_keys=True) == json.dumps(local["audit"], sort_keys=True)
    assert served_report["audit_violations"] == local_report["audit_violations"]


# ----------------------------------------------------------------------
# the request read is bounded: the client sets its pace and size, so the
# daemon caps both (raw socket: the public client never sends these)
# ----------------------------------------------------------------------
def _raw_request(address, data: bytes):
    """Send ``data`` verbatim, read to EOF; returns (status, JSON lines)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(5.0)
        sock.connect(address)
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), [json.loads(line) for line in body.splitlines() if line.strip()]


def test_negative_content_length_is_a_400(tmp_path):
    with _make_server(tmp_path, []) as srv:
        status, (payload,) = _raw_request(
            srv.address, b"POST /v1/run HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        )
        assert status == 400 and "content-length" in payload["error"]


def test_oversized_body_is_refused_before_it_is_read(tmp_path):
    from repro.serve.server import MAX_BODY_BYTES

    with _make_server(tmp_path, []) as srv:
        # headers only: the 413 must arrive without a single body byte sent
        status, (payload,) = _raw_request(
            srv.address,
            f"POST /v1/run HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        )
        assert status == 413 and str(MAX_BODY_BYTES) in payload["error"]
        assert ServeClient(srv.address).server_status().jobs_total == 0


def test_silent_client_is_timed_out(tmp_path, monkeypatch):
    from repro.serve import server as server_mod

    monkeypatch.setattr(server_mod, "REQUEST_READ_TIMEOUT_S", 0.2)
    with _make_server(tmp_path, []) as srv:
        status, _ = _raw_request(srv.address, b"")
        assert status == 408
        # a request that stalls half way through its headers is cut off too
        status, _ = _raw_request(srv.address, b"GET /v1/status HTTP/1.1\r\n")
        assert status == 408


def test_raw_submit_within_the_bounds_round_trips(tmp_path):
    exp = FunctionExperiment("tiny", {"p": (_quick_point, {"value": 9, "seed": 0})})
    with _make_server(tmp_path, [exp]) as srv:
        body = json.dumps(SubmitRequest(experiment="tiny").to_dict()).encode()
        status, events = _raw_request(
            srv.address,
            b"POST /v1/run HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body,
        )
        assert status == 200
        assert [e["type"] for e in events] == ["point", "done"]
        assert events[-1]["result"] == {"value": 9, "seed": 0}


def test_raw_submit_with_a_malformed_fault_plan_is_a_400(tmp_path):
    exp = FunctionExperiment("tiny", {"p": (_quick_point, {"value": 9, "seed": 0})})
    with _make_server(tmp_path, [exp]) as srv:
        plan = {"specs": [{"kind": "link_down", "target": ["tor0", "spine0"]}]}  # no schedule
        body = json.dumps(SubmitRequest(experiment="tiny", faults=plan).to_dict()).encode()
        status, (payload,) = _raw_request(
            srv.address,
            b"POST /v1/run HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body,
        )
        assert status == 400 and "fault plan" in payload["error"]
        assert ServeClient(srv.address).server_status().jobs_total == 0


# ----------------------------------------------------------------------
# the repro.api facade
# ----------------------------------------------------------------------
def test_api_local_and_remote_agree(tmp_path):
    exp = FunctionExperiment("tiny", {"p": (_quick_point, {"seed": 3})})
    with _make_server(tmp_path, [exp]) as srv:
        remote = api.run("tiny", server=srv.address)
        assert remote == {"value": 1, "seed": 3}
        assert api.run("tiny", server=srv.address) == remote
        stats = api.status(srv.address)
        assert isinstance(stats, ServerStats)
        info = api.cache_info(str(tmp_path / "cache"))
        assert info["entries"] == 1


def test_api_rejects_local_knobs_on_remote_runs(tmp_path):
    with pytest.raises(ValueError, match="daemon"):
        api.run("fig6", server="/tmp/nowhere.sock", jobs=4)
    with pytest.raises(ValueError, match="registry name"):
        api.run(FunctionExperiment("x", {"p": (_quick_point, {"seed": 0})}), server="/tmp/nowhere.sock")


def test_api_local_run_matches_run_experiment():
    exp = api.get_experiment("fig6", quick=True)
    assert api.run("fig6", quick=True) == run_experiment(exp, jobs=1)
