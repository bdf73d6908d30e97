"""Command-line entry point: ``python -m repro [run] <experiment> [options]``.

Lists and runs individual paper experiments without writing a script:

    python -m repro --list
    python -m repro fig8
    python -m repro run fig10c --jobs 4          # shard points across cores
    python -m repro run fig12 --jobs 4 --cache .cache/repro

Serving (see docs/SERVE.md): a long-running daemon keeps a warm worker fleet
and dedupes work across clients; ``run``/``submit``/``status`` talk to it:

    python -m repro serve --unix /tmp/repro.sock --cache .cache/repro &
    python -m repro run fig10c --server /tmp/repro.sock
    python -m repro submit fig12 --server /tmp/repro.sock
    python -m repro status --server /tmp/repro.sock [job-000001]

All execution goes through :mod:`repro.api`, the stable programmatic facade
(the CLI is a thin shell around it).

Every experiment is a registered :class:`repro.experiments.registry.Experiment`
dispatched through :func:`repro.runner.run_experiment`; ``--jobs N`` fans the
experiment's independent points over a process pool and ``--cache DIR`` skips
points whose results are already on disk (see docs/RUNNER.md).

Fault injection (see docs/FAULTS.md): any experiment runs under a declarative
fault plan, and ``--quick`` selects an experiment's CI-scale variant:

    python -m repro run fig8 --faults plan.json
    python -m repro run fault_flap --quick --jobs 2

Observability (see docs/OBSERVABILITY.md): any experiment can be run with the
flight recorder on, producing a Perfetto-loadable trace and/or structured
event and metric dumps:

    python -m repro quickstart --trace run.json      # open in ui.perfetto.dev
    python -m repro fig6 --events run.jsonl          # JSONL event dump
    python -m repro fig8 --metrics                   # embed metrics in output
"""

from __future__ import annotations

import argparse
import json
import sys

from . import api
from .client import ServeError
from .experiments.registry import REGISTRY
from .obs import ChannelInspector, EngineProfiler, PacketTracer, TimeSeriesSampler
from .probe import installed
from .runner import RunnerError
from .runner.cache import json_safe
from .telemetry import JsonlEventStream, Recorder, write_events_jsonl, write_perfetto

REGISTRY.load_all()


def _submit_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit an experiment to a running daemon without waiting.",
    )
    parser.add_argument("experiment", help="experiment name (see --list)")
    parser.add_argument("--server", required=True, metavar="ADDR",
                        help="daemon address: host:port or a unix socket path")
    parser.add_argument("--quick", action="store_true", help="CI-scale variant")
    parser.add_argument("--faults", metavar="PLAN", help="fault plan JSON path")
    parser.add_argument("--audit", nargs="?", const="strict", choices=("strict", "warn"),
                        default=None, help="run points under the invariant auditor")
    parser.add_argument("--tag", default="", help="free-form label shown in status")
    args = parser.parse_args(argv)
    try:
        job_id = api.submit(
            args.experiment, server=args.server, quick=args.quick,
            faults=args.faults, audit=args.audit, tag=args.tag,
        )
    except (ServeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(job_id)
    return 0


def _status_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro status",
        description="Server-wide stats, or one job's point-granular status.",
    )
    parser.add_argument("job", nargs="?", help="job id (omit for server stats)")
    parser.add_argument("--server", required=True, metavar="ADDR",
                        help="daemon address: host:port or a unix socket path")
    args = parser.parse_args(argv)
    try:
        payload = api.status(args.server, args.job)
    except (ServeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(json_safe(payload.to_dict()), indent=2))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        from .serve import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        return _submit_main(argv[1:])
    if argv and argv[0] == "status":
        return _status_main(argv[1:])
    if argv and argv[0] == "report":
        from .obs.report import report_main

        return report_main(argv[1:])
    if argv and argv[0] == "run":
        # `run` is an optional explicit subcommand: `repro run fig8 --jobs 4`
        argv = argv[1:]

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run individual PrioPlus-paper experiments at benchmark scale.",
    )
    parser.add_argument("experiment", nargs="?", help="experiment name (see --list)")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run the experiment's points on N worker processes (default: 1, in-process)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="reuse/store per-point results in the content-addressed cache at DIR",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-point progress and ETA to stderr",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        help="apply the fault plan at PLAN (JSON, see docs/FAULTS.md) to every "
        "point; the plan hash enters the result-cache key",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the experiment's CI-scale variant (a no-op for experiments "
        "without one)",
    )
    parser.add_argument(
        "--audit",
        nargs="?",
        const="strict",
        choices=("strict", "warn"),
        default=None,
        metavar="MODE",
        help="run every executed point under the invariant auditor (see "
        "docs/AUDIT.md); 'strict' (the default when the flag is bare) fails "
        "at the first violation, 'warn' aggregates violations into the "
        "result's 'audit' key",
    )
    parser.add_argument(
        "--server",
        metavar="ADDR",
        help="run on a serving daemon (host:port or unix socket path) instead "
        "of in-process; --jobs/--cache are then the daemon's concern "
        "(see docs/SERVE.md)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record the run and write a Perfetto/Chrome trace JSON to PATH "
        "(open in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        help="record the run and write the raw event stream as JSONL to PATH",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="record the run and embed the telemetry metrics snapshot in the output",
    )
    parser.add_argument(
        "--trace-packets",
        metavar="PATH",
        help="causally trace deterministically-sampled packets and write the "
        "per-hop latency spans as JSONL to PATH (see docs/TRACING.md); with "
        "--trace, the Perfetto file also gains a 'packets' process",
    )
    parser.add_argument(
        "--trace-every",
        type=int,
        default=16,
        metavar="N",
        help="trace one in N (flow, seq) identities (default: 16; 1 = all)",
    )
    parser.add_argument(
        "--sample",
        metavar="PATH",
        help="snapshot queue depths, buffer occupancy and per-flow rates at a "
        "fixed virtual-time stride; written to PATH (.csv, else JSONL)",
    )
    parser.add_argument(
        "--sample-stride",
        type=int,
        default=100_000,
        metavar="NS",
        help="sampling stride in virtual ns (default: 100000)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute wall time and event counts per engine callback and "
        "embed the profile in the output",
    )
    parser.add_argument(
        "--inspect",
        metavar="PATH",
        help="record every PrioPlus state transition, channel occupancy and "
        "virtual-priority inversions; structured report written to PATH",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        for name in REGISTRY.names():
            print(name)
        return 0
    try:
        experiment = REGISTRY.get(args.experiment)
    except KeyError:
        print(f"unknown experiment {args.experiment!r}; use --list", file=sys.stderr)
        return 2
    if args.quick:
        experiment = experiment.quick()

    obs_requested = bool(args.trace_packets or args.sample or args.profile or args.inspect)
    if args.server and (args.trace or args.events or obs_requested):
        print(
            "error: --trace/--events/--trace-packets/--sample/--profile/--inspect "
            "record in-process simulator state and cannot be combined with --server",
            file=sys.stderr,
        )
        return 2
    if (args.trace or args.events or obs_requested) and args.jobs > 1:
        print(
            "note: --trace/--events/--trace-packets/--sample/--profile/--inspect "
            "record simulator state only for in-process execution; forcing --jobs 1",
            file=sys.stderr,
        )
        args.jobs = 1

    recorder = None
    stream = None
    if args.trace or args.events or args.metrics:
        # event lists are only needed when a trace/event dump was requested
        recorder = Recorder(events=bool(args.trace or args.events))
        if args.events and not args.trace:
            # no in-memory consumer: stream events to disk as they happen
            stream = JsonlEventStream(recorder, args.events)
    tracer = inspector = sampler = profiler = None
    if args.trace_packets:
        tracer = PacketTracer(sample_every=max(1, args.trace_every))
    if args.inspect:
        inspector = ChannelInspector()
    if args.sample:
        sampler = TimeSeriesSampler(stride_ns=max(1, args.sample_stride))
    if args.profile:
        profiler = EngineProfiler()
    sinks = [s for s in (recorder, tracer, inspector, sampler, profiler) if s is not None]
    try:
        if args.server:
            def _remote_progress(point, source):
                print(f"[serve] {args.experiment}: {point} ({source})",
                      file=sys.stderr, flush=True)

            result = api.run(
                args.experiment,
                quick=args.quick,
                server=args.server,
                faults=args.faults,
                audit=args.audit,
                progress=_remote_progress if args.progress else False,
            )
        else:
            with installed(*sinks):
                result = api.run(
                    experiment,
                    jobs=args.jobs,
                    cache=args.cache,
                    progress=args.progress,
                    faults=args.faults,
                    audit=args.audit,
                )
    except (RunnerError, ServeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for sink in (stream, tracer, sampler, profiler):
            if sink is not None:
                sink.finalize()
    if recorder is not None:
        if args.trace:
            n = write_perfetto(recorder, args.trace, tracer=tracer)
            print(f"wrote {n} trace events to {args.trace}", file=sys.stderr)
        if args.events:
            if stream is not None:
                n = stream.lines
            else:
                n = write_events_jsonl(recorder, args.events)
            print(f"wrote {n} events to {args.events}", file=sys.stderr)
        if args.metrics and isinstance(result, dict):
            result = dict(result)
            result["telemetry"] = recorder.snapshot()
    if tracer is not None:
        n = tracer.write_spans_jsonl(args.trace_packets)
        print(f"wrote {n} span lines to {args.trace_packets}", file=sys.stderr)
        if isinstance(result, dict):
            result = dict(result)
            result["packet_traces"] = tracer.snapshot()
    if inspector is not None:
        inspector.write_report_json(args.inspect)
        print(f"wrote channel report to {args.inspect}", file=sys.stderr)
    if sampler is not None:
        n = sampler.write(args.sample)
        print(f"wrote {n} sample rows to {args.sample}", file=sys.stderr)
    if profiler is not None and isinstance(result, dict):
        result = dict(result)
        result["profile"] = profiler.snapshot()
    print(json.dumps(json_safe(result), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
