"""``python -m repro tune`` — the channel-tuning command line.

Two modes:

* **search** (default): one deterministic CEM/random search over a named
  workload, optionally fleet-parallel and checkpointed::

      python -m repro tune --workload flowsched_micro --budget 24 --pop 6
      python -m repro tune --workload fault_flap --optimizer random --jobs 4
      python -m repro tune --workload flowsched --checkpoint ck.json --out tuned.json

* **experiment** (``--experiment``): the registered ``tune_channels``
  experiment through :func:`repro.api.run` — cacheable, servable::

      python -m repro tune --experiment --quick
      python -m repro tune --experiment --server /tmp/repro.sock
"""

from __future__ import annotations

import argparse
import json
import sys

from .channel_env import WORKLOADS, make_spec
from .optim import OPTIMIZERS

__all__ = ["tune_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro tune",
        description="Auto-tune PrioPlus [D_target, D_limit] delay channels (docs/TUNING.md).",
    )
    parser.add_argument(
        "--workload", default="flowsched_micro", choices=sorted(WORKLOADS),
        help="workload to tune for (default: flowsched_micro)",
    )
    parser.add_argument(
        "--optimizer", default="cem", choices=sorted(OPTIMIZERS),
        help="search algorithm (default: cem)",
    )
    parser.add_argument("--budget", type=int, default=24, metavar="N",
                        help="candidate evaluations (default: 24)")
    parser.add_argument("--pop", type=int, default=6, metavar="N",
                        help="population per generation (default: 6)")
    parser.add_argument("--n-priorities", type=int, default=None, metavar="N",
                        help="channel count (default: the workload's natural count)")
    parser.add_argument("--seed", type=int, default=0, help="search seed (default: 0)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fleet workers per generation (default: 1 = serial)")
    parser.add_argument("--checkpoint", metavar="FILE",
                        help="JSON search-state file; resumes if it exists")
    parser.add_argument("--out", metavar="FILE", help="write the result JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale evaluation of each candidate")
    parser.add_argument(
        "--assert-improves", action="store_true",
        help="exit 1 unless the tuned placement strictly beats the paper default",
    )
    parser.add_argument("--experiment", action="store_true",
                        help="run the registered tune_channels experiment instead")
    parser.add_argument("--server", metavar="ADDR",
                        help="with --experiment: run on a repro serve daemon")
    return parser


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def tune_main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    say = lambda msg: print(msg, file=sys.stderr)  # noqa: E731

    if args.experiment:
        from .. import api

        result = api.run(
            "tune_channels",
            quick=args.quick,
            jobs=1,
            server=args.server,
            progress=args.server is None,
        )
        _emit(result, args.out)
        if args.assert_improves and not result.get("verdict", False):
            say("FAIL: tuned placement did not beat the paper default on every workload")
            return 1
        return 0

    from .search import run_search

    spec = make_spec(
        args.workload, n_priorities=args.n_priorities, seed=args.seed, quick=args.quick
    )
    result = run_search(
        spec,
        optimizer=args.optimizer,
        budget=args.budget,
        pop_size=args.pop,
        seed=args.seed,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        log=say,
    )
    _emit(result, args.out)
    if args.assert_improves and not result["improved"]:
        say("FAIL: tuned placement did not beat the paper default "
            f"(default {result['default']['utility']}, best {result['best']['utility']})")
        return 1
    return 0
