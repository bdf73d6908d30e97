#!/usr/bin/env python3
"""ROADMAP item 2, step 0: would *regional* regimes have anything to regionalise?

Runs one ``fig11_long`` point (PrioPlus x 8 on the 320-host fabric, hybrid
core, streaming admission) and, at every contention exit of a fluid epoch,
looks at the flows the whole fabric is about to drop to packets for:
connected components of their flow-link graph, and which component holds
the saturated link that flows of different ranks meet on.  Flows outside
that component are the *bystanders* a per-component regime would keep fluid.

Measured from outside ``src/`` by wrapping ``HybridDriver._exit_fluid`` and
reading the epoch it ends (``driver.epoch``); the components are
:func:`repro.fluid.model.components`, the same definition the driver
allocates by.

Usage:
    python scripts/regime_components.py --load 0.002 --ms 200
    python scripts/regime_components.py --load 0.01 --ms 40
    python scripts/regime_components.py --load 0.05 --ms 4

docs/PERFORMANCE.md ("Step 0: regime components") holds the table.
"""

from __future__ import annotations

import argparse

from repro.experiments.flowsched import FlowSchedConfig
from repro.experiments.modes import Mode
from repro.experiments.paper_scale import PAPER_LONG_CFG, run_paper_scale
from repro.fluid import hybrid, model


def _component_sizes(flows, rate, cap_rate, link_caps):
    """``(sizes, hot)``: flows per connected component, and the indices of
    the components holding a saturated link that network-limited flows of
    two ranks meet on."""
    comps = model.components([f.links for f in flows])
    comp_of = {  # link -> index of its component
        link: c for c, members in enumerate(comps) for i in members for link in flows[i].links
    }
    load, limited_ranks = {}, {}
    for f, r, cap in zip(flows, rate, cap_rate):
        for link in f.links:
            load[link] = load.get(link, 0.0) + r
            if r < cap * model._CAP_SLACK:  # network-limited, as classify_contention reads it
                limited_ranks.setdefault(link, set()).add(f.rank)
    hot = {
        comp_of[link]
        for link, ranks in limited_ranks.items()
        if len(ranks) > 1 and load[link] >= model.SAT_THRESHOLD * link_caps[link]
    }
    return [len(members) for members in comps], hot


def _exit_allocation(epoch):
    """``(cap_rate, rate)`` over ``epoch._flows``: the allocation each group
    holds at the exit, i.e. the one that forced it."""
    held = {f: (cap, r) for g in epoch._groups for f, cap, r in zip(g.flows, g.caps, g.rates)}
    return [held[f][0] for f in epoch._flows], [held[f][1] for f in epoch._flows]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--load", type=float, default=0.002)
    ap.add_argument("--ms", type=float, default=20.0, help="trace length in ms of sim-time")
    args = ap.parse_args()

    exits = []  # per contention exit: (live flows, in a hot component, in the largest one)
    exit_fluid = hybrid.HybridDriver._exit_fluid

    def measuring_exit(driver, reason):
        if reason.startswith("contention"):
            epoch = driver.epoch  # the epoch it leaves, still in force
            cap_rate, rate = _exit_allocation(epoch)
            sizes, hot = _component_sizes(epoch._flows, rate, cap_rate, driver._link_caps)
            exits.append((len(epoch._flows), sum(sizes[c] for c in hot), max(sizes)))
        exit_fluid(driver, reason)

    hybrid.HybridDriver._exit_fluid = measuring_exit
    cfg = FlowSchedConfig(**dict(PAPER_LONG_CFG, load=args.load, duration_ns=int(args.ms * 1e6)))
    result = run_paper_scale(Mode.PRIOPLUS, 8, cfg, streaming=True)

    live = sum(e[0] for e in exits)
    print("load     ms  flows  epochs  contention_exits  live_mean  live_max  hot_share  largest_share")
    print(
        f"{args.load:<6g} {args.ms:>4g} {result['n_flows']:>6} {result['fluid']['fluid_epochs']:>7}"
        f" {len(exits):>17} {live / max(len(exits), 1):>10.2f} {max((e[0] for e in exits), default=0):>9}"
        f" {sum(e[1] for e in exits) / max(live, 1):>10.2f} {sum(e[2] for e in exits) / max(live, 1):>14.2f}"
    )


if __name__ == "__main__":
    main()
