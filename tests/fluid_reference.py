"""The numpy fluid solver, kept as the test oracle.

This is ``repro.fluid.model`` as it stood at d78b1bc (``solve_rates`` and
``classify_contention`` verbatim, COO incidence and all), moved here when
the shipped solver became plain Python.  ``tests/test_fluid.py`` holds the
shipped solver to it bit for bit (``==`` on rates and loads, not ``approx``);
it is the only place in the repo that needs numpy.
"""

from __future__ import annotations

from typing import Tuple

import pytest

np = pytest.importorskip("numpy")

#: a flow is "network-limited" when its allocation sits measurably below
#: its window-limited cap (i.e. a link, not the window, is the bottleneck)
_CAP_SLACK = 0.999


def solve_rates(
    cap_rate: "np.ndarray",
    ranks: "np.ndarray",
    ent_flow: "np.ndarray",
    ent_link: "np.ndarray",
    link_cap: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Solve per-flow rates; returns ``(rates, link_load)``.

    Parameters
    ----------
    cap_rate:
        float64[n_flows] — per-flow rate cap in bytes/ns (``cwnd/base_rtt``).
    ranks:
        int64[n_flows] — priority rank, **higher fills first**.
    ent_flow, ent_link:
        int64[nnz] — COO incidence: flow ``ent_flow[i]`` traverses link
        ``ent_link[i]``.
    link_cap:
        float64[n_links] — link capacities in bytes/ns.
    """
    n = int(cap_rate.shape[0])
    n_links = int(link_cap.shape[0])
    rate = np.zeros(n, dtype=np.float64)
    residual = link_cap.astype(np.float64).copy()
    if n == 0:
        return rate, np.zeros(n_links, dtype=np.float64)

    ent_rank = ranks[ent_flow]
    crossed = np.zeros(n, dtype=bool)
    crossed[ent_flow] = True

    for r in np.unique(ranks)[::-1]:
        members = ranks == r
        # a flow that traverses no modelled link is purely window-limited
        free = members & ~crossed
        rate[free] = cap_rate[free]
        unfixed = members & crossed
        sel = ent_rank == r
        sef = ent_flow[sel]
        sel_links = ent_link[sel]

        # progressive filling: every pass fixes at least one flow, so the
        # guard below can only trip on a logic error — fail safe to zero
        for _ in range(n + 2):
            if not unfixed.any():
                break
            act = unfixed[sef]
            aef = sef[act]
            ael = sel_links[act]
            cnt = np.bincount(ael, minlength=n_links)
            fair = np.where(cnt > 0, residual / np.maximum(cnt, 1), np.inf)
            fair = np.maximum(fair, 0.0)
            # water level per flow: the tightest fair share along its path
            level = np.full(n, np.inf)
            np.minimum.at(level, aef, fair[ael])
            capped = unfixed & (cap_rate <= level)
            if capped.any():
                fix = capped
                rate[fix] = cap_rate[fix]
            else:
                used = np.unique(ael)
                lmin = used[np.argmin(fair[used])]
                fix = np.zeros(n, dtype=bool)
                fix[aef[ael == lmin]] = True
                fix &= unfixed
                rate[fix] = fair[lmin]
            unfixed &= ~fix
            fsel = fix[sef]
            np.subtract.at(residual, sel_links[fsel], rate[sef[fsel]])
            np.maximum(residual, 0.0, out=residual)
        else:  # pragma: no cover - progressive filling always terminates
            rate[unfixed] = 0.0

    load = link_cap - residual
    return rate, load


def classify_contention(
    rate: "np.ndarray",
    cap_rate: "np.ndarray",
    ranks: "np.ndarray",
    ent_flow: "np.ndarray",
    ent_link: "np.ndarray",
    link_cap: "np.ndarray",
    link_load: "np.ndarray",
    sat_threshold: float = 0.98,
) -> str:
    """Classify link contention in the current allocation.

    Returns one of:

    * ``"none"``     — no saturated link carries a network-limited flow;
    * ``"single"``   — saturated links exist but each is filled by one flow
      (line-rate transfer: queues still cannot build);
    * ``"shared"``   — ≥ 2 network-limited flows of the *same* rank share a
      saturated link (max-min sharing; standing-queue delay is approximated
      away);
    * ``"priority"`` — network-limited flows of *different* ranks meet on a
      saturated link (PrioPlus preemption / delay-channel dynamics active).
    """
    if rate.shape[0] == 0 or ent_flow.shape[0] == 0:
        return "none"
    netlim = rate < cap_rate * _CAP_SLACK
    with np.errstate(divide="ignore", invalid="ignore"):
        util = np.where(link_cap > 0, link_load / link_cap, 0.0)
    hot = util[ent_link] >= sat_threshold
    sel = hot & netlim[ent_flow]
    if not sel.any():
        # saturated links may still exist with a lone cap-limited filler
        return "single" if (util >= sat_threshold).any() else "none"
    links = ent_link[sel]
    rks = ranks[ent_flow[sel]]
    stride = int(rks.max()) + 2
    pairs = np.unique(links.astype(np.int64) * stride + (rks + 1))
    per_link_ranks = np.bincount(pairs // stride)
    if (per_link_ranks > 1).any():
        return "priority"
    if (np.bincount(links) > 1).any():
        return "shared"
    return "single"
