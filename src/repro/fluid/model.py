"""Fluid rate solver: strict-priority ordered max-min water-filling.

The fabric is reduced to per-link capacities and, per flow, the list of
link ids it traverses (a link listed twice counts twice).  Rates are solved
rank by rank in descending priority — higher ranks fill first, lower ranks
share whatever capacity remains — which is exactly the steady state
PrioPlus's delay channels (and physical strict-priority queues) converge to:

* within one rank, progressive-filling max-min with per-flow rate caps
  (the window-limited rate ``cwnd / base_rtt``);
* across ranks, strict preemption: a saturated link leaves zero residual
  for lower ranks, so a preempted flow's allocation collapses to zero —
  the fluid image of a relinquished PrioPlus flow.

Because every allocation is capacity-feasible, queues stay empty by
construction throughout a fluid epoch; the error envelope this buys is
documented in docs/PERFORMANCE.md and bounded, per world and per group
of flows, against committed pure-packet twins by
``tests/test_fluid.py::test_hybrid_golden_stays_within_its_twin_bounds``.

Plain Python on the lists the driver already holds: the solves this repo
issues are 1–120 flows wide, where array dispatch costs more than the
arithmetic.  The numpy solver this replaced is the oracle in
``tests/fluid_reference.py``, and the two agree **bit for bit** because
they perform the same IEEE-754 operations in the same order.  The comments
below mark the ordering rules that make it so; docs/PERFORMANCE.md ("The
solver") states them as the contract and the differential test pins them.

Capacity never moves between the connected :func:`components` of the
flow–link graph, so solving each component on its own (members in ascending
index) and scattering back is the same computation, bit for bit, as one
solve of the whole set; the driver allocates per component.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["solve_rates", "classify_contention", "components"]

#: a flow is "network-limited" when its allocation sits measurably below
#: its window-limited cap (i.e. a link, not the window, is the bottleneck)
_CAP_SLACK = 0.999
#: a link is saturated at this share of its capacity
SAT_THRESHOLD = 0.98


def solve_rates(
    cap_rate: Sequence[float],
    ranks: Sequence[int],
    flow_links: Sequence[Sequence[int]],
    link_cap: Sequence[float],
) -> Tuple[List[float], Dict[int, float]]:
    """Solve per-flow rates; returns ``(rates, link_load)``.

    Parameters
    ----------
    cap_rate:
        per-flow rate cap in bytes/ns (``cwnd/base_rtt``; ``0.0`` holds a
        flow at zero).
    ranks:
        per-flow priority rank, **higher fills first**.
    flow_links:
        per-flow list of the link ids it traverses (empty: the flow is
        purely window-limited and gets its cap).
    link_cap:
        link capacities in bytes/ns, indexed by link id.

    ``link_load`` maps every link some flow traverses to its allocated
    load; a link no flow crosses carries nothing and is absent.
    """
    rate = [0.0] * len(cap_rate)
    residual: Dict[int, float] = {}
    by_rank: Dict[int, List[int]] = {}
    for f, r in enumerate(ranks):
        by_rank.setdefault(r, []).append(f)

    for r in sorted(by_rank, reverse=True):
        # link -> the rank's flows on it, ascending (one entry per traversal)
        on_link: Dict[int, List[int]] = {}
        live: List[int] = []
        for f in by_rank[r]:
            path = flow_links[f]
            if not path:
                rate[f] = cap_rate[f]
                continue
            live.append(f)
            for link in path:
                on_link.setdefault(link, []).append(f)
        # per-link state, kept only while live flows remain on the link
        count = {link: len(fs) for link, fs in on_link.items()}
        fair = {
            link: residual.setdefault(link, link_cap[link]) / cnt for link, cnt in count.items()
        }
        # live (unfixed) flow -> water level: the tightest fair share on its path
        level = {f: min(map(fair.__getitem__, flow_links[f])) for f in live}

        # progressive filling: every pass fixes at least one live flow.
        # `level` iterates in ascending flow id (insertion order), which is
        # the order the subtractions below must keep
        while level:
            fix = [f for f, lv in level.items() if cap_rate[f] <= lv]
            if fix:
                for f in fix:
                    rate[f] = cap_rate[f]
            else:
                # the single tightest link (its share is the lowest water
                # level: every live link carries a live flow), ties to the
                # smallest id; never several links in one pass — that would
                # reorder the subtractions on the links they share
                share = min(level.values())
                lmin = min([link for link, s in fair.items() if s == share])
                fix = [f for f in dict.fromkeys(on_link[lmin]) if f in level]
                for f in fix:
                    rate[f] = share
            touched = set()
            for f in fix:
                del level[f]
                x = rate[f]
                path = flow_links[f]
                touched.update(path)
                for link in path:
                    residual[link] -= x
                    count[link] -= 1
            # clip after the pass, not between subtractions; then refresh
            # only what the fixed flows could have changed: the fair share
            # of the links they crossed and the level of live flows there
            stale = set()
            for link in touched:
                res = residual[link]
                if res < 0.0:
                    res = residual[link] = 0.0
                cnt = count[link]
                if cnt:
                    fair[link] = res / cnt
                    stale.update(on_link[link])
                else:
                    del fair[link]
            for f in stale:
                if f in level:
                    level[f] = min(map(fair.__getitem__, flow_links[f]))

    return rate, {link: link_cap[link] - res for link, res in residual.items()}


def classify_contention(
    rate: Sequence[float],
    cap_rate: Sequence[float],
    ranks: Sequence[int],
    flow_links: Sequence[Sequence[int]],
    link_cap: Sequence[float],
    link_load: Dict[int, float],
) -> bool:
    """Whether network-limited flows of different ranks meet on a saturated
    link (load at least ``SAT_THRESHOLD`` of capacity) in the current
    allocation: PrioPlus preemption, the one contention the fluid model
    hands back to packets.

    ``link_load`` is :func:`solve_rates`'s.  Flows of one rank cannot
    preempt each other, so a single-rank set reads ``False`` without looking
    at a link.
    """
    if len(set(ranks)) < 2:
        return False
    hot = {
        link
        for link, load in link_load.items()
        if link_cap[link] > 0 and load / link_cap[link] >= SAT_THRESHOLD
    }
    if not hot:
        return False
    rank_on: Dict[int, int] = {}  # hot link -> rank of a network-limited flow on it
    for f, path in enumerate(flow_links):
        if rate[f] < cap_rate[f] * _CAP_SLACK:
            r = ranks[f]
            for link in path:
                if link in hot and rank_on.setdefault(link, r) != r:
                    return True
    return False


def components(flow_links: Sequence[Sequence[int]]) -> List[List[int]]:
    """Connected components of the flow–link graph, all ranks together.

    Two flows are connected when they cross a common link.  Returns one list
    of flow indices per component, members ascending, components ordered by
    their smallest member; a flow with an empty path is a component alone.
    """
    parent = list(range(len(flow_links)))

    def root(f: int) -> int:
        while parent[f] != f:
            parent[f] = f = parent[parent[f]]
        return f

    first: Dict[int, int] = {}  # link -> the first flow seen on it
    for f, path in enumerate(flow_links):
        rf = f  # root of f's set, kept in hand: the smaller root wins a union
        for link in path:
            g = first.setdefault(link, f)
            if g != f:
                rg = root(g)
                if rg < rf:
                    parent[rf] = rf = rg
                elif rg > rf:
                    parent[rg] = rf
    groups: Dict[int, List[int]] = {}
    for f in range(len(flow_links)):
        groups.setdefault(root(f), []).append(f)
    return list(groups.values())
