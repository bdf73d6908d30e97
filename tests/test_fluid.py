"""Hybrid fluid/packet core: solver, laws, gating, parity and agreement."""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cc import Swift, SwiftParams
from repro.core import ChannelConfig, PrioPlusCC
from repro.experiments.launch import run_until_flows_done
from repro.fluid import FluidConfig, HybridDriver, model
from repro.fluid.epoch import _DT_MAX_NS, _Epoch, _FluidFlow
from repro.fluid.laws import law_for
from repro.fluid.model import classify_contention, solve_rates
from repro.obs import TimeSeriesSampler
from repro.probe import installed
from repro.sim.engine import Simulator
from repro.sim.packet import PACKET_POOL
from repro.topology import fat_tree, star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender

from tests.golden_battery import canonical
from tests.hybrid_twins import (
    HYBRID_GOLDEN_PATH,
    HYBRID_WORLDS,
    TWINS_PATH,
    breaches,
    bulk_waves_world,
    measured,
    midscale_world,
    FLOOR,
    run_stats,
    run_twin,
    star_world,
    sweep,
)


# ----------------------------------------------------------------------
# stdlib-only: the hybrid core runs on an interpreter without numpy
# (tests/test_probe.py::test_src_never_imports_numpy is the static half)
# ----------------------------------------------------------------------
def test_hybrid_world_runs_with_numpy_blocked():
    code = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from repro.cc import Swift, SwiftParams
from repro.experiments.launch import run_until_flows_done
from repro.fluid import HybridDriver
from repro.sim.engine import Simulator
from repro.topology import star
from repro.transport.flow import Flow
from repro.transport.sender import FlowSender

sim = Simulator(3)
net, senders, recv = star(sim, 3, rate_bps=10e9, link_delay_ns=1000)
flows = [Flow(i + 1, senders[i], recv, 300_000, start_ns=i * 600_000) for i in range(3)]
for f in flows:
    FlowSender(sim, net, f, Swift(SwiftParams()), rto_ns=10**10)
driver = HybridDriver(sim, net)
assert run_until_flows_done(sim, flows, 2_000_000_000, driver=driver)
assert driver.stats["fluid_epochs"] >= 1, driver.stats
assert driver.stats["fluid_bytes"] > 0, driver.stats
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "ok" in out.stdout


# ----------------------------------------------------------------------
# rate solver
# ----------------------------------------------------------------------
def test_solver_same_rank_fair_share():
    rate, load = solve_rates([10.0, 10.0], [1, 1], [[0], [0]], [1.0])
    assert rate == pytest.approx([0.5, 0.5])
    assert load[0] == pytest.approx(1.0)


def test_solver_window_limited_flow_leaves_residual():
    rate, _ = solve_rates([0.2, 10.0], [1, 1], [[0], [0]], [1.0])
    # the capped flow takes 0.2; the other picks up the slack
    assert rate == pytest.approx([0.2, 0.8])


def test_solver_strict_priority_starves_lower_rank():
    rate, _ = solve_rates([10.0, 10.0], [2, 1], [[0], [0]], [1.0])
    assert rate == pytest.approx([1.0, 0.0])


def test_solver_multihop_bottleneck():
    # flow 0 crosses links 0-1, flow 1 only link 1 (the bottleneck)
    rate, _ = solve_rates([10.0, 10.0], [1, 1], [[0, 1], [1]], [2.0, 1.0])
    assert rate == pytest.approx([0.5, 0.5])


def test_contention_classification():
    ranks_same = [1, 1]
    ranks_cross = [2, 1]
    paths = [[0], [0]]
    cap = [10.0, 10.0]
    link = [1.0]

    # one rank sharing a saturated link: max-min sharing stays fluid
    rate, load = solve_rates(cap, ranks_same, paths, link)
    assert classify_contention(rate, cap, ranks_same, paths, link, load) is False

    # two ranks meet on it: preemption, handed back to packets
    rate, load = solve_rates(cap, ranks_cross, paths, link)
    assert classify_contention(rate, cap, ranks_cross, paths, link, load) is True

    # two ranks on an under-subscribed link
    cap_lo = [0.3, 0.3]
    rate, load = solve_rates(cap_lo, ranks_cross, paths, link)
    assert classify_contention(rate, cap_lo, ranks_cross, paths, link, load) is False


# ----------------------------------------------------------------------
# the numpy solver this one replaced is the oracle: equal bit for bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def oracle():
    from tests import fluid_reference  # skips without numpy

    return fluid_reference


def _oracle_solve(oracle, cap_rate, ranks, paths, link_cap):
    """``(rates, loads, contention)`` of the numpy solver, as plain lists."""
    np = oracle.np
    cap = np.array(cap_rate, dtype=np.float64)
    rks = np.array(ranks, dtype=np.int64)
    ent_flow = np.array([f for f, path in enumerate(paths) for _ in path], dtype=np.int64)
    ent_link = np.array([link for path in paths for link in path], dtype=np.int64)
    caps = np.array(link_cap, dtype=np.float64)
    rate, load = oracle.solve_rates(cap, rks, ent_flow, ent_link, caps)
    label = oracle.classify_contention(rate, cap, rks, ent_flow, ent_link, caps, load)
    return rate.tolist(), load.tolist(), label


def _assert_matches_oracle(oracle, cap_rate, ranks, paths, link_cap):
    rate, load = solve_rates(cap_rate, ranks, paths, link_cap)
    contended = classify_contention(rate, cap_rate, ranks, paths, link_cap, load)
    ref_rate, ref_load, ref_label = _oracle_solve(oracle, cap_rate, ranks, paths, link_cap)
    # ==, not approx: same IEEE-754 operations in the same order
    assert rate == ref_rate
    assert [load.get(link, 0.0) for link in range(len(link_cap))] == ref_load
    assert contended == (ref_label == "priority")


#: few distinct values, so flows meet caps that equal a fair share and links
#: tie on their fair share; thirds and sevenths make residuals round below 0
_LINK_CAPS = [0.0, 0.1, 0.7, 1.0, 1.0, 3.0, 12.5, 17.3125]
_FLOW_CAPS = [0.0, 0.1, 0.25, 1.0 / 3, 0.5, 0.7 / 3, 1.0, 1.5, 12.5, 0.98 * 17.3125, 100.0]


@st.composite
def _solver_inputs(draw):
    n_links = draw(st.integers(1, 8))
    n = draw(st.integers(0, 40))
    n_ranks = draw(st.integers(1, 4))

    def per_flow(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    link_cap = draw(st.lists(st.sampled_from(_LINK_CAPS), min_size=n_links, max_size=n_links))
    # a small pool: links are shared; a path may be empty or repeat a link
    paths = per_flow(st.lists(st.integers(0, n_links - 1), max_size=6))
    ranks = per_flow(st.integers(0, n_ranks - 1))
    cap_rate = per_flow(st.sampled_from(_FLOW_CAPS) | st.floats(0.0, 20.0))
    return cap_rate, ranks, paths, link_cap


@settings(max_examples=300, deadline=None)
@given(_solver_inputs())
# links 0 and 1 tie on 0.1/3: the smaller id is filled first and alone, which
# leaves flow 0 a share one ulp above flow 1's (largest-id-first, or both
# links in one pass, gives them the same share)
@example(([0.1, 0.1], [0, 0], [[1, 1], [0, 0, 0, 1]], [0.1, 0.1]))
# (cap - residual) / cap lands one ulp under the 0.98 saturation threshold
# where 1 - residual / cap lands on it: "none", not "single"
@example(([0.98 * 17.3125], [0], [[0]], [17.3125]))
# the same ulp on link 0, which network-limited flows of two ranks cross:
# not contended
@example(([100.0, 100.0], [1, 0], [[0, 1], [0, 2]], [17.3125, 0.5, 0.98 * 17.3125 - 0.5]))
def test_solver_matches_numpy_oracle_bit_for_bit(oracle, inputs):
    _assert_matches_oracle(oracle, *inputs)


# ----------------------------------------------------------------------
# one solve per component equals one solve of everything, bit for bit
# ----------------------------------------------------------------------
def _solve_per_component(cap_rate, ranks, paths, link_cap):
    """``(rates, link_load, contended)`` composed from one solve per
    ``model.components`` group, scattered back: contended if any group is."""
    rate = [None] * len(cap_rate)
    load = {}
    contended = False
    for members in model.components(paths):
        sub = [[column[i] for i in members] for column in (cap_rate, ranks, paths)]
        sub_rate, sub_load = solve_rates(*sub, link_cap)
        if classify_contention(sub_rate, *sub, link_cap, sub_load):
            contended = True
        for i, r in zip(members, sub_rate):
            rate[i] = r
        assert not sub_load.keys() & load.keys()  # a link lies in one component
        load.update(sub_load)
    return rate, load, contended


@settings(max_examples=300, deadline=None)
@given(_solver_inputs())
# three components: two ranks meet on link 0, one rank shares link 1 (listed
# twice by flow 2), and an empty path
@example(([10.0, 10.0, 10.0, 10.0, 0.5], [2, 1, 1, 1, 0], [[0], [0], [1, 1], [1], []], [1.0, 1.0]))
# the tied-links example above, beside a component of its own
@example(([0.1, 0.1, 5.0], [0, 0, 1], [[1, 1], [0, 0, 0, 1], [2]], [0.1, 0.1, 3.0]))
def test_solving_per_component_equals_one_solve(inputs):
    cap_rate, ranks, paths, link_cap = inputs
    rate, load = solve_rates(cap_rate, ranks, paths, link_cap)
    contended = classify_contention(rate, cap_rate, ranks, paths, link_cap, load)
    # ==, not approx: the same operations in the same order per link
    assert _solve_per_component(cap_rate, ranks, paths, link_cap) == (rate, load, contended)


@settings(max_examples=200, deadline=None)
@given(_solver_inputs())
def test_components_partition_the_flows_into_connected_groups(inputs):
    paths = inputs[2]
    comps = model.components(paths)
    # every flow once; members ascending; groups ordered by smallest member
    assert sorted(f for members in comps for f in members) == list(range(len(paths)))
    assert all(members == sorted(members) for members in comps)
    assert [members[0] for members in comps] == sorted(members[0] for members in comps)
    for members in comps:
        # no link crosses two groups, and each group is connected
        outside = {link for f in range(len(paths)) if f not in members for link in paths[f]}
        assert not outside & {link for f in members for link in paths[f]}
        reached, frontier = {members[0]}, [members[0]]
        while frontier:
            links = set(paths[frontier.pop()])
            for f in members:
                if f not in reached and links & set(paths[f]):
                    reached.add(f)
                    frontier.append(f)
        assert reached == set(members)


# ----------------------------------------------------------------------
# fluid laws
# ----------------------------------------------------------------------
def test_prioplus_fluid_law_matches_scheme_constants():
    from tests.helpers import FakeSender

    sender = FakeSender()
    cc = PrioPlusCC(
        Swift(SwiftParams(target_scaling=False)),
        ChannelConfig(n_priorities=2),
        vpriority=1,
        probe_first=False,
    )
    cc.attach(sender)
    sender.cc = cc
    init, ramp, ceil = law_for(sender)
    assert init == pytest.approx(max(cc.w_ls, cc.min_cwnd))
    assert ramp == pytest.approx(max(cc.w_ls / max(cc.nflow, 1.0), 1.0))
    line_bpns = sender.line_rate_bps / 8e9
    assert ceil == pytest.approx(max(cc.d_target * line_bpns, sender.bdp_bytes, sender.mtu))


def test_swift_fluid_law_uses_ai_and_target():
    from tests.helpers import FakeSender

    sender = FakeSender()
    cc = Swift(SwiftParams(target_scaling=False))
    cc.attach(sender)
    sender.cc = cc
    _, ramp, ceil = law_for(sender)
    assert ramp == pytest.approx(cc.ai_bytes)
    assert ceil >= sender.bdp_bytes


# ----------------------------------------------------------------------
# hybrid driver end-to-end
# ----------------------------------------------------------------------
def test_driver_attached_but_packet_only_is_byte_identical():
    """With quiescence disabled the driver must be a pure pass-through."""
    sim_a, _, flows_a = star_world(3, 200_000, 150_000)
    assert run_until_flows_done(sim_a, flows_a, 2_000_000_000)
    base = [f.fct_ns() for f in flows_a]

    sim_b, net_b, flows_b = star_world(3, 200_000, 150_000)
    driver = HybridDriver(sim_b, net_b)
    driver.quiet_backlog_bytes = -1  # the quiescence predicate never holds
    assert run_until_flows_done(sim_b, flows_b, 2_000_000_000, driver=driver)
    assert [f.fct_ns() for f in flows_b] == base
    assert driver.stats["fluid_epochs"] == 0
    # the two drive loops stop on different grids (1 ms / one quiet step past
    # the last completion), so the trailing events each has processed differ:
    # count events on one common clock
    clock = max(sim_a.now, sim_b.now)
    sim_a.run(until=clock)
    sim_b.run(until=clock)
    assert sim_b.events_processed == sim_a.events_processed


def test_hybrid_star_agreement_and_speed():
    """Staggered solo flows: hybrid FCTs within 5% at far fewer events."""
    sim_p, _, flows_p = star_world(5, 300_000, 600_000)
    assert run_until_flows_done(sim_p, flows_p, 2_000_000_000)
    packet_fcts = [f.fct_ns() for f in flows_p]

    sim_h, net_h, flows_h = star_world(5, 300_000, 600_000)
    driver = HybridDriver(sim_h, net_h)
    assert run_until_flows_done(sim_h, flows_h, 2_000_000_000, driver=driver)
    hybrid_fcts = [f.fct_ns() for f in flows_h]
    for p, h in zip(packet_fcts, hybrid_fcts):
        assert abs(p - h) / p < 0.05
    assert driver.stats["fluid_epochs"] >= 1
    assert driver.stats["fluid_completions"] >= 1
    assert sim_h.events_processed < sim_p.events_processed / 2


def test_fluid_admission_is_gated_by_pipe_fill_delay(monkeypatch):
    """A flow starting inside an epoch completes ~one-way-delay later than
    the pure send-side staircase would predict (the pipe-fill gate)."""
    sim, net, flows = star_world(2, 300_000, 600_000)
    driver = HybridDriver(sim, net)
    seen = []
    orig = _Epoch._absorb

    def absorb(epoch, sender):
        orig(epoch, sender)
        seen.append((sender.flow.flow_id, epoch._flows[-1].gate_ns, sim.now))

    monkeypatch.setattr(_Epoch, "_absorb", absorb)
    assert run_until_flows_done(sim, flows, 2_000_000_000, driver=driver)
    fresh = [(fid, gate, now) for fid, gate, now in seen if gate > 0]
    assert fresh, "expected at least one fresh in-epoch admission"
    for _, gate, now in fresh:
        assert gate > now  # strictly in the future: delivery starts late


def test_regime_telemetry_and_sampler_rows():
    """Regime switches reach the recorder and the sampler, each fluid entry
    with the packets it withdrew, and ``repro report``'s card totals them."""
    from repro.obs.report import build_dashboard
    from repro.telemetry import Recorder
    from tests.helpers import ChannelLog

    log = ChannelLog()
    rec, smp = Recorder(log), TimeSeriesSampler(stride_ns=100_000)
    with installed(rec, smp):
        sim, net, flows = star_world(3, 300_000, 600_000)
        driver = HybridDriver(sim, net)
        assert run_until_flows_done(sim, flows, 2_000_000_000, driver=driver)
    smp.finalize()
    modes = [ev[1] for ev in log.events["regime"]]
    assert "fluid" in modes and "packet" in modes
    assert rec.metrics.counter("regime.fluid").value >= 1
    assert any(r["mode"] == "fluid" for r in smp.regimes.rows)
    assert any(r["kind"] == "regime" for r in smp.rows())
    withdrawn = driver.stats["withdrawn_packets"]
    assert withdrawn > 0
    assert sum(ev[4] for ev in log.events["regime"] if ev[1] == "fluid") == withdrawn
    assert sum(r["withdrawn"] for r in smp.regimes.rows) == withdrawn
    assert f"{withdrawn} packets withdrawn" in build_dashboard(samples=smp.rows())


@pytest.mark.parametrize("ranks", [(1,), (2, 1)], ids=["same_rank", "two_ranks"])
def test_star_exits_fluid_only_on_cross_rank_contention(ranks):
    """The one exit policy: a second flow joins a fluid epoch on the star's
    bottleneck.  Two same-rank flows share it and stay fluid, with no
    ``contention:*`` exit; a lower rank arriving under a higher one sends
    the fabric back to packets on ``contention:priority``."""
    sim, net, flows = star_world(2, 400_000, 150_000, ranks=ranks)
    driver = HybridDriver(sim, net)
    assert run_until_flows_done(sim, flows, 2_000_000_000, driver=driver)
    st = driver.stats
    assert st["admitted_in_fluid"] >= 1  # the second flow met the first in fluid
    contention = {r: n for r, n in st["exit_reasons"].items() if r.startswith("contention:")}
    if len(ranks) == 1:
        assert contention == {}
        assert st["fluid_completions"] == 2
    else:
        assert contention.get("contention:priority", 0) >= 1


def test_shared_config_resolves_backlog_threshold_per_driver():
    """One ``FluidConfig()`` on two fabrics: each driver derives its own
    quiescence threshold, 8 wire-MTUs per port of its own fabric."""
    cfg = FluidConfig()
    sim_a = Simulator(1)
    net_a, _, _ = star(sim_a, 3, rate_bps=100e9, link_delay_ns=1_000)
    sim_b = Simulator(1)
    net_b, _ = fat_tree(sim_b, k=4, rate_bps=100e9)
    drivers = [HybridDriver(sim_a, net_a, cfg), HybridDriver(sim_b, net_b, cfg)]
    thresholds = [d.quiet_backlog_bytes for d in drivers]
    assert thresholds == [8 * 1540 * len(d._ports) for d in drivers]
    assert thresholds[0] < thresholds[1]


@pytest.mark.parametrize("every", [0, -50_000, 50_000.0, None])
def test_check_interval_must_be_a_positive_int(every):
    """A horizon of ``now + 0`` (or less) never advances the fluid loop, and
    the drive loop used to spin on it forever."""
    with pytest.raises(ValueError):
        FluidConfig(check_every_ns=every)
    assert FluidConfig(check_every_ns=1).check_every_ns == 1


def test_prioplus_fluid_sync_resets_transition_state():
    from tests.helpers import FakeSender

    sender = FakeSender()
    cc = PrioPlusCC(
        Swift(SwiftParams(target_scaling=False)),
        ChannelConfig(n_priorities=2),
        vpriority=1,
        probe_first=False,
    )
    cc.attach(sender)
    cc.consec = 3
    cc.rtt_pass = True
    cc.dual_rtt_pass = True
    cc.fluid_sync(55_555.0)
    assert cc.inner.min_cwnd <= cc.inner.cwnd <= cc.inner.max_cwnd + 1e-6
    if cc.inner.min_cwnd <= 55_555.0 <= cc.inner.max_cwnd:
        assert cc.inner.cwnd == pytest.approx(55_555.0)
    assert cc.consec == 0
    assert cc.rtt_pass is False and cc.dual_rtt_pass is False
    assert cc.rtt_end_seq == sender.snd_nxt


def test_hybrid_on_fat_tree_mixed_ranks_completes():
    """Cross-rank contention forces exits; results stay sane end-to-end."""
    sim, net, flows = midscale_world(6, 300_000, 150_000)
    driver = HybridDriver(sim, net)
    assert run_until_flows_done(sim, flows, 10_000_000_000, driver=driver)
    assert all(f.done for f in flows)


def test_hybrid_midscale_agreement():
    """The gated hybrid-vs-packet agreement scenario (ROADMAP 4b).

    Flow sizes sit inside the ramp/transition regime (the window never rests
    long against its delay-channel ceiling): that is the regime the hybrid
    core actually runs fluid, and where its error envelope is tightest.
    Ceiling-bound flows deviate more; docs/PERFORMANCE.md has both envelopes,
    and :func:`test_hybrid_golden_stays_within_its_twin_bounds` holds every
    golden world to its committed twin bound.
    """
    sim_p, _, flows_p = midscale_world(6, 400_000, 400_000)
    assert run_until_flows_done(sim_p, flows_p, 10_000_000_000)
    sim_h, net_h, flows_h = midscale_world(6, 400_000, 400_000)
    driver = HybridDriver(sim_h, net_h)
    assert run_until_flows_done(sim_h, flows_h, 10_000_000_000, driver=driver)
    assert driver.stats["fluid_epochs"] >= 1

    def summary(flows):
        fcts = sorted(f.fct_ns() for f in flows)
        return {
            "goodput": sum(f.size_bytes for f in flows),  # every flow is done
            "fct_mean": sum(fcts) / len(fcts),
            "fct_p99": fcts[min(len(fcts) - 1, int(0.99 * len(fcts)))],
        }

    packet, hybrid = summary(flows_p), summary(flows_h)
    for metric, want in packet.items():
        assert abs(want - hybrid[metric]) / want <= 0.05, (metric, want, hybrid[metric])


# ----------------------------------------------------------------------
# one solve per component, and only where members or caps moved; the rates
# in force are always those of one fresh solve of every live flow
# ----------------------------------------------------------------------
def _count_solves(world, monkeypatch):
    """Run ``world`` hybrid; returns per-segment sums of live flows, of flows
    solved (the sizes of the groups solved) and of connected components of
    the live set, checking on every segment that the groups are exactly
    those components and that the rates and contention in force ``==`` one
    monolithic solve of the whole live set."""
    sim, net, flows = world
    driver = HybridDriver(sim, net)
    fresh_solve, fresh_classify = model.solve_rates, model.classify_contention
    counts = dict.fromkeys(("segments", "live", "solved", "components"), 0)

    def counting_solve(cap_rate, *args):  # wrapped from outside, as the ledger's tracer does
        counts["solved"] += len(cap_rate)
        return fresh_solve(cap_rate, *args)

    allocate = _Epoch._allocate

    def checked_allocate(epoch, now):
        contended = allocate(epoch, now)
        live, link_caps = epoch._flows, driver._link_caps
        caps = [0.0 if f.gate_ns > now else f.cwnd / f.sender.base_rtt for f in live]
        ranks, paths = [f.rank for f in live], [f.links for f in live]
        rate, load = fresh_solve(caps, ranks, paths, link_caps)
        groups = epoch._groups
        pos = {f: i for i, f in enumerate(live)}
        comps = model.components(paths)
        assert sorted([pos[f] for f in g.flows] for g in groups) == comps
        held = sorted(
            (pos[f], cap, r) for g in groups for f, cap, r in zip(g.flows, g.caps, g.rates)
        )
        assert held == list(zip(range(len(live)), caps, rate))
        want = fresh_classify(rate, caps, ranks, paths, link_caps, load)
        assert contended == want
        counts["segments"] += 1
        counts["live"] += len(live)
        counts["components"] += len(comps)
        return contended

    monkeypatch.setattr(model, "solve_rates", counting_solve)
    monkeypatch.setattr(_Epoch, "_allocate", checked_allocate)
    assert run_until_flows_done(sim, flows, 10_000_000_000, driver=driver)
    assert driver.stats["fluid_epochs"] >= 1
    return counts


def test_solves_never_exceed_segments_midscale(monkeypatch):
    counts = _count_solves(midscale_world(6, 400_000, 400_000), monkeypatch)
    assert 0 < counts["solved"] <= counts["live"]


def test_unchanged_inputs_reuse_the_last_allocation(monkeypatch):
    """Staggered single-rank bulk flows sit against their window ceiling:
    between two check boundaries they re-present the same cap rates on the
    same flow set, and those segments must not solve again."""
    counts = _count_solves(star_world(5, 300_000, 600_000), monkeypatch)
    assert 0 < counts["solved"] < counts["live"]


def test_bulk_waves_split_into_components(monkeypatch):
    """The golden ``bulk_waves`` world exercises the split: on average a
    segment's live flows form at least two components, and far fewer flows
    are solved than are live."""
    counts = _count_solves(bulk_waves_world(), monkeypatch)
    assert counts["components"] >= 2 * counts["segments"]
    assert counts["solved"] < counts["live"] / 2


def _bare_epoch(n_links):
    """An epoch on an empty fabric whose groups are driven by hand:
    ``absorb(*links)`` adds one window-limited flow with that path (unit
    link capacities)."""
    sim = Simulator(1)
    net, _, _ = star(sim, 2, rate_bps=10e9, link_delay_ns=1_000)
    driver = HybridDriver(sim, net)
    driver._link_caps.extend([1.0] * n_links)
    driver._enter_fluid([])
    epoch = driver.epoch

    def absorb(*links):
        # the fields _FluidFlow's byte ledger opens from: a fresh flow
        sender = SimpleNamespace(
            base_rtt=8_000, completed=False, next_new_seq=0, remaining_bytes=1_000_000
        )
        flow = _FluidFlow(sender, list(links), 0, 800.0, 0.0, 800.0)
        epoch._flows.append(flow)
        epoch._join(flow)
        return flow

    return epoch, absorb


def _group_members(epoch):
    """Each group as positions in ``epoch._flows``, in the group's order."""
    pos = {f: i for i, f in enumerate(epoch._flows)}
    return sorted([pos[f] for f in g.flows] for g in epoch._groups)


def test_admission_bridging_groups_merges_them_in_absorb_order():
    epoch, absorb = _bare_epoch(8)
    for path in ([0, 1], [5], [1, 2], [6], [5, 4], [7]):
        absorb(*path)
    assert _group_members(epoch) == [[0, 2], [1, 4], [3], [5]]
    absorb(2, 6, 5)  # bridges the first three groups; [7] stays apart
    assert _group_members(epoch) == [[0, 1, 2, 3, 4, 6], [5]]
    assert all(f.group is g for g in epoch._groups for f in g.flows)
    absorb(4)  # a link of a merged-away group, off the bridge's path
    assert _group_members(epoch) == [[0, 1, 2, 3, 4, 6, 7], [5]]


def test_completion_that_disconnects_a_group_splits_it(monkeypatch):
    epoch, absorb = _bare_epoch(8)
    solved = []  # sizes of the groups solved
    solve = model.solve_rates

    def counting_solve(cap_rate, *args):
        solved.append(len(cap_rate))
        return solve(cap_rate, *args)

    monkeypatch.setattr(model, "solve_rates", counting_solve)
    left, bridge, right, other = absorb(0), absorb(0, 1, 2), absorb(1), absorb(4)
    epoch._allocate(epoch.sim.now)
    assert _group_members(epoch) == [[0, 1, 2], [3]]
    assert sorted(solved) == [1, 3]

    bridge.sender.completed = True
    epoch._settle(epoch.sim.now)  # every group is due: none has opened a segment
    # removed at once, marked, and re-split before the next solve
    assert _group_members(epoch) == [[0, 1], [2]]
    assert sorted(g.split for g in epoch._groups) == [False, True]
    solved.clear()
    epoch._allocate(epoch.sim.now)
    assert _group_members(epoch) == [[0], [1], [2]]
    assert solved == [1, 1]  # the two halves; `other` kept its allocation
    assert len({left.group, right.group, other.group}) == 3

    # a cap that moves re-solves only its own group
    solved.clear()
    other.cwnd = 400.0
    epoch._allocate(epoch.sim.now)
    assert solved == [1] and other.group.caps == [400.0 / 8_000]
    # link 2 was the finished flow's alone: a flow there joins nobody
    absorb(2)
    assert _group_members(epoch) == [[0], [1], [2], [3]]


def test_a_route_rebuild_reroutes_a_flow_absorbed_again():
    """A flow absorbed before a link cut and ``rebuild_routes`` is credited
    over its new path when it is absorbed again: the driver walks each
    flow's path per absorption, under the routes in force."""
    sim = Simulator(1)
    net, hosts = fat_tree(sim, k=4, rate_bps=100e9)
    flow = Flow(1, hosts[0], hosts[-1], 1_000_000)
    sender = FlowSender(sim, net, flow, Swift(SwiftParams()), rto_ns=10**10)
    driver = HybridDriver(sim, net)
    driver._enter_fluid([sender])
    (before,) = driver.epoch._flows
    ports = net.path_ports(flow.src, flow.dst, flow_id=flow.flow_id)
    assert before.links == [driver._link_index[p] for p in ports]

    uplink = ports[1]  # edge -> aggregation: the edge switch has another
    net.set_link_state(ports[0].peer, uplink.peer, up=False)
    net.rebuild_routes()
    driver._enter_fluid([sender])  # the next epoch absorbs it again
    (after,) = driver.epoch._flows
    rerouted = net.path_ports(flow.src, flow.dst, flow_id=flow.flow_id)
    assert uplink not in rerouted
    assert driver._link_index[uplink] not in after.links
    assert after.links == [driver._link_index[p] for p in rerouted]


class _StepLog(Simulator):
    """A simulator that logs, at the start of every ``run`` call, the clock
    and what ``observe()`` returns."""

    def __init__(self, seed, observe):
        super().__init__(seed)
        self.observe = observe
        self.log = []

    def run(self, *args, **kwargs):
        self.log.append((self.now, self.observe()))
        return super().run(*args, **kwargs)


def _steady_and_ramping(observe):
    """Two disjoint one-flow components inside one fluid epoch on a k=4
    fat-tree: a 4 MB flow that ramps to line rate within ~20 µs and then
    holds it, and a 300 kB flow starting at 100 µs that ramps and completes
    while the first is steady.  Both start inside the epoch.  Returns the
    simulator (its step log of ``observe(senders)``), the flows and the
    driver."""
    senders = []
    sim = _StepLog(1, lambda: observe(senders))
    net, hosts = fat_tree(sim, k=4, rate_bps=100e9)
    channels = ChannelConfig(n_priorities=1)
    flows = [
        Flow(1, hosts[0], hosts[1], 4_000_000, vpriority=1, start_ns=0),
        Flow(2, hosts[2], hosts[3], 300_000, vpriority=1, start_ns=100_000),
    ]
    for f in flows:
        cc = PrioPlusCC(
            Swift(SwiftParams(target_scaling=False)), channels, vpriority=1, probe_first=False
        )
        senders.append(FlowSender(sim, net, f, cc, rto_ns=10**10))
    driver = HybridDriver(sim, net)
    driver._enter_fluid([])
    assert run_until_flows_done(sim, flows, 10**9, driver=driver)
    return sim, flows, driver


def test_a_steady_component_is_settled_only_at_its_own_events():
    """While a disjoint component ramps (a step per RTT) and completes, a
    steady component is not credited: its sender's acked counter holds
    still at every step, and it still completes with every byte."""
    sim, (steady, ramping), driver = _steady_and_ramping(
        lambda senders: (senders[0].acked_count, senders[1].started, senders[1].completed)
    )
    during = [acked for _, (acked, started, done) in sim.log if started and not done]
    assert len(during) >= 5, sim.log  # the ramping flow was stepped per RTT
    assert len(set(during)) == 1, during
    assert 0 < during[0] < steady.size_bytes // 1000
    assert driver.stats["fluid_completions"] == 2
    assert driver.stats["exit_reasons"] == {"deadline": 1}
    assert steady.completion_ns > ramping.completion_ns


def test_sinks_read_steady_counters_at_every_step_and_change_nothing():
    """With a sampler attached, a steady flow's sampled ``acked_bytes`` moves
    at every sample (the stride is longer than the longest step), as fresh
    as crediting it at every step would leave it; the run is the same
    without the sampler."""
    stride = _DT_MAX_NS + 10_000
    sampler = TimeSeriesSampler(stride_ns=stride)
    with installed(sampler):
        sim, flows, driver = _steady_and_ramping(lambda senders: None)
    plain_sim, plain_flows, plain_driver = _steady_and_ramping(lambda senders: None)
    assert [f.fct_ns() for f in flows] == [f.fct_ns() for f in plain_flows]
    assert driver.stats == plain_driver.stats
    assert (sim.now, sim.events_processed) == (plain_sim.now, plain_sim.events_processed)
    assert sim.log == plain_sim.log

    steady = flows[0]
    acked = [
        row["acked_bytes"] for row in sampler.flows.rows
        if row["flow"] == 1 and row["t"] < steady.completion_ns
    ]
    assert len(acked) >= 4
    assert all(a < b for a, b in zip(acked, acked[1:])), acked


# ----------------------------------------------------------------------
# hybrid goldens
# ----------------------------------------------------------------------
def test_hybrid_golden_stays_within_its_twin_bounds():
    """The fidelity ratchet: every group of every golden world sits within
    its committed bound of its pure-packet twin, on mean and p99 FCT.

    Static: ``tests/test_golden_results.py`` holds ``hybrid_results.json``
    equal to a live run, and the twins are committed
    (``tests/hybrid_twins.py``), so a regeneration that worsens fidelity
    fails here even with its bytes rewritten.  A bound only ever goes down."""
    twins = json.loads(TWINS_PATH.read_text())
    hybrid = json.loads(HYBRID_GOLDEN_PATH.read_text())
    assert sorted(twins) == sorted(hybrid) == sorted(HYBRID_WORLDS)
    assert breaches(twins, hybrid) == []


def test_every_trace_world_exits_fluid_on_contention():
    """The packet floor acts only after a contention exit, so a world whose
    one epoch ends at the deadline cannot judge it (at 20 ms, trace seeds 1
    and 2 run so): every streaming world of the ratchet leaves fluid on
    ``contention:priority`` at least once."""
    hybrid = json.loads(HYBRID_GOLDEN_PATH.read_text())
    reasons = {n: r["fluid"]["exit_reasons"] for n, r in hybrid.items() if r.get("streaming")}
    assert reasons and all(r.get("contention:priority", 0) > 0 for r in reasons.values()), reasons


def test_the_sweep_at_the_floor_in_force_breaches_no_bound():
    """``hybrid_twins.py --sweep`` at the floor in force sums the golden
    worlds' events and epochs and breaches no twin bound, and it leaves the
    floor's constants as it found them, even when a setting fails."""
    from repro.fluid import hybrid

    floor = [getattr(hybrid, const) for const in FLOOR]
    setting = ":".join(str(ns // 1000) for ns in floor)
    twins = json.loads(TWINS_PATH.read_text())
    stats = [run_stats(r) for r in json.loads(HYBRID_GOLDEN_PATH.read_text()).values()]
    events, epochs = (sum(s[key] for s in stats) for key in ("events", "fluid_epochs"))
    assert sweep([setting], twins) == [(setting, events, epochs, [])]
    with pytest.raises(ValueError):
        sweep(["1:2"], twins)  # patches two constants, then fails
    assert [getattr(hybrid, const) for const in FLOOR] == floor


@pytest.mark.parametrize("world", ["star", "midscale", "midscale_contended"])
def test_cheap_twins_match_the_committed_twins(world):
    """The three twins that take under a second are re-run on every tier-1
    pass and must equal the committed file; ``hybrid_twins.py --check``
    re-runs them all."""
    assert run_twin(world) == measured(json.loads(TWINS_PATH.read_text())[world])


# ----------------------------------------------------------------------
# packet phases end when the fabric goes quiet, and handoffs lose no byte
# ----------------------------------------------------------------------
def test_packet_phase_ends_when_the_fabric_goes_quiet():
    """After a fluid exit the driver asks "quiet?" first at the hysteresis
    floor in force for that phase, then on the quiet grid, and parks the
    senders within one step of the first grid instant past the floor at
    which the predicate holds — not at a polling boundary.

    The test evaluates the predicate itself, from a timer chain on the same
    grid started at each floor, and compares with what the driver did."""
    from repro.fluid.hybrid import _QUIET_STEP_NS
    from repro.probe import installed

    exits = []  # fluid → packet instants
    entries = []  # packet → fluid instants
    floors = {}  # exit instant → the floor in force for the phase it opened
    first_quiet = {}  # exit instant → first grid instant past the floor the predicate held
    asked = []  # (instant, answer) of every _quiescent() the driver made

    def watch(exit_ns):
        if driver.epoch is not None or exits[-1] != exit_ns:
            return
        if quiescent():
            first_quiet[exit_ns] = sim.now
        else:
            sim.at(sim.now + _QUIET_STEP_NS, watch, exit_ns)

    class Regimes:
        def regime(self, now, mode, reason, n_flows, n_withdrawn):
            if mode == "fluid":
                entries.append(now)
            else:
                exits.append(now)
                floors[now] = driver._floor_ns
                sim.at(now + driver._floor_ns, watch, now)

    with installed(Regimes()):
        sim, net, flows = midscale_world(12, 1_000_000, 50_000)
    driver = HybridDriver(sim, net)
    quiescent = driver._quiescent

    def recording_quiescent():
        yes = quiescent()
        asked.append((sim.now, yes))
        return yes

    driver._quiescent = recording_quiescent
    assert run_until_flows_done(sim, flows, 10_000_000_000, driver=driver)
    assert driver.stats["exit_reasons"]["contention:priority"] >= 2
    assert driver.stats["drain_failures"] == 0  # every yes was followed by an entry

    followed = list(zip(exits, entries[1:]))  # entries[0] opened the first epoch
    assert len(followed) >= 2
    assert len({floors[exit_ns] for exit_ns, _ in followed}) >= 2  # the floor moved
    for exit_ns, entry_ns in followed:
        floor = exit_ns + floors[exit_ns]
        phase = [(t, yes) for t, yes in asked if exit_ns < t <= entry_ns]
        # never asked before the floor, first asked exactly at it, then on
        # the grid; the one yes is the last: the senders are held there and
        # the epoch starts there
        assert phase[0][0] == floor
        assert all(b - a == _QUIET_STEP_NS for (a, _), (b, _) in zip(phase, phase[1:]))
        assert [yes for _, yes in phase] == [False] * (len(phase) - 1) + [True]
        assert floor <= first_quiet[exit_ns] <= phase[-1][0] <= first_quiet[exit_ns] + _QUIET_STEP_NS


def test_packet_floor_backs_off_after_short_contention_epochs(monkeypatch):
    """On ``midscale_contended`` each contention exit from an epoch shorter
    than ``_SHORT_EPOCH_NS`` doubles the floor, which then holds at the cap;
    the long last epoch (ended when every flow is done) resets it."""
    from repro.fluid import hybrid

    base, cap = hybrid._MIN_PACKET_NS, 4 * hybrid._MIN_PACKET_NS
    monkeypatch.setattr(hybrid, "_MAX_PACKET_NS", cap)
    sim, net, flows = midscale_world(12, 1_000_000, 50_000)
    driver = HybridDriver(sim, net)
    exits = []  # per fluid exit: (reason, epoch length, floor before, floor after)
    exit_fluid = driver._exit_fluid

    def recording_exit(reason):
        before, entered = driver._floor_ns, driver.epoch._opened
        exit_fluid(reason)
        exits.append((reason, sim.now - entered, before, driver._floor_ns))

    driver._exit_fluid = recording_exit
    assert run_until_flows_done(sim, flows, 10_000_000_000, driver=driver)
    assert driver.stats["drain_failures"] == 0
    for reason, epoch_ns, before, after in exits:
        short = reason.startswith("contention") and epoch_ns < hybrid._SHORT_EPOCH_NS
        assert after == (min(2 * before, cap) if short else base)
    assert [after for _, _, _, after in exits][:3] == [2 * base, cap, cap]
    reason, epoch_ns, before, after = exits[-1]
    assert epoch_ns >= hybrid._SHORT_EPOCH_NS and before == cap and after == base


def test_midscale_contended_mean_fct_against_its_packet_twin():
    """Persistent two-rank contention: re-entering fluid every ~20 µs made
    the hybrid mean FCT read +25.6 % against the packet twin under a fixed
    100 µs floor (+58 % under a fixed 25 µs one); the back-off must keep it
    below that."""
    sim_p, _, flows_p = midscale_world(12, 1_000_000, 50_000)
    assert run_until_flows_done(sim_p, flows_p, 10_000_000_000)
    result = HYBRID_WORLDS["midscale_contended"]()
    packet_mean = sum(f.fct_ns() for f in flows_p) / len(flows_p)
    hybrid_mean = sum(result["fct_ns"]) / len(result["fct_ns"])
    assert hybrid_mean / packet_mean - 1 < 0.25


@pytest.mark.parametrize("world", sorted(HYBRID_WORLDS))
def test_bytes_are_conserved_across_handoffs(world, monkeypatch):
    """Per flow, bytes credited in fluid + bytes acked in packets = flow size
    (a flow counted in two regimes would exceed it), the driver's
    ``fluid_bytes`` plus ``withdrawn_bytes`` is the sum of the credits, and
    the receiver holds every packet.  Fluid credit is counted where it
    reaches the sender, at the write-back, and no sender is written back
    twice in one epoch.  The packets of a window withdrawn at entry are
    counted once each: no packet is in two windows, and the windows sum to
    ``withdrawn_bytes``.  The test-level half of ROADMAP item 4a."""
    credited = {}  # sender → payload written back by fluid_advance
    written = set()  # (sender, epoch) of every write-back
    packet_acked = {}  # sender → payload acked on the packet path
    withdrawn = {}  # sender → payload of its windows withdrawn at entry
    windows = set()  # (sender, seq) of every withdrawn window's packets
    fluid_advance, on_packet = FlowSender.fluid_advance, FlowSender.on_packet
    withdraw = HybridDriver._withdraw

    def counting_withdraw(self, held):
        unacked = {
            s: [q for q in range(s.next_new_seq) if not s.acked[q]]
            for s in held
            if s.inflight_bytes
        }
        out = withdraw(self, held)
        for s, seqs in unacked.items():
            assert not windows & {(s, q) for q in seqs}, f"flow {s.flow.flow_id}: withdrawn twice"
            windows.update((s, q) for q in seqs)
            withdrawn[s] = withdrawn.get(s, 0) + sum(s.payload_of(q) for q in seqs)
        return out

    def counting_advance(self, first, end, scan, now):
        key = (self, self.sim.fluid_driver.stats["fluid_epochs"])
        assert key not in written, f"flow {self.flow.flow_id} written back twice in one epoch"
        written.add(key)
        payload = sum(self.payload_of(seq) for seq in range(first, end))
        credited[self] = credited.get(self, 0) + payload
        fluid_advance(self, first, end, scan, now)

    def counting_on_packet(self, pkt):
        before = self.acked_payload
        on_packet(self, pkt)
        packet_acked[self] = packet_acked.get(self, 0) + self.acked_payload - before

    monkeypatch.setattr(FlowSender, "fluid_advance", counting_advance)
    monkeypatch.setattr(FlowSender, "on_packet", counting_on_packet)
    monkeypatch.setattr(HybridDriver, "_withdraw", counting_withdraw)
    result = HYBRID_WORLDS[world]()
    stats = run_stats(result)
    n_flows = len(result["fct_ns"]) if "fct_ns" in result else result["n_flows"]

    senders = credited.keys() | packet_acked.keys()
    assert len(senders) == n_flows
    crossed = 0
    for s in senders:
        in_fluid, in_packets = credited.get(s, 0), packet_acked.get(s, 0)
        assert in_fluid + in_packets == s.flow.size_bytes, s.flow.flow_id
        assert s.receiver.rx_count == s.n_packets and all(s.receiver.received)
        assert withdrawn.get(s, 0) <= in_fluid
        crossed += bool(in_fluid and in_packets)
    assert sum(withdrawn.values()) == stats["withdrawn_bytes"] > 0
    assert sum(credited.values()) == stats["fluid_bytes"] + stats["withdrawn_bytes"]
    if any(reason.startswith("contention") for reason in stats["exit_reasons"]):
        assert crossed > 0  # live flows were handed back: the sum had two terms


def test_entry_runs_no_event_before_the_first_solve(monkeypatch):
    """From the quiescence decision to the epoch's first solve the engine
    runs no event: the packets in flight are withdrawn, not drained, and
    every one of them is back in the pool by then."""
    sim, net, flows = midscale_world(12, 1_000_000, 50_000)
    driver = HybridDriver(sim, net)
    live = PACKET_POOL.live  # no packet exists before the first send
    entries = []  # per entry: [events at the decision, at the first solve, pool live then]
    quiescent, solve = driver._quiescent, model.solve_rates

    def recording_quiescent():
        yes = quiescent()
        if yes:
            entries.append([sim.events_processed, None, None])
        return yes

    def recording_solve(*args):
        if entries and entries[-1][1] is None:
            entries[-1][1:] = sim.events_processed, PACKET_POOL.live
        return solve(*args)

    driver._quiescent = recording_quiescent
    monkeypatch.setattr(model, "solve_rates", recording_solve)
    assert run_until_flows_done(sim, flows, 10_000_000_000, driver=driver)
    assert len(entries) >= 3
    for at_decision, at_solve, pool_live in entries:
        assert at_solve == at_decision
        assert pool_live == live
    assert driver.stats["withdrawn_packets"] > 0


def _last_ack_world():
    """Two Swift flows on a star with 1.5 µs links: flow 1 (3 kB) has all
    its data at the receiver and its ACKs in flight at the first quiescence
    decision, 5 µs in; flow 2 starts later and runs fluid."""
    sim = Simulator(1)
    net, (a, b), dst = star(sim, 2, rate_bps=100e9, link_delay_ns=1_500)
    flows = [Flow(1, a, dst, 3_000), Flow(2, b, dst, 400_000, start_ns=20_000)]
    for f in flows:
        FlowSender(sim, net, f, Swift(SwiftParams()), rto_ns=10**10)
    return sim, net, flows


def test_a_flow_whose_last_ack_is_in_flight_completes_as_in_packets():
    """Withdrawn with only its ACKs in flight, a flow keeps the completion
    its receiver already recorded, and its sender finishes when the last
    ACK would have landed: both as the pure-packet run (which is what the
    drained entry gave too)."""
    sim_p, _, flows_p = _last_ack_world()
    run_until_flows_done(sim_p, flows_p, 2_000_000_000)
    sim, net, flows = _last_ack_world()
    driver = HybridDriver(sim, net)
    at_entry = []
    withdraw = driver._withdraw

    def recording_withdraw(held):
        at_entry.append([(s.flow.completion_ns, s.completed) for s in held])
        return withdraw(held)

    driver._withdraw = recording_withdraw
    assert run_until_flows_done(sim, flows, 10**9, driver=driver)
    assert at_entry[0] == [(flows_p[0].completion_ns, False)]  # received, not yet acked
    assert driver.stats["fluid_completions"] >= 1
    assert flows[0].completion_ns == flows_p[0].completion_ns
    assert flows[0].sender_done_ns == flows_p[0].sender_done_ns


@pytest.mark.parametrize("reenter", [False, True], ids=["packets_after", "new_epoch"])
@pytest.mark.parametrize("reason", ["deadline", "contention:priority"])
def test_an_ack_withdrawn_into_an_ended_epoch_never_reaches_the_cc(reason, reenter, monkeypatch):
    """A withdrawn ACK's ``_echo`` is scheduled for when the ACK would have
    landed.  If its epoch has exited by then, the write-back already took
    its bytes and its sender is back on packets (or held by a newer epoch):
    the echo must not reach the congestion control.  Two 4 MB Swift flows
    over 20 µs links are held 300 µs in, with ACKs landing up to ~185 µs
    later, and the epoch exits 5 µs after the entry; with ``reenter`` a new
    epoch opens at the same instant, so every stale echo lands inside it."""
    ended = set()  # every epoch the driver has exited
    stale, current = [], []  # per echo to a live sender: ACKs its CC took
    in_epoch = []  # per stale echo: whether an epoch was in force
    acks = [0]
    on_ack, echo, exit_fluid = Swift.on_ack, HybridDriver._echo, HybridDriver._exit_fluid

    def counting_on_ack(self, info):
        acks[0] += 1
        on_ack(self, info)

    def recording_echo(self, s, seq, payload, info, epoch):
        before, live = acks[0], not s.completed
        echo(self, s, seq, payload, info, epoch)
        if live:
            (stale if epoch in ended else current).append(acks[0] - before)
            if epoch in ended:
                in_epoch.append(self.epoch is not None)

    def recording_exit(self, reason):
        ended.add(self.epoch)
        exit_fluid(self, reason)

    monkeypatch.setattr(Swift, "on_ack", counting_on_ack)
    monkeypatch.setattr(HybridDriver, "_echo", recording_echo)
    monkeypatch.setattr(HybridDriver, "_exit_fluid", recording_exit)
    sim = Simulator(1)
    net, (a, b), dst = star(sim, 2, rate_bps=100e9, link_delay_ns=20_000)
    flows = [Flow(1, a, dst, 4_000_000), Flow(2, b, dst, 4_000_000)]
    for f in flows:
        FlowSender(sim, net, f, Swift(SwiftParams()), rto_ns=10**10)
    driver = HybridDriver(sim, net)
    sim.run(until=300_000)
    driver._enter_fluid(driver._active_senders())
    assert driver.epoch._opened > sim.now + 100_000  # ACKs still to land
    sim.run(until=305_000)
    driver._exit_fluid(reason)
    if reenter:
        driver._enter_fluid(driver._active_senders())
    assert run_until_flows_done(sim, flows, 10**9, driver=driver)
    assert current and set(current) == {1}  # an epoch's own echoes reach the CC
    assert stale and set(stale) == {0}
    assert all(in_epoch) if reenter else not all(in_epoch)


def test_hybrid_worlds_hold_under_the_strict_auditor(monkeypatch):
    """The withdraw event, the fluid byte ledger and every packet-core
    invariant hold on the three cheap hybrid worlds, every solve keeps each
    link's summed rate within its capacity (ROADMAP item 4(a)), and auditing
    moves no result (CI ``audit-smoke`` runs every world)."""
    from repro.audit import audit_scope

    solves = []

    def solve_within_capacity(cap_rate, ranks, flow_links, link_cap):
        rates, load = solve_rates(cap_rate, ranks, flow_links, link_cap)
        summed = {}
        for f, path in enumerate(flow_links):
            for link in path:  # one term per traversal
                summed[link] = summed.get(link, 0.0) + rates[f]
        over = {ln: s / link_cap[ln] for ln, s in summed.items() if s > link_cap[ln] * (1 + 1e-12)}
        assert not over, f"solve {len(solves)}: links over capacity (rate / capacity): {over}"
        solves.append(len(rates))
        return rates, load

    monkeypatch.setattr(model, "solve_rates", solve_within_capacity)
    golden = json.loads(HYBRID_GOLDEN_PATH.read_text())
    for name in ("star", "midscale", "midscale_contended"):
        solves.clear()
        with audit_scope("strict") as aud:
            result = HYBRID_WORLDS[name]()
        assert solves, f"{name}: no fluid solve ran"
        assert aud.report.ok
        assert aud.report.checks["fluid_ledger"] > 0
        assert aud.report.ledger["withdrawn"] == result["driver"]["withdrawn_packets"] > 0
        assert json.loads(canonical(result)) == golden[name]


def test_a_traced_hybrid_run_closes_every_withdrawn_trace():
    """A packet taken out at a fluid entry ends its causal trace there
    (``withdrawn``) instead of staying in flight for the rest of the run."""
    from repro.obs import PacketTracer

    tracer = PacketTracer(sample_every=1)
    with installed(tracer):
        HYBRID_WORLDS["midscale_contended"]()
    tracer.finalize()
    snap = tracer.snapshot()
    assert snap["withdrawn"] > 0 and snap["in_flight"] == 0
    assert snap["started"] == snap["delivered"] + snap["dropped"] + snap["corrupted"] + snap["withdrawn"]
    assert {tr.disposition for tr in tracer.traces} == {"delivered", "withdrawn"}


def test_a_degraded_link_reads_its_degraded_rate_everywhere():
    """One rate per port: under a driver, a link degraded before a flow
    starts caps its fluid flows at the degraded rate, and the path timing
    and an HPCC flow's INT hops read it too; restoring the link moves the
    driver's capacity back.  ``rate_bps`` used to keep the nominal rate."""
    import random

    from repro.cc import Hpcc
    from repro.faults.actors import LinkDegradeActor

    sim = Simulator(1)
    net, (src,), dst = star(sim, 1, rate_bps=100e9)
    port = net.path_ports(src, dst)[-1]
    assert net.bottleneck_rate_bps(src, dst) == 100e9  # memoised at the nominal rate
    degrade = LinkDegradeActor([port], 0.25, 0.0, 0, random.Random(1))
    degrade.inject()
    flow = Flow(1, src, dst, 2_000_000)
    sender = FlowSender(sim, net, flow, Hpcc(), rto_ns=10**10)
    hops = []
    on_ack = sender.cc.on_ack

    def recording_on_ack(info):
        hops.extend(info.int_hops or ())
        on_ack(info)

    sender.cc.on_ack = recording_on_ack
    driver = HybridDriver(sim, net)
    assert run_until_flows_done(sim, [flow], 10**9, driver=driver)
    assert driver.stats["fluid_epochs"] >= 1 and hops
    assert net.bottleneck_rate_bps(src, dst) == sender.line_rate_bps == 25e9
    assert {h.rate_bps for h in hops} == {100e9, 25e9}  # the NIC, then the bottleneck
    link = driver._link_index[port]
    assert driver._link_caps[link] == 25e9 / 8e9
    degrade.clear()
    assert not driver._caps_fresh  # the rate write emptied it: an epoch will re-read
    driver._enter_fluid([])
    driver.epoch._reread_caps()
    assert driver._link_caps[link] == 100e9 / 8e9
    assert net.bottleneck_rate_bps(src, dst) == 100e9


def test_write_back_checks_its_own_ledger():
    """The write-back raises when the sender's acked count (kept by the driver
    segment by segment) disagrees with where the ledger ends, and when the
    sender has already finished."""
    sim, _, (flow,) = star_world(1, 10_000, 0)
    s = flow.src.senders[flow.flow_id]
    s.acked_count = 3
    with pytest.raises(AssertionError, match="3 packets acked, fluid ledger ends at 2"):
        s.fluid_advance(0, 2, 0, 700)
    s.acked_count = s.n_packets
    s.fluid_advance(2, s.n_packets, 9, 900)
    assert s.completed and flow.completion_ns == 900 and s._last_activity == 900
    with pytest.raises(AssertionError, match="write-back to a completed sender"):
        s.fluid_advance(s.n_packets, s.n_packets, 9, 900)


def _state_log(world, reference):
    """Run ``world`` hybrid; returns the run's result, its number of sender
    write-backs, and a log of every fluid exit ``(now, reason)``, every
    sender handed back (with the sequence state it holds before it sends
    again) and every sender finishing (with its state then).
    ``reference`` runs every epoch with the direct per-settlement credit of
    ``tests/credit_reference.py``."""
    from tests import credit_reference

    log = []
    writes = [0]
    exit_fluid, release = HybridDriver._exit_fluid, HybridDriver._release_or_start
    finish = FlowSender._finish
    fluid_advance = credit_reference.fluid_advance if reference else FlowSender.fluid_advance

    def log_state(event, s):
        rcv = s.receiver
        log.append((
            event, s.sim.now, s.flow.flow_id, bytes(s.sent), bytes(s.acked), bytes(rcv.received),
            s.acked_count, s.acked_payload, s.next_new_seq, s._cum_watch, s._retx_scan,
            s._last_activity, rcv.rx_count, rcv.cum_seq, s.flow.completion_ns,
        ))

    def recording_exit(self, reason):
        log.append((self.sim.now, reason))
        exit_fluid(self, reason)

    def recording_release(self, s):
        log_state("release", s)
        release(self, s)

    def recording_finish(self):
        log_state("finish", self)
        finish(self)

    def counting_advance(*args):
        writes[0] += 1
        return fluid_advance(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(HybridDriver, "_exit_fluid", recording_exit)
        m.setattr(HybridDriver, "_release_or_start", recording_release)
        m.setattr(FlowSender, "_finish", recording_finish)
        if reference:
            m.setattr(_Epoch, "_settle", credit_reference.settle)
            m.setattr(credit_reference, "fluid_advance", counting_advance)
        else:
            m.setattr(FlowSender, "fluid_advance", counting_advance)
        result = HYBRID_WORLDS[world]()
    return result, writes[0], log


@pytest.mark.parametrize("world", sorted(HYBRID_WORLDS))
def test_one_write_back_leaves_the_state_per_segment_credit_did(world):
    """Differential against the direct credit the ledger replaced, settled
    group by group as the driver settles: at every fluid exit each
    survivor, and at every completion the finishing sender, holds the same
    ``sent`` / ``acked`` / ``received`` arrays, counters and cursors, and
    the run ends on the same results.  Every write-back is a fluid
    completion or a handoff, where the reference wrote once per crediting
    settlement."""
    result, writes, log = _state_log(world, reference=False)
    ref_result, ref_writes, ref_log = _state_log(world, reference=True)
    assert writes > 0, "the ledger was never written back"
    assert log == ref_log
    assert canonical(result) == canonical(ref_result)
    stats = run_stats(result)
    handed_back = sum(entry[0] == "release" for entry in log)
    assert writes <= stats["fluid_completions"] + handed_back < ref_writes
