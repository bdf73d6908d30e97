"""Fig 11's resource story isolated: PFC headroom vs priority count (§2.2)."""

from repro.experiments.registry import get_experiment
from repro.experiments.report import format_table
from repro.runner import run_experiment


def test_headroom_starves_shared_pool(benchmark):
    # the registered sweep: PrioPlus@8, then Physical at 2/4/6/8 priorities,
    # 32 senders on a 2.0 MB/Tbps buffer with 12 kB headroom
    rows = benchmark.pedantic(
        run_experiment, args=(get_experiment("headroom"),), rounds=1, iterations=1
    )["rows"]
    print("\n" + format_table(
        ["mode", "#prios", "shared pool (KB)", "PFC pauses", "drops", "small mean (us)", "small p99 (us)"],
        [
            (r["mode"], r["n_priorities"], r["shared_pool_bytes"] // 1024,
             int(r["pfc_pauses"]), int(r["drops"]),
             round(r["small_mean_us"], 1), round(r["small_p99_us"], 1))
            for r in rows
        ],
        title="Headroom pressure (incast waves, Tomahawk4-like buffer ratio):",
    ))
    pp = rows[0]
    phys = {r["n_priorities"]: r for r in rows[1:]}

    # §2.2: each extra lossless priority reserves more headroom — the shared
    # pool shrinks monotonically until only the floor remains
    pools = [phys[n]["shared_pool_bytes"] for n in (2, 4, 6, 8)]
    assert all(a >= b for a, b in zip(pools, pools[1:]))
    assert pools[-1] < pools[0]

    # PrioPlus needs 2 physical queues regardless of priority count, keeps
    # most of the chip buffer as shared pool, and fires far fewer pauses
    # (107 vs 525-608: 4.9-5.7x)
    assert pp["shared_pool_bytes"] > 2 * pools[-1]
    assert pp["pfc_pauses"] * 4 <= min(phys[n]["pfc_pauses"] for n in (2, 4, 6, 8))
    assert pp["drops"] == 0
    # every flow completes under every configuration (losslessness holds)
    for r in rows:
        assert r["done"] == r["total"]
