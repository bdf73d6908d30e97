"""Golden-results gate for both pinned batteries.

Re-runs the ``core`` packet battery and the ``hybrid`` worlds and compares
each canonical JSON byte for byte with its committed file
(``tests/golden/core_results.json``, ``tests/golden/hybrid_results.json``).
Any change that shifts event ordering, packet fates, regime switches or flow
completion times -- however subtly -- fails here.  Rewrite both (only for an
*intentional* semantic change) with::

    PYTHONPATH=src python tests/golden_battery.py --write
"""

import pytest

from tests.golden_battery import batteries, diverged, run


@pytest.mark.parametrize("battery", ["core", "hybrid"])
def test_battery_matches_committed_golden_results(battery):
    worlds, path = batteries()[battery]
    results, _ = run(worlds)
    wrong = diverged(results, path)
    assert wrong is None, f"{battery} world {wrong!r} diverged from {path.name}"
