#!/usr/bin/env python3
"""Interleaving model-training traffic with virtual priorities (§6.2, Fig 12c).

Two ResNet and two VGG data-parallel jobs share a 2:1 oversubscribed
leaf-spine fabric, rings interleaved across leaves.  Each model's ring
all-reduce traffic gets its own priority.  The script reports training speed
(iterations in the window) per model family, relative to the unprioritised
Swift baseline, for PrioPlus and for physical priority queues.

Run:  python examples/ml_training.py   (~1 minute)
"""

from repro import api
from repro.experiments.report import print_table


def main() -> None:
    # the registered Fig 12c declaration: one point per mode, baseline first
    result = api.run("fig12c")
    base = result["baseline"]["iters_per_job"]
    print("baseline iterations/window:",
          {k: round(v, 2) for k, v in base.items()})
    rows = []
    for mode, s in result["speedups"].items():
        rows.append([
            mode,
            f"{s.get('resnet', float('nan')):.2f}x",
            f"{s.get('vgg', float('nan')):.2f}x",
            f"{s.get('overall', float('nan')):.2f}x",
        ])
    print_table(
        ["mode", "ResNet speedup", "VGG speedup", "overall"],
        rows,
        title="Training-speed speedup vs unprioritised Swift",
    )
    print("\nPhysical strict priority starves the lower-priority family (VGG);")
    print("PrioPlus reclaims leftover bandwidth quickly enough to hurt it less,")
    print("while still accelerating the favoured family.")


if __name__ == "__main__":
    main()
