#!/usr/bin/env python3
"""Worst-case deviations between the redundant formula routes over a random
surface corpus.  Prints one row per check of ``localgeom.CROSS_CHECKS`` with
the largest deviation seen relative to the check's scale and PASS where its
margin is <= 0 at every point, as selfcheck and the live checks decide, both
from one ``CrossCheck.margin`` call per surface; exits nonzero if any bound is
violated.

Usage:
    python scripts/corpus_crosscheck.py [n_surfaces] [points_per_surface] [seed]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

import numpy as np  # noqa: E402

from monge4.localgeom import (CROSS_CHECKS, coeff_norm,
                              invariant_grid)  # noqa: E402
from conftest import random_surfaces  # noqa: E402


def main():
    n_surf = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    n_pts = int(sys.argv[2]) if len(sys.argv) > 2 else 500
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 20240305
    rng = np.random.default_rng(seed)
    worst = {check.name: -np.inf for check in CROSS_CHECKS}
    held = {check.name: True for check in CROSS_CHECKS}

    for surface in random_surfaces(seed=seed, count=n_surf):
        pts = rng.uniform(-0.9, 0.9, size=(n_pts, 2))
        fl = invariant_grid(surface, pts[:, 0], pts[:, 1], order=3)
        msq = coeff_norm(fl) ** 2
        for check in CROSS_CHECKS:
            margin, u, v, scale = check.margin(fl, msq)
            held[check.name] &= bool(np.all(margin <= 0.0))
            deviation = u - v if check.one_sided else np.abs(u - v)
            worst[check.name] = max(worst[check.name],
                                    float(np.max(deviation / scale)))

    print(f"{n_surf} surfaces x {n_pts} points (seed {seed})")
    for check in CROSS_CHECKS:
        print(f"  {'PASS' if held[check.name] else 'FAIL'} {check.name}: "
              f"worst {worst[check.name]:.3e} (bound {check.rel:.0e})")
    return 0 if all(held.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
