"""Time the ROADMAP baseline rows that the workloads cover, untraced.

    python3 perfbench/crosscheck.py

Times ``decompose`` and ``verify_theorem`` (given the decomposition) on
the 3-d lattice box 8, cube 3, and ``propagate_reduced`` on a random
d1=4, d2=8, rank-2 system at 1000 to 8000 steps over [0, 10], and prints
them as JSON next to the figures ROADMAP.md recorded for the seed code.
"""

from __future__ import annotations

import json
import sys
import time

from run import SRC, limit_blas_threads

limit_blas_threads()
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from opensys import decomposition as dc  # noqa: E402
from opensys import dynamics as dyn  # noqa: E402
from opensys import lattice as lat  # noqa: E402
from opensys import systems  # noqa: E402

#: Seconds recorded in ROADMAP.md for the seed code (single runs).
ROADMAP = {
    "lattice_3d_box8_cube3.decompose_s": 3.1,
    "lattice_3d_box8_cube3.verify_theorem_s": 4.6,
    "propagate_reduced.steps1000_s": 0.12,
    "propagate_reduced.steps2000_s": 0.45,
    "propagate_reduced.steps4000_s": 1.29,
}


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main() -> int:
    measured = {}
    sys_ = lat.build_lattice_system(lat.LatticeSpec.centered(8, 3, dims=3))
    dec, measured["lattice_3d_box8_cube3.decompose_s"] = \
        timed(dc.decompose, sys_)
    _, measured["lattice_3d_box8_cube3.verify_theorem_s"] = \
        timed(dc.verify_theorem, sys_, dec)

    small = systems.random_system(4, 8, 2, seed=1)
    v1 = np.ones(4, dtype=complex) / 2.0
    for steps in (1000, 2000, 4000, 8000):
        grid = dyn.make_grid(10.0, steps)
        _, measured[f"propagate_reduced.steps{steps}_s"] = timed(
            dyn.propagate_reduced, small, v1,
            dyn.ForcingSignal.zero(dyn.OBSERVABLE), grid)
    print(json.dumps({name: {"measured": value,
                             "roadmap": ROADMAP.get(name)}
                      for name, value in measured.items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
