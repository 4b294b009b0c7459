#!/usr/bin/env python3
"""Grid-refinement study of the reduced memory-kernel integrator.

At each level, ``reduction_discrepancy`` propagates the system through the
reduced observable equation with memory convolution at ``steps`` and
``2 * steps`` and compares both runs with the exact full propagation of
the observable rows; the step count doubles from level to level.  Prints
the seconds the kernel takes to build, the number of its modes that
Gamma couples next to d2 and the number of the cube's reflection sectors
that the reduced equation splits into (1 for a system of matrices), then
at each level both sup-norm gaps, the empirical convergence order (should
approach 2), the seconds ``reduction_discrepancy`` took and the peak
resident memory of the process so far.  ``--lattice BOX CUBE`` runs the centred
3-d lattice of that box and cube, built from its spec with no file.  Set
OPENBLAS_NUM_THREADS=1 for timings on one BLAS thread.
"""

import argparse
import resource
import time

import numpy as np

from opensys.dynamics import make_kernel, reduction_discrepancy
from opensys.lattice import Fold, LatticeSpec, build_lattice_system
from opensys.systems import load_system, random_system


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--input", default=None,
                        help="system file (default: random d1=3, d2=6, rank 2)")
    source.add_argument("--lattice", type=int, nargs=2, default=None,
                        metavar=("BOX", "CUBE"),
                        help="the centred 3-d lattice of this box and cube")
    parser.add_argument("--t-max", type=float, default=10.0)
    parser.add_argument("--base-steps", type=int, default=250)
    parser.add_argument("--levels", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.lattice:
        sys = build_lattice_system(LatticeSpec.centered(*args.lattice))
    elif args.input:
        sys = load_system(args.input)
    else:
        sys = random_system(3, 6, 2, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    v1 = rng.standard_normal(sys.d1) + 1j * rng.standard_normal(sys.d1)
    v1 /= np.linalg.norm(v1)

    start = time.perf_counter()
    modes = len(make_kernel(sys).eigvals)
    seconds = time.perf_counter() - start
    # the sectors of the cube's fold that hold a site
    sectors = int(Fold.of(sys.lattice, True, sys.d1).keep.any(axis=1).sum())
    print(f"d1={sys.d1} d2={sys.d2} ({modes} coupled kernel modes, built in "
          f"{seconds:.3f} s; {sectors} reflection sector(s) of the cube), "
          f"horizon {args.t_max}")
    print(f"{'steps':>8} {'h':>10} {'sup gap':>12} {'at 2 steps':>12} "
          f"{'order':>7} {'seconds':>8} {'peak MB':>8}")
    for level in range(args.levels):
        steps = args.base_steps * 2 ** level
        start = time.perf_counter()
        result = reduction_discrepancy(sys, v1, args.t_max, steps)
        seconds = time.perf_counter() - start
        # ru_maxrss is in kilobytes on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{steps:>8} {args.t_max / steps:>10.2e} "
              f"{result['sup_diff_coarse']:>12.3e} "
              f"{result['sup_diff_fine']:>12.3e} {result['order']:7.2f} "
              f"{seconds:>8.4f} {peak_mb:>8.1f}")


if __name__ == "__main__":
    main()
