#!/usr/bin/env python3
"""Grid-refinement study of the reduced memory-kernel integrator.

At each level, ``reduction_discrepancy`` propagates the system through the
reduced observable equation with memory convolution at ``steps`` and
``2 * steps`` and compares both runs with the exact full propagation of
the observable rows; the step count doubles from level to level.  Prints
the number of kernel modes that Gamma couples next to d2, then both
sup-norm gaps and the empirical convergence order (should approach 2).
"""

import argparse

import numpy as np

from opensys.dynamics import make_kernel, reduction_discrepancy
from opensys.systems import load_system, random_system


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", default=None,
                        help="system file (default: random d1=3, d2=6, rank 2)")
    parser.add_argument("--t-max", type=float, default=10.0)
    parser.add_argument("--base-steps", type=int, default=250)
    parser.add_argument("--levels", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sys = load_system(args.input) if args.input else \
        random_system(3, 6, 2, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    v1 = rng.standard_normal(sys.d1) + 1j * rng.standard_normal(sys.d1)
    v1 /= np.linalg.norm(v1)

    modes = len(make_kernel(sys).eigvals)
    print(f"d1={sys.d1} d2={sys.d2} ({modes} coupled kernel modes), "
          f"horizon {args.t_max}")
    print(f"{'steps':>8} {'h':>10} {'sup gap':>12} {'at 2 steps':>12} "
          f"{'order':>7}")
    for level in range(args.levels):
        steps = args.base_steps * 2 ** level
        result = reduction_discrepancy(sys, v1, args.t_max, steps)
        print(f"{steps:>8} {args.t_max / steps:>10.2e} "
              f"{result['sup_diff_coarse']:>12.3e} "
              f"{result['sup_diff_fine']:>12.3e} {result['order']:7.2f}")


if __name__ == "__main__":
    main()
