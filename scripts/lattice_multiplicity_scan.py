#!/usr/bin/env python3
"""Scan the lattice example over box sizes at fixed cube side.

Shows that the coupled-core multiplicity stays below twice the surface
count independent of the box size, while the decoupled hidden dimension
grows with the box: evidence that ever more hidden degrees of freedom are
invisible to the cube as the ambient lattice grows.

Each row also gives the seconds its ``verify_example`` took, the peak
of the memory that call allocated through Python (``tracemalloc``,
numpy arrays included; LAPACK workspace is not seen), and the peak
resident memory of the process so far; with the boxes in ascending
order, the last is the row's own peak.  Set OPENBLAS_NUM_THREADS=1 for
timings on one BLAS thread; tracing allocations slows them a little.
"""

import argparse
import resource
import time
import tracemalloc

from opensys.lattice import LatticeSpec, multiplicity_bound, verify_example


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cube", type=int, default=2)
    parser.add_argument("--dims", type=int, default=3, choices=(1, 2, 3))
    parser.add_argument("--boxes", type=int, nargs="+", default=None)
    args = parser.parse_args()

    boxes = args.boxes
    if boxes is None:
        boxes = {1: [6, 10, 16, 24], 2: [5, 7, 9, 12], 3: [4, 5, 6, 7, 8]}[args.dims]

    bound = multiplicity_bound(args.cube, args.dims)
    print(f"cube side N={args.cube}, dims={args.dims}, "
          f"multiplicity bound {bound} (box-independent)")
    print(f"{'box':>5} {'d':>6} {'h1c':>5} {'h2c':>6} {'h2d':>6} "
          f"{'rank':>5} {'mult':>5} {'max dist':>10} {'seconds':>8} "
          f"{'alloc MB':>8} {'peak MB':>8}")
    for box in boxes:
        tracemalloc.start()
        start = time.perf_counter()
        rep = verify_example(LatticeSpec.centered(box, args.cube, args.dims))
        seconds = time.perf_counter() - start
        alloc_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        # ru_maxrss is in kilobytes on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        dims = rep.dims_report
        total = box ** args.dims
        print(f"{box:>5} {total:>6} {dims['h1c']:>5} {dims['h2c']:>6} "
              f"{dims['h2d']:>6} {rep.rank_gamma:>5} "
              f"{rep.multiplicity_omega_c:>5} "
              f"{rep.theorem.max_distance:>10.2e} "
              f"{seconds:>8.2f} {alloc_mb:>8.1f} {peak_mb:>8.1f}")
        assert rep.bound_satisfied


if __name__ == "__main__":
    main()
