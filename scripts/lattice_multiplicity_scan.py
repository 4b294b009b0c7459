#!/usr/bin/env python3
"""Scan the lattice example over box sizes at fixed cube side.

Shows that the coupled-core multiplicity stays below twice the surface
count independent of the box size, while the decoupled hidden dimension
grows with the box: evidence that ever more hidden degrees of freedom are
invisible to the cube as the ambient lattice grows.

Each row also gives the seconds of its two stages, ``decompose`` and
``verify_theorem`` (building the lattice is not counted), the peak of
the memory the row allocated through Python (``tracemalloc``, numpy
arrays included; LAPACK workspace is not seen), and the peak resident
memory of the process so far; with the boxes in ascending
order, the last is the row's own peak.  Set OPENBLAS_NUM_THREADS=1 for
timings on one BLAS thread; tracing allocations slows them a little.
"""

import argparse
import resource
import time
import tracemalloc

from opensys.decomposition import decompose, verify_theorem
from opensys.lattice import (LatticeSpec, build_lattice_system,
                             multiplicity_bound)


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
          f"{'rank':>5} {'mult':>5} {'max dist':>10} {'decomp s':>8} "
          f"{'verify s':>8} {'alloc MB':>8} {'peak MB':>8}")
    for box in boxes:
        tracemalloc.start()
        sys = build_lattice_system(
            LatticeSpec.centered(box, args.cube, args.dims))
        start = time.perf_counter()
        dec = decompose(sys)
        middle = time.perf_counter()
        theorem = verify_theorem(sys, dec)
        end = time.perf_counter()
        alloc_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        # ru_maxrss is in kilobytes on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        dims = dec.dims
        total = box ** args.dims
        print(f"{box:>5} {total:>6} {dims['h1c']:>5} {dims['h2c']:>6} "
              f"{dims['h2d']:>6} {dec.ran_gamma.dim:>5} "
              f"{theorem.multiplicity_omega_c:>5} "
              f"{theorem.max_distance:>10.2e} {middle - start:>8.2f} "
              f"{end - middle:>8.2f} {alloc_mb:>8.1f} {peak_mb:>8.1f}")
        assert theorem.multiplicity_omega_c <= bound


if __name__ == "__main__":
    main()
