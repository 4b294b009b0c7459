"""A fixed reference computation, timed in slices between operations.

Other tenants of the shared host slow this process by up to 1.8x, for
seconds to minutes at a time, so a round's wall time moves with the host
more than with the program.  The reference is slowed with it.  One slice
is a thousand 8x8 complex matrix products, a Hermitian
eigendecomposition at n=216, a complex exponential over 300,000
entries, an interpreter loop and a JSON round trip of 20,000 floats:
the small-matrix steps, dense factorizations, memory streams,
interpreted loops and JSON files that the workloads spend their time
in.  It uses only numpy and the standard library, which a change to
opensys cannot alter, so the ratio of a round's time to the time of the
slices run between its operations moves with the program alone.

In two-minute loops of each workload on 2 shared vCPUs, a round's time
spread 0.28 (open-dynamics) and 0.38 (lattice-certify) between rounds,
as the middle half over the median.  Its ratio to the slices between
its operations spread 0.11 and 0.09; to one reference run after the
round, 0.18.
"""

from __future__ import annotations

import json
import time

import numpy as np

N = 216
LOOP = 50_000
FLOATS = 20_000
SMALL, SMALL_PRODUCTS = 8, 1000
STREAM = 300_000
#: A slice's time, in seconds, when it runs alone on 2 Xeon vCPUs; set-up
#: times are reported in seconds of a host that runs a slice this fast.
SLICE_S = 0.04


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        self.h = a + a.conj().T
        self.floats = rng.standard_normal(FLOATS).tolist()
        self.small = rng.standard_normal((SMALL, SMALL)) \
            + 1j * rng.standard_normal((SMALL, SMALL))
        self.stream = rng.standard_normal(STREAM) * 1j

    def __call__(self) -> float:
        """Run one slice and return its wall time in seconds."""
        start = time.perf_counter()
        m = self.small
        for _ in range(SMALL_PRODUCTS):
            m @ m
        # the eigendecomposition must come between the small products and
        # the exponential: right after those products it ran 12x slower
        np.linalg.eigh(self.h)
        np.exp(self.stream).sum()
        total = 0
        for i in range(LOOP):
            total += i * i
        json.loads(json.dumps(self.floats))
        return time.perf_counter() - start
