"""Canonical four-way decomposition of a conservative system and its checks.

Splits the observable space H1 and the hidden space H2 into the parts that
are dynamically coupled to the other side and the parts that are completely
decoupled:

    H = H1d + H1c + H2c + H2d,

where H2c is the part of H2 reachable from H1 through the full generator
(the invariant closure of H1, minus H1 itself) and symmetrically for H1c.
Equivalently H2d, the largest Omega-invariant subspace orthogonal to H1,
is made of the eigen-directions that the cluster cuts of closure(H1)
drop, and H2c is its complement in H2; :func:`decompose` takes this form.
In the concatenated basis the full operator becomes block-diagonal with a
single coupled core [[Omega1c, Gamma_c], [Gamma_c^dag, Omega2c]].
:func:`verify_block_form` checks this on the five blocks that must vanish,
each read straight from Omega1, Omega2 or Gamma.

Two independent routes to the coupled subspaces are always computed and
cross-checked: the definitional one (the cuts of the invariant closures of
H1 and H2 under the full operator) and the fast one (closures of the
coupling ranges under the diagonal blocks alone).  Their agreement is the
strongest internal correctness certificate available.

Each operator is factored once per certificate.  :func:`decompose` runs
one ``eigh`` each of Omega, Omega1 and Omega2 and two complete QRs, one
per block, and keeps the spectrum of Omega, the rank cuts of Gamma and
Gamma^dag and the distance between the two routes in its result.
:func:`verify_theorem` factors nothing and cuts no Gamma: the core
H1c + H2c is Omega-invariant, so it is reconstructible exactly when
closure(H1c) and closure(H2c) both equal it, and in each eigenvalue
cluster of Omega it holds as many eigenvalues as its coordinates there
have rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .subspaces import (
    DEFAULT_TOL,
    Spectrum,
    SubspaceBasis,
    _eigen_clusters,
    check_hermitian,
    direct_sum_basis,
    orbit,
    orthonormalize,
    projector_distance,
)
from .systems import BlockSystem, assemble_full

#: Multiple of the system tolerance allowed for cross-route agreement and
#: block-zero residuals (the `c` of the module contracts).
CONSISTENCY_FACTOR = 100.0

#: Default relative eigenvalue-gap threshold for multiplicity clustering.
DEFAULT_CLUSTER_TOL = 1e-8


class DecompositionError(RuntimeError):
    """A check of :func:`decompose` failed.

    The message names the stage, the quantity that tripped it, its value
    and the limit it broke.
    """

    def __init__(self, stage: str, quantity: str, value: float, limit: float):
        super().__init__(
            f"{stage}: {quantity} = {value:.3e} exceeds its limit {limit:.3e}")
        self.stage = stage
        self.quantity = quantity
        self.value = value
        self.limit = limit


@dataclass(frozen=True)
class FourWayDecomposition:
    """Bases of the four parts and the evidence they were computed from.

    h1d, h1c live in the observable coordinates (ambient d1); h2c, h2d in
    the hidden coordinates (ambient d2).  ``ran_gamma`` and
    ``ran_gamma_dag`` are the rank cuts of Gamma and Gamma^dag that seed
    the fast route; ``spectrum`` is the eigendecomposition of the full
    Omega the split was computed from, and ``route_distance`` the larger
    of the two routes' distances (H1c, H2c).

    The restricted operators are not stored: they are block products such
    as Omega1c = h1c^dag Omega1 h1c, Omega2d = h2d^dag Omega2 h2d and the
    core coupling Gamma_c = h1c^dag Gamma h2c.
    """

    h1d: SubspaceBasis
    h1c: SubspaceBasis
    h2c: SubspaceBasis
    h2d: SubspaceBasis
    ran_gamma: SubspaceBasis
    ran_gamma_dag: SubspaceBasis
    tol: float
    route_distance: float
    spectrum: Spectrum = field(repr=False, compare=False)

    @property
    def dims(self) -> dict[str, int]:
        return {
            "h1d": self.h1d.dim,
            "h1c": self.h1c.dim,
            "h2c": self.h2c.dim,
            "h2d": self.h2d.dim,
        }

    @property
    def reconstructible(self) -> bool:
        """Whether both decoupled parts vanish (the system is its coupled core)."""
        return self.h1d.dim == 0 and self.h2d.dim == 0

    def to_dict(self) -> dict:
        return {"dims": self.dims, "tol": self.tol}


@dataclass(frozen=True)
class TheoremReport:
    """Result of the reconstruction-theorem verification suite."""

    orbit_equalities: list[tuple[str, float]]
    multiplicity_omega_c: int
    bound: int
    bound_satisfied: bool
    reconstructible_core: bool
    dims: dict[str, int]
    tol: float

    @property
    def max_distance(self) -> float:
        return max((d for _, d in self.orbit_equalities), default=0.0)

    def passed(self, distance_tol: float | None = None) -> bool:
        limit = distance_tol if distance_tol is not None else \
            CONSISTENCY_FACTOR * self.tol
        return (self.max_distance <= limit
                and self.bound_satisfied
                and self.reconstructible_core)

    def to_dict(self) -> dict:
        return {
            "orbit_equalities": [[name, dist] for name, dist in
                                 self.orbit_equalities],
            "multiplicity_omega_c": self.multiplicity_omega_c,
            "bound": self.bound,
            "bound_satisfied": self.bound_satisfied,
            "reconstructible_core": self.reconstructible_core,
            "dims": self.dims,
            "tol": self.tol,
        }


def _embed_observable(basis: SubspaceBasis, d2: int) -> SubspaceBasis:
    return SubspaceBasis(np.vstack([basis.matrix, np.zeros((d2, basis.dim))]))


def _embed_hidden(basis: SubspaceBasis, d1: int) -> SubspaceBasis:
    return SubspaceBasis(np.vstack([np.zeros((d1, basis.dim)), basis.matrix]))


def _split_block(decoupled: SubspaceBasis, take: slice, other: slice,
                 tol: float, stage: str) -> tuple[SubspaceBasis, SubspaceBasis]:
    """A decoupled part in the coordinates of its block, and its orthogonal
    complement there: the coupled part.

    ``decoupled`` is the invariant subspace orthogonal to the other block,
    E = [rows; leak] with orthonormal columns; each column's leak onto the
    other block must vanish to within CONSISTENCY_FACTOR * tol.  Then
    rows^dag rows = I - leak^dag leak, so with ||leak||_F < 1/2 every
    singular value of the rows exceeds sqrt(3)/2: they have full column
    rank.  The leading columns of their complete Householder QR are then
    an orthonormal basis of the same dimension as E, and the trailing
    columns one of its complement in the block.
    """
    leak = decoupled.matrix[other]
    worst = np.max(np.linalg.norm(leak, axis=0), initial=0.0)
    limit = CONSISTENCY_FACTOR * tol
    if worst > limit:
        raise DecompositionError(
            stage, "largest column norm of the leak onto the other block",
            worst, limit)
    leak_norm = np.linalg.norm(leak)
    if not leak_norm < 0.5:
        raise DecompositionError(
            stage, "||leak||_F, below which the kept rows have full rank",
            leak_norm, 0.5)
    q = np.linalg.qr(decoupled.matrix[take], mode="complete")[0]
    return SubspaceBasis(q[:, :decoupled.dim]), SubspaceBasis(q[:, decoupled.dim:])


def decompose(sys: BlockSystem) -> FourWayDecomposition:
    """Compute the four-way split.

    The decoupled hidden part H2d is the largest Omega-invariant subspace
    orthogonal to H1: the eigen-directions that the cluster cuts of
    closure(H1) drop (:meth:`Spectrum.orbit_complement`).  The coupled
    hidden part H2c is its complement in H2, and symmetrically for H1d
    and H1c.  The equivalent fast route (closures of Ran(Gamma) and
    Ran(Gamma^dag) under the diagonal blocks) is computed as well and the
    two are required to agree to within CONSISTENCY_FACTOR * tol.
    """
    d1, d2, tol = sys.d1, sys.d2, sys.tol
    n = d1 + d2
    spectrum = Spectrum(assemble_full(sys).omega, tol)

    h1_full = SubspaceBasis(np.eye(n, d1))
    h2_full = SubspaceBasis(np.eye(n, d2, -d1))
    h2d, h2c = _split_block(spectrum.orbit_complement(h1_full), slice(d1, n),
                            slice(0, d1), tol, "H2c from closure(H1)")
    h1d, h1c = _split_block(spectrum.orbit_complement(h2_full), slice(0, d1),
                            slice(d1, n), tol, "H1c from closure(H2)")
    # independent fast route through the coupling ranges
    ran_gamma = orthonormalize(sys.gamma, tol, ambient_dim=d1)
    ran_gamma_dag = orthonormalize(sys.gamma.conj().T, tol, ambient_dim=d2)
    h1c_fast = orbit(sys.omega1, ran_gamma, tol)
    h2c_fast = orbit(sys.omega2, ran_gamma_dag, tol)
    dist1 = projector_distance(h1c, h1c_fast)
    dist2 = projector_distance(h2c, h2c_fast)
    route_distance = max(dist1, dist2)
    if route_distance > CONSISTENCY_FACTOR * tol:
        raise DecompositionError(
            "definitional vs fast route", "d(H1c)" if dist1 >= dist2
            else "d(H2c)", route_distance, CONSISTENCY_FACTOR * tol)

    return FourWayDecomposition(
        h1d=h1d, h1c=h1c, h2c=h2c, h2d=h2d,
        ran_gamma=ran_gamma, ran_gamma_dag=ran_gamma_dag,
        tol=tol,
        route_distance=route_distance,
        spectrum=spectrum,
    )


def verify_block_form(sys: BlockSystem, dec: FourWayDecomposition) -> float:
    """Largest 2-norm of a block that must vanish in the decomposed operator.

    In the (h1d, h1c, h2c, h2d) basis Omega may hold only the four
    diagonal blocks and the core coupling pair.  Of the other blocks, one
    of each Hermitian pair is formed from the parts of Omega it lies in:
    h1d^dag Omega1 h1c, h2c^dag Omega2 h2d, and h1d^dag Gamma h2c,
    h1d^dag Gamma h2d, h1c^dag Gamma h2d; empty blocks are skipped, and
    no n x n matrix is formed.  Values <= c*tol*||Omega|| certify the
    decomposition; large values flag a failure.
    """
    h1d, h1c, h2c, h2d = (basis.matrix for basis in
                          (dec.h1d, dec.h1c, dec.h2c, dec.h2d))
    blocks = [(h1d, sys.omega1, h1c), (h2c, sys.omega2, h2d),
              (h1d, sys.gamma, h2c), (h1d, sys.gamma, h2d),
              (h1c, sys.gamma, h2d)]
    return max((float(np.linalg.norm(left.conj().T @ (op @ right), 2))
                for left, op, right in blocks
                if left.shape[1] and right.shape[1]), default=0.0)


def _largest_cluster(values: np.ndarray, cluster_tol: float) -> int:
    """Size of the largest cluster of sorted eigenvalues (0 when empty)."""
    return int(np.max(_eigen_clusters(values, cluster_tol)[1], initial=0))


def multiplicity(a: np.ndarray, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> int:
    """Largest eigenvalue-cluster size of a Hermitian matrix.

    Eigenvalues are sorted and chained into clusters wherever the gap
    between consecutive values is <= cluster_tol * max(1, ||A||).  In
    exact arithmetic this is the maximal eigenvalue multiplicity, which
    for a Hermitian matrix equals the minimal number of generating
    vectors (the spectral multiplicity).
    """
    a = check_hermitian(a, max(cluster_tol, DEFAULT_TOL), "multiplicity input")
    return _largest_cluster(np.linalg.eigvalsh(a), cluster_tol)


def verify_theorem(sys: BlockSystem,
                   dec: FourWayDecomposition | None = None) -> TheoremReport:
    """Run the full reconstruction-theorem check suite on one system.

    ``dec`` must be ``decompose(sys)``; it is computed when omitted.
    Nothing is factored here: every closure and eigenvalue comes from
    ``dec.spectrum``.  Compares, by projector distance, the four
    characterizations of the coupled core: H1c + H2c and the invariant
    closures of H1c, of H2c and of the range of the symmetrized coupling.
    The proof-chain entry (the closure of that range under diag(Omega1,
    Omega2) is H1c + H2c) is ``dec.route_distance``, exact because both
    sides are block-diagonal in H1 + H2.  The core is reconstructible
    exactly when closure(H1c) = H1c + H2c and closure(H2c) = H1c + H2c.
    Being Omega-invariant, it has as many eigenvalues in each cluster of
    ``dec.spectrum`` as the rank of its coordinates there; clustered at
    DEFAULT_CLUSTER_TOL they give its multiplicity, tested against
    min(2*rank(Gamma), dim H1c, dim H2c), the rank being that of
    ``dec.ran_gamma``.
    """
    if dec is None:
        dec = decompose(sys)
    d1, d2, tol = sys.d1, sys.d2, sys.tol
    h1c_full = _embed_observable(dec.h1c, d2)
    h2c_full = _embed_hidden(dec.h2c, d1)
    core = direct_sum_basis(h1c_full, h2c_full)
    # Ran [[0, Gamma], [Gamma^dag, 0]] = Ran(Gamma) (+) Ran(Gamma^dag): the
    # matrix's singular values are Gamma's, each twice, so decompose's cuts
    # of Gamma and Gamma^dag are its cut
    coupling = direct_sum_basis(_embed_observable(dec.ran_gamma, d2),
                                _embed_hidden(dec.ran_gamma_dag, d1))
    subspaces = [
        ("h1c+h2c", core),
        ("closure(h1c)", dec.spectrum.orbit(h1c_full)),
        ("closure(h2c)", dec.spectrum.orbit(h2c_full)),
        ("closure(ran coupling)", dec.spectrum.orbit(coupling)),
    ]
    equalities = [(f"{a} vs {b}", projector_distance(sa, sb))
                  for (a, sa), (b, sb) in combinations(subspaces, 2)]
    equalities.append(("diag closure vs h1c+h2c", dec.route_distance))
    # the first two: h1c+h2c vs closure(h1c), h1c+h2c vs closure(h2c)
    core_reconstructible = max(equalities[0][1], equalities[1][1]) <= \
        CONSISTENCY_FACTOR * tol

    mult = _largest_cluster(dec.spectrum.closure_values(core),
                            DEFAULT_CLUSTER_TOL)
    bound = min(2 * dec.ran_gamma.dim, dec.h1c.dim, dec.h2c.dim)

    return TheoremReport(
        orbit_equalities=equalities,
        multiplicity_omega_c=mult,
        bound=bound,
        bound_satisfied=mult <= bound,
        reconstructible_core=core_reconstructible,
        dims=dec.dims,
        tol=tol,
    )
