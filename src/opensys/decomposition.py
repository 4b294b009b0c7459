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
one ``eigh`` each of Omega1 and Omega2 and one Householder QR for each
block that has a decoupled part, whose complete Q it forms from the
reflectors as I - Y T Y^dag with one triangular solve and one matrix
product (:func:`~opensys.subspaces._complete_q`); a block with nothing
decoupled has Q = I and takes no QR.  It takes the eigenpairs of Omega from the system: one ``eigh``
for a system of matrices, the closed form for a lattice built from its
spec, so that there the two routes rest on independent factorizations.
It keeps the spectrum of Omega, the rank cut of Gamma (rank Gamma is
decided once, and Ran Gamma^dag read off it) and the distance between
the two routes in its result.
:func:`verify_theorem` factors nothing and cuts no Gamma: the core
H1c + H2c is Omega-invariant, so it is reconstructible exactly when
closure(H1c) and closure(H2c) both equal it, and in each eigenvalue
cluster of Omega it holds as many eigenvalues as its coordinates there
have rank.  Its multiplicity is the largest of these ranks: one cluster
rule, at ``tol``, for the split and the multiplicity alike.

Every distance is ||P_A - P_B|| = ||B_perp^dag A||, taken against a
complement of B that is already exact: h1d and h2d, the trailing
columns of the complete Qs, for the route distances; the eigen-directions
a closure's cut drops for the theorem distances.  Both functions work in the
eigenbasis of Omega, where H1 and H2 are the conjugate transposes of the
first d1 and last d2 rows of its eigenvectors; no closure is formed in
n-space.  There a closure and its complement are the factors its cut
keeps and drops, one small square factor per eigenvalue cluster, and no
n x n factor matrix is formed.  The core's distances take its product
with a closure's dropped factors cluster by cluster
(:func:`~opensys.subspaces._cut_product`).  Two closures of one spectrum
are equal exactly when they agree inside every cluster, so they are
compared cluster by cluster (:func:`~opensys.subspaces._cut_distance`):
their distance is the largest over the clusters, and no product between
them is wider than one cluster.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .subspaces import (
    DEFAULT_TOL,
    Spectrum,
    SubspaceBasis,
    _complement_distance,
    _complete_q,
    _cut_distance,
    _cut_product,
    _eigen_clusters,
    _spectral_norm,
    check_hermitian,
    orthonormalize,
)
from .systems import BlockSystem

#: Multiple of the system tolerance allowed for cross-route agreement and
#: block-zero residuals (the `c` of the module contracts).
CONSISTENCY_FACTOR = 100.0


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
    the hidden coordinates (ambient d2).  ``ran_gamma`` is the rank cut
    of Gamma and ``ran_gamma_dag`` the range of Gamma^dag read off it, of
    the same dimension; both seed the fast route.  ``spectrum`` is the
    eigendecomposition of the full Omega the split was computed from, and
    ``route_distance`` the larger of the two routes' distances (H1c, H2c).

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

    def distance_limit(self, distance_tol: float | None = None) -> float:
        """``distance_tol``, or by default CONSISTENCY_FACTOR * tol."""
        return distance_tol if distance_tol is not None else \
            CONSISTENCY_FACTOR * self.tol

    def passed(self, distance_tol: float | None = None) -> bool:
        return (self.max_distance <= self.distance_limit(distance_tol)
                and self.bound_satisfied
                and self.reconstructible_core)

    def to_dict(self) -> dict:
        return {**asdict(self), "orbit_equalities": [
            [name, dist] for name, dist in self.orbit_equalities]}


def _split_block(decoupled: SubspaceBasis, take: slice, other: slice,
                 tol: float, stage: str) -> tuple[SubspaceBasis, SubspaceBasis]:
    """A decoupled part in the coordinates of its block, and its orthogonal
    complement there: the coupled part.

    ``decoupled`` is the invariant subspace orthogonal to the other block,
    E = [rows; leak] with orthonormal columns; each column's leak onto the
    other block must vanish to within CONSISTENCY_FACTOR * tol.  Then
    rows^dag rows = I - leak^dag leak, so with ||leak||_F < 1/2 every
    singular value of the rows exceeds sqrt(3)/2: they have full column
    rank.  The leading columns of the complete Q of their Householder QR
    are then an orthonormal basis of the same dimension as E, and the
    trailing columns one of its complement in the block.  That Q is
    I - Y T Y^dag, formed from the QR's reflectors Y with one triangular
    solve and one matrix product (:func:`~opensys.subspaces._complete_q`);
    a reflector with tau = 0 is the identity and drops out of T.  A
    block with nothing decoupled has Q = I and takes no QR.
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
    q = _complete_q(decoupled.matrix[take])
    return SubspaceBasis(q[:, :decoupled.dim]), SubspaceBasis(q[:, decoupled.dim:])


def decompose(sys: BlockSystem) -> FourWayDecomposition:
    """Compute the four-way split.

    The decoupled hidden part H2d is the largest Omega-invariant subspace
    orthogonal to H1: the eigen-directions that the cluster cuts of
    closure(H1) drop (:meth:`Spectrum.cut` of H1's eigen-coordinates).
    The coupled hidden part H2c is its complement in H2, and symmetrically
    for H1d and H1c.  The equivalent fast route (closures of Ran(Gamma)
    and Ran(Gamma^dag) under the diagonal blocks) is computed as well and
    the two are required to agree to within CONSISTENCY_FACTOR * tol,
    each distance taken against h1d or h2d, the exact complement of h1c
    or h2c in its block.  The eigenpairs of Omega are
    :meth:`~opensys.systems.BlockSystem.eigenpairs`.
    """
    d1, d2, tol = sys.d1, sys.d2, sys.tol
    spectrum = Spectrum(None, tol, eigenpairs=sys.eigenpairs())
    vectors = spectrum.vectors
    # H1 and H2 in the eigenbasis of Omega are V^dag [I; 0] and V^dag [0; I];
    # each decoupled part is the eigenvectors times the factors its cut drops
    h2d, h2c = _split_block(SubspaceBasis(_cut_product(
        vectors, spectrum.cut(vectors[:d1].conj().T), keep=False)),
        slice(d1, None), slice(0, d1), tol, "H2c from closure(H1)")
    h1d, h1c = _split_block(SubspaceBasis(_cut_product(
        vectors, spectrum.cut(vectors[d1:].conj().T), keep=False)),
        slice(0, d1), slice(d1, None), tol, "H1c from closure(H2)")
    # independent fast route through the coupling ranges, compared through
    # the complements of h1c and h2c that the QRs above made exactly
    ran_gamma = orthonormalize(sys.gamma, tol)
    # Gamma^dag U_r = V_r S_r has full column rank: rank Gamma is decided
    # once, and Ran Gamma^dag needs no second cut
    ran_gamma_dag = SubspaceBasis(
        np.linalg.qr(sys.gamma.conj().T @ ran_gamma.matrix)[0])
    # the system's diagonal blocks are exactly Hermitian
    dist1, dist2 = (_complement_distance(part.matrix.conj().T @ Spectrum(
        None, tol, eigenpairs=np.linalg.eigh(omega)).orbit(seed).matrix, d)
        for part, omega, seed, d in ((h1d, sys.omega1, ran_gamma, d1),
                                     (h2d, sys.omega2, ran_gamma_dag, d2)))
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
    return max((_spectral_norm(left.conj().T @ (op @ right))
                for left, op, right in blocks
                if left.shape[1] and right.shape[1]), default=0.0)


def multiplicity(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Largest eigenvalue-cluster size of a Hermitian matrix (0 when empty).

    Eigenvalues are sorted and chained into clusters wherever the gap
    between consecutive values is <= tol * max(1, ||A||), the cluster
    rule of :class:`Spectrum`.  In exact arithmetic this is the maximal
    eigenvalue multiplicity, which for a Hermitian matrix equals the
    minimal number of generating vectors (the spectral multiplicity).
    """
    w = np.linalg.eigvalsh(check_hermitian(a, tol, "multiplicity input"))
    return int(np.max(_eigen_clusters(w, tol)[1], initial=0))


def verify_theorem(sys: BlockSystem,
                   dec: FourWayDecomposition | None = None) -> TheoremReport:
    """Run the full reconstruction-theorem check suite on one system.

    ``dec`` must be ``decompose(sys)``; it is computed when omitted.
    Nothing is factored here: every closure and eigenvalue comes from
    ``dec.spectrum``.  Compares the four characterizations of the coupled
    core: H1c + H2c and the invariant closures of H1c, of H2c and of the
    range of the symmetrized coupling.  All four are taken in the
    eigenbasis of Omega, where a closure is the factors its cut keeps and
    the factors it drops are its exact complement.  The core is compared
    with each closure B by the complement product ||B_perp^dag A||, so
    its own complement is never needed; two closures are compared cluster
    by cluster, the largest of their per-cluster distances.
    The proof-chain entry (the closure of that range under diag(Omega1,
    Omega2) is H1c + H2c) is ``dec.route_distance``, exact because both
    sides are block-diagonal in H1 + H2.  The core is reconstructible
    exactly when closure(H1c) = H1c + H2c and closure(H2c) = H1c + H2c.
    Being Omega-invariant, it has as many eigenvalues in each cluster of
    ``dec.spectrum`` as the rank its cut keeps there; the largest of
    these ranks is its multiplicity, tested against
    min(2*rank(Gamma), dim H1c, dim H2c), the rank being that of
    ``dec.ran_gamma``.
    """
    if dec is None:
        dec = decompose(sys)
    d1, tol, spectrum = sys.d1, sys.tol, dec.spectrum
    top, bottom = spectrum.vectors[:d1].conj().T, spectrum.vectors[d1:].conj().T
    # in the eigenbasis of Omega, where [x; y] has coordinates
    # V[:d1]^dag x + V[d1:]^dag y
    core = np.hstack([top @ dec.h1c.matrix, bottom @ dec.h2c.matrix])
    # Ran [[0, Gamma], [Gamma^dag, 0]] = Ran(Gamma) (+) Ran(Gamma^dag): the
    # matrix's singular values are Gamma's, each twice, so decompose's cut
    # of Gamma, with the range of Gamma^dag read off it, is its cut
    coupling = np.hstack([top @ dec.ran_gamma.matrix,
                          bottom @ dec.ran_gamma_dag.matrix])
    names = ["h1c+h2c", "closure(h1c)", "closure(h2c)",
             "closure(ran coupling)"]
    seeds = [core, core[:, :dec.h1c.dim], core[:, dec.h1c.dim:], coupling]
    # Each distance d(i, j), i < j, takes subspace i against closure j:
    # the core against the exact complement of the closure, the factors
    # its cut drops (||A^dag B_perp||), and two closures cluster by cluster
    cuts = [spectrum.cut(seed) for seed in seeds]
    distance = {(i, j): _cut_distance(cuts[i], cuts[j]) if i else
                _complement_distance(_cut_product(
                    core.conj().T, cuts[j], keep=False), len(core))
                for i in range(len(seeds)) for j in range(i + 1, len(seeds))}
    equalities = [(f"{names[i]} vs {names[j]}", d)
                  for (i, j), d in distance.items()]
    equalities.append(("diag closure vs h1c+h2c", dec.route_distance))
    core_reconstructible = max(distance[0, 1], distance[0, 2]) <= \
        CONSISTENCY_FACTOR * tol

    # being invariant, the core holds in each cluster as many eigenvalues
    # as its cut keeps there
    mult = int(max((ranks.max() for *_, ranks in cuts[0]), default=0))
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
