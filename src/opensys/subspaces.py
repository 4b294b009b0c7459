"""Orthonormal subspaces: real input in real arithmetic, complex in complex.

:func:`as_field` maps every input to float64 or complex128, so a real
symmetric operator keeps real eigenvectors, bases and orbits.  Subspaces
are represented by matrices whose columns form an orthonormal basis;
:func:`orthonormalize` makes one from an (n, k) array of columns, and
from nothing else, so a list of vectors is never read as rows.  A
basis carries no tolerance: every entry of the table below takes its
tolerance as an argument.  Every numerical decision in the package is one
of these tests, ``tol`` being ``BlockSystem.tol`` (DEFAULT_TOL = 1e-10;
the CLI takes ``--tol``, then OPENSYS_TOL, then the system file's ``tol``):

==================  =========================================  ===============
rank                keep singular values ``s > tol * max(1,    _range_basis,
                    s_max)`` (Golub & Van Loan, section 5.4);  the only cut
                    a stacked cut takes ``s_max`` per cluster;
                    ``s`` is a row's 2-norm, else the SVD of
                    the triangle of a QR of ``m^dag``
cluster             sorted eigenvalues chain while each gap    _eigen_clusters,
                    is ``<= tol * max(1, |w|_max)``; a         for the cuts
                    multiplicity is the largest cluster, or    and every
                    the largest rank a cut keeps in one        multiplicity
                    cluster
Hermitian           ``||A - A^dag||_F <= tol * max(1,          check_hermitian
                    ||A||_F)``
containment         residuals ``<= 10 * tol``                  complement
ORBIT_CERT_FACTOR   ``||(I - P) A P|| <= 10 * tol * ||A||``    Spectrum orbits
CONSISTENCY_FACTOR  route and theorem distances                decomposition
                    ``||B_perp^dag A|| <= 100 * tol`` (1 when  and cli
                    dims differ), B_perp an exact complement;
                    leak ``<= 100 * tol``; block residual
                    ``<= 100 * tol * ||Omega||``
leak rank proof     ``||leak||_F < 1/2``: the rows of a        decomposition
                    decoupled part in its block have full
                    column rank, so a QR needs no cut
kernel mode         keep eigenvector u of Omega2 when          make_kernel
                    ``||Gamma u|| > theta = tol * max(1,
                    max_u ||Gamma u||)``; the dropped modes
                    change a1(t) by ``<= d2 theta^2``
kernel sectors      each kernel column folded into the sector  propagate_reduced
                    its label names: the kept squared norm
                    is within ``tol * ||M||_F^2`` of
                    ``||M||_F^2``, else the kernel is another
                    system's
==================  =========================================  ===============

The decomposition uses every row but containment: it reads its parts
off the cluster cuts and calls no :func:`complement`.

The central operation is :meth:`Spectrum.cut`, which takes a seed
subspace in the eigenbasis of a Hermitian matrix and yields both its
orbit, the smallest invariant subspace containing it, and the orbit's
orthogonal complement, the largest invariant subspace orthogonal to the
seed.  Both are read off one eigendecomposition, a :class:`Spectrum`,
which several cuts under the same matrix share: the rank cuts of all its
clusters of one size take one stacked :func:`_range_basis` call (row
norms for one-eigenvalue clusters, else a QR and the SVD of its
triangle), the orbit is the left singular vectors each cut keeps, and
its complement those it drops.  A cut keeps these factors per cluster
size, stacked, never as one n x n block-diagonal matrix;
:func:`_cut_product` takes their products with a p x n array, one
batched product per size, and a gather for one-eigenvalue clusters,
whose factor is 1.  Two closures cut from one spectrum are direct sums
of their parts in the clusters, so :func:`_cut_distance` compares them
cluster by cluster, with no product wider than one cluster.
:func:`orbit` returns the orbit in the standard basis.
:func:`complement` makes no rank decision: it takes the trailing columns
of a Householder QR, and its dimension is fixed by the inputs.

Every distance the package certifies is ``||P_A - P_B|| = ||B_perp^dag
A||`` for subspaces of equal dimension (:func:`_complement_distance`),
with B_perp a complement that is exact by construction: the trailing
columns of a complete Householder Q, formed as I - Y T Y^dag from the
reflectors (:func:`_complete_q`), or the factors a cut drops.  The norm of that
(n - k) x k product is the top eigenvalue of its smaller Gram matrix
(:func:`_spectral_norm`), not an SVD.  Between two closures of one
spectrum the product is block-diagonal by cluster, and its norm is the
largest of the blocks' (:func:`_cut_distance`): 1 when the closures keep
a different rank in some cluster, else the top singular value of the
g x g blocks, one batched SVD per cluster size.
:func:`projector_distance` needs no complement: it takes the norm of the
n x k residual (I - P_B) A, and is the oracle of the complement form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: Default relative tolerance for rank and orthogonality decisions.
DEFAULT_TOL = 1e-10

#: The ``c`` of the orbit certificate in the table above.  An orbit is exactly
#: invariant up to the seed parts dropped by the rank cut (norm <= tol each)
#: and the spread of the eigenvalues inside one cluster.
ORBIT_CERT_FACTOR = 10.0


def as_field(a) -> np.ndarray:
    """``a`` as float64 when its entries are real, as complex128 when complex.

    Bool, integer and floating input (``longdouble`` included, which
    LAPACK rejects) becomes float64; complex input becomes complex128.
    Anything else raises ``ValueError``.
    """
    a = np.asarray(a)
    if a.dtype.kind in "biuf":
        return a.astype(np.float64, copy=False)
    if a.dtype.kind == "c":
        return a.astype(np.complex128, copy=False)
    raise ValueError(f"expected a numeric array, got dtype {a.dtype}")


class DimensionMismatchError(ValueError):
    """Raised when vector or ambient dimensions are inconsistent."""


class SymmetryError(ValueError):
    """Raised when a matrix required to be Hermitian is not, beyond tolerance."""


class ContainmentError(ValueError):
    """Raised when a subspace required to be contained in another is not."""


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal spanning set of a subspace of R^n or C^n, n = ambient_dim.

    ``matrix`` has shape ``(ambient_dim, dim)``; its columns are the basis
    vectors.  Dimension zero is represented by a matrix with zero columns.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_field(self.matrix)
        if m.ndim != 2:
            raise DimensionMismatchError(
                f"basis matrix must be 2-d, got shape {m.shape}")
        if m.shape[1] > m.shape[0]:
            raise DimensionMismatchError(
                f"{m.shape[1]} basis vectors exceed ambient dimension "
                f"{m.shape[0]}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def _range_basis(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The rank cut of each matrix in a stack ``m`` of shape (..., g, k).

    Returns the left singular vectors, shape (..., g, min(g, k)), and for
    each matrix the number of leading ones whose singular values exceed
    ``tol * max(1, s_max)`` (the module's one rank threshold, ``s_max``
    taken per matrix).  A row (g = 1) has its 2-norm as singular value
    and 1 as left factor.  Otherwise one QR of the stacked m^dag = Q R
    and one SVD of the g x min(g, k) triangles R^dag, which share m's
    left factors and singular values, cover the whole stack without a
    k-wide right factor (Chan's R-SVD).
    """
    if m.shape[-1] == 0 or m.shape[-2] == 0:
        return (np.zeros((*m.shape[:-1], 0), dtype=m.dtype),
                np.zeros(m.shape[:-2], dtype=int))
    if m.shape[-2] == 1:
        left = np.ones((*m.shape[:-1], 1), dtype=m.dtype)
        # np.linalg.norm(m, axis=-1), without its argument handling
        sing = np.sqrt(np.add.reduce((m.conj() * m).real, axis=-1))
    else:
        r = np.linalg.qr(np.swapaxes(m, -1, -2).conj(), mode="r")
        left, sing, _ = np.linalg.svd(np.swapaxes(r, -1, -2).conj(),
                                      full_matrices=False)
    kept = (sing > tol * np.maximum(1.0, sing[..., :1])).sum(axis=-1)
    return left, kept


def orthonormalize(columns: np.ndarray, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the span of the columns of an (n, k) array,
    cut by :func:`_range_basis`.

    Anything else, a list of vectors or a 1-d array included, raises
    :class:`DimensionMismatchError`: a list is never read as rows.
    """
    if not isinstance(columns, np.ndarray) or columns.ndim != 2:
        raise DimensionMismatchError(
            "expected an (n, k) array of columns, got "
            f"{getattr(columns, 'shape', type(columns).__name__)}")
    left, kept = _range_basis(as_field(columns), tol)
    return SubspaceBasis(left[:, :kept])


def check_hermitian(a: np.ndarray, tol: float, what: str = "matrix") -> np.ndarray:
    """Validate near-Hermiticity (Frobenius norm) and return (A + A^dag)/2,
    a new array: a copy of A when A already equals A^dag."""
    a = as_field(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{what} is not square: shape {a.shape}")
    if (a == a.conj().T).all():
        return a.copy()
    defect = np.linalg.norm(a - a.conj().T)
    if defect > tol * max(np.linalg.norm(a), 1.0):
        raise SymmetryError(
            f"{what} is not Hermitian: ||A - A^dag|| = {defect:.3e}"
        )
    return (a + a.conj().T) / 2


def _eigen_clusters(w: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """First index and size of each run of sorted eigenvalues chained by
    gaps <= tol * max(1, |w|max); with w ascending, |w|max is -w[0] or
    w[-1]."""
    threshold = tol * max([1.0, *-w[:1], *w[-1:]])
    bounds = np.flatnonzero(np.concatenate(
        ([True], w[1:] - w[:-1] > threshold, [len(w) > 0])))
    return bounds[:-1], bounds[1:] - bounds[:-1]


class Spectrum:
    """One eigendecomposition of a Hermitian matrix and its eigenvalue clusters.

    Every invariant subspace computed from the same operator reuses it.
    Cluster ``i`` holds the eigenvalues ``starts[i]`` to
    ``starts[i] + sizes[i] - 1``, in ascending order.  The eigenvectors V
    are unitary, so distances between subspaces are the same between
    their eigen-coordinates V^dag S, in which every invariant subspace is
    block-diagonal by cluster.

    The eigenpairs are one ``eigh`` of the Hermitian ``a``, unless they
    are given: ascending values and orthonormal vectors, such as a
    system's :meth:`~opensys.systems.BlockSystem.eigenpairs`, which a
    lattice builds in closed form.  ``a`` is then not read.  The row
    indices of each cluster size's clusters, ``groups``, are laid out
    once, for every :meth:`cut` to share.
    """

    def __init__(self, a: np.ndarray | None, tol: float = DEFAULT_TOL, *,
                 eigenpairs: tuple[np.ndarray, np.ndarray] | None = None):
        if eigenpairs is None:
            eigenpairs = np.linalg.eigh(
                check_hermitian(a, tol, "orbit generator"))
        self.tol = tol
        self.values, self.vectors = eigenpairs
        self.starts, self.sizes = _eigen_clusters(self.values, tol)
        self.groups = [self.starts[self.sizes == size, None] + np.arange(size)
                       for size in np.flatnonzero(np.bincount(self.sizes))]

    def cut(self, coords: np.ndarray) -> list[tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]]:
        """Rank cut, in every cluster, of a seed given by its eigen-coordinates.

        ``coords`` is the n x k matrix V^dag S of a seed S in the basis of
        the eigenvectors V; H1 and H2 of a block operator are the
        conjugate transposes of V's first d1 and last d2 rows.  Clusters of
        one size share one stacked :func:`_range_basis` call: row norms
        for the one-eigenvalue clusters, a QR and the SVD of its g x g
        triangles for clusters of g > 1.  The coordinates are padded with
        zero columns up to the largest cluster size.  That adds only zero
        singular values, so the cut is unchanged, and every cluster's left
        factor is complete (square).
        Returns, for each cluster size g in ascending order, the row
        indices (m, g) of its m clusters, their stacked left factors
        (m, g, g) and their ranks (m,).  The factors are the diagonal
        blocks of an n x n matrix F, which is never formed: in
        eigen-coordinates the invariant closure of S is F's kept columns,
        the leading ``rank`` of each cluster, and the dropped ones, the
        largest invariant subspace orthogonal to S, are its exact
        complement: a column's component in span(S) is its dropped
        singular value, at most ``tol * max(1, s_max)`` of its cluster.
        :func:`_cut_product` takes F's products with an array, and
        :func:`_cut_distance` compares two cuts cluster by cluster.
        """
        pad = (self.groups[-1].shape[1] if self.groups else 0) - \
            coords.shape[1]
        if pad > 0:
            coords = np.hstack([coords, np.zeros((len(coords), pad))])
        return [(rows, *_range_basis(coords[rows], self.tol))
                for rows in self.groups]

    def orbit(self, seed: SubspaceBasis) -> SubspaceBasis:
        """Smallest invariant subspace containing span(seed).

        In finite dimension the invariant closure of a seed S is the direct
        sum, over the eigenspaces E of A, of span(P_E S).  Each eigenspace is
        one eigenvalue cluster, and the rank of the projected seed in it is
        cut by :meth:`cut`.  The orbit is the eigenvectors times the left
        singular vectors the cuts keep, formed cluster by cluster by
        :func:`_cut_product`; its columns come cluster by cluster in
        ascending order.  The result P satisfies
        ||(I - P) A P|| <= ORBIT_CERT_FACTOR * tol * ||A||.
        """
        if seed.ambient_dim != len(self.values):
            raise DimensionMismatchError(
                f"seed ambient {seed.ambient_dim} != matrix dimension "
                f"{len(self.values)}")
        cut = self.cut(self.vectors.conj().T @ seed.matrix)
        return SubspaceBasis(_cut_product(self.vectors, cut))


def _cut_product(a: np.ndarray, cut: list, keep: bool = True) -> np.ndarray:
    """``a F[:, S]`` for a p x n array ``a``, the block-diagonal factor F of
    a :meth:`Spectrum.cut` and S the columns it keeps (``keep``) or drops,
    without forming F.

    With the eigenvectors as ``a`` the kept columns give an orbit.  Each
    cluster size takes one batched product of its factors.  A
    one-eigenvalue cluster has the factor 1, so it takes a gather.
    Columns come in F's order, cluster by cluster in ascending order; each
    cluster's product is written to its places in a result with one spare
    row, first, which takes the columns outside S and is cut off.
    """
    dtype = np.result_type(a, *(left for _, left, _ in cut))
    kept = sum(int(ranks.sum()) for *_, ranks in cut)
    count = kept if keep else a.shape[1] - kept
    if not count:
        return np.zeros((len(a), 0), dtype)
    chosen = np.zeros(a.shape[1], dtype=bool)
    for rows, _, ranks in cut:
        chosen[rows] = np.arange(rows.shape[1]) < ranks[:, None]
    if not keep:
        chosen = ~chosen
    place = chosen.cumsum() * chosen
    out = np.empty((count + 1, len(a)), dtype)
    for rows, left, _ in cut:
        hit = chosen[rows].any(axis=1)
        rows, left = rows[hit], left[hit]
        block = a.T[rows]
        if rows.shape[1] > 1:
            block = np.swapaxes(left, -1, -2) @ block
        out[place[rows]] = block
    return out[1:].T


def _cut_distance(cut_a: list, cut_b: list) -> float:
    """||P_A - P_B|| for the closures A and B that two cuts of one
    :class:`Spectrum` keep.

    Both are direct sums of their parts in the eigenvalue clusters, so
    the distance is the largest over the clusters.  It is exactly 1 when
    the cuts keep a different rank in any cluster, the parts there then
    differing in dimension (and so when dim A != dim B).  Otherwise a
    cluster of rank r, 0 < r < g, gives ||L_b[:, r:]^dag L_a[:, :r]||
    (:func:`_complement_distance`), L_a and L_b the cuts' g x g factors.
    Each cluster size takes one batched SVD of these blocks, padded with
    zeros to g x g; one-eigenvalue clusters take none.
    """
    norm = 0.0
    for (rows, left_a, ranks), (_, left_b, ranks_b) in zip(cut_a, cut_b):
        if np.any(ranks != ranks_b):
            return 1.0
        hit = (ranks > 0) & (ranks < rows.shape[1])
        if hit.any():
            g, r = np.arange(rows.shape[1]), ranks[hit, None, None]
            cross = np.swapaxes(left_b[hit], -1, -2).conj() @ left_a[hit]
            blocks = np.where((g[:, None] >= r) & (g < r), cross, 0)
            norm = max(norm, np.linalg.svd(blocks, compute_uv=False).max())
    return float(norm)


def _complete_q(a: np.ndarray) -> np.ndarray:
    """The m x m unitary Q of a Householder QR of an m x k array, k <= m.

    LAPACK's raw QR keeps the reflectors H_i = I - tau_i y_i y_i^dag,
    the columns of a unit lower trapezoid Y, and Q = H_1 ... H_k is
    I - Y T Y^dag with T^-1 = D^-1 + S, D = diag(tau) and S the strict
    upper triangle of Y^dag Y (Schreiber & Van Loan, *SIAM J. Sci. Stat.
    Comput.* 10, 1989; Joffrain et al., *ACM TOMS* 32, 2006).  So
    T Y^dag = (I + D S)^-1 D Y^dag is one unit triangular solve, and Q
    one matrix product in place of LAPACK's panels.  No tau is inverted:
    a reflector with tau = 0, the identity, gets a zero row and column
    of T.  With k = 0, Q = I and no QR is taken.
    """
    m, k = a.shape
    if not k:
        return np.eye(m, dtype=a.dtype)
    h, tau = np.linalg.qr(a, mode="raw")
    y = np.tril(h.T, -1) + np.eye(m, k)
    dyh = tau[:, None] * y.conj().T
    trtrs = scipy.linalg.get_lapack_funcs("trtrs", (dyh,))
    q = y @ -trtrs(dyh @ y, dyh, unitdiag=1)[0]
    q.flat[::m + 1] += 1
    return q


def orbit(a: np.ndarray, seed: SubspaceBasis, tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Smallest A-invariant subspace containing span(seed), A Hermitian.

    One-off form of :meth:`Spectrum.orbit`; build a :class:`Spectrum` to
    take several orbits under the same matrix.
    """
    return Spectrum(a, tol).orbit(seed)


def complement(whole: SubspaceBasis, part: SubspaceBasis,
               tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """Orthogonal complement of ``part`` inside ``whole``.

    Requires part to be contained in whole: every part vector within
    distance 10*tol of span(whole).  Then C = whole^dag part has
    orthonormal columns up to that residual, and with the full Householder
    QR C = Q R (:func:`_complete_q`) the complement is
    whole @ Q[:, dim(part):].  No rank is decided: its dimension is
    dim(whole) - dim(part) by construction.
    """
    if whole.ambient_dim != part.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {whole.ambient_dim} vs {part.ambient_dim}"
        )
    coords = whole.matrix.conj().T @ part.matrix
    if part.dim:
        residual = part.matrix - whole.matrix @ coords
        worst = np.max(np.linalg.norm(residual, axis=0))
        if worst > 10 * tol:
            raise ContainmentError(
                f"part is not contained in whole: max residual {worst:.3e}"
            )
    return SubspaceBasis(whole.matrix @ _complete_q(coords)[:, part.dim:])


def _spectral_norm(m: np.ndarray) -> float:
    """Spectral norm of ``m``: the square root of the top eigenvalue of the
    smaller of its Gram matrices, m^dag m or m m^dag.

    The Gram is formed from ``m`` itself, so when ``m`` is a residual or a
    complement product of norm 1e-12 its norm keeps its digits, which a
    Gram formed as I - C^dag C would round away.
    """
    if m.size == 0:
        return 0.0
    gram = m.conj().T @ m if m.shape[0] >= m.shape[1] else m @ m.conj().T
    k = gram.shape[0]
    top = scipy.linalg.eigh(gram, eigvals_only=True,
                            subset_by_index=[k - 1, k - 1])
    return float(np.sqrt(max(top[0], 0.0)))


def projector_distance(a: SubspaceBasis, b: SubspaceBasis) -> float:
    """Operator (spectral) norm of P_a - P_b, without forming either projector.

    When the dimensions differ it is exactly 1.  When they agree it is the
    sine of the largest principal angle, which ||(I - P_b) A|| and
    ||(I - P_a) B|| both equal in exact arithmetic, so one residual is
    taken: the n x k A - B (B^dag A), whose norm comes from its k x k Gram
    matrix (:func:`_spectral_norm`).  The residual keeps angles far below
    1e-8, which sqrt(1 - cos^2) of the principal cosines would round to
    zero.  The package's own distances take :func:`_complement_distance`,
    which needs a complement of ``b``; this form, which needs none, is
    its oracle.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.dim != b.dim:
        return 1.0
    return _spectral_norm(a.matrix - b.matrix @ (b.matrix.conj().T @ a.matrix))


def _complement_distance(product: np.ndarray, n: int) -> float:
    """||P_A - P_B|| from the product B_perp^dag A, or its conjugate
    transpose, of orthonormal bases of A and of B's orthogonal complement
    in an n-dimensional space.

    When dim A = dim B, that is when A and B_perp have n columns between
    them, it is ||B_perp^dag A|| (Golub & Van Loan, *Matrix
    Computations*, Thm 2.5.1), the norm of an (n - k) x k product, taken
    by :func:`_spectral_norm`.  Otherwise it is exactly 1.  B_perp must be
    exact by construction (the trailing columns of a complete Householder
    Q, see :func:`_complete_q`, or the factors a cut drops): the distance is only as good as its complement.
    """
    return _spectral_norm(product) if sum(product.shape) == n else 1.0


def numeric_rank(m: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values of ``m`` kept by :func:`_range_basis`."""
    m = as_field(m)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    return int(_range_basis(m, tol)[1])
