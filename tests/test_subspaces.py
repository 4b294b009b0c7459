import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opensys.lattice import LatticeSpec, build_lattice_system
from opensys.subspaces import (
    ContainmentError,
    DimensionMismatchError,
    Spectrum,
    SubspaceBasis,
    SymmetryError,
    _complement_distance,
    _cut_distance,
    _cut_product,
    _range_basis,
    check_hermitian,
    complement,
    numeric_rank,
    orbit,
    orthonormalize,
    projector_distance,
)
from opensys.systems import assemble_full, random_system

TOL = 1e-10


def orbit_block_closure(a, seed, tol=TOL):
    """Invariant closure by iterated block-Krylov passes: an oracle for
    :func:`orbit` that never diagonalizes ``a``.

    Each pass applies A to the newest vectors, projects out everything
    accepted so far (twice), and keeps the new directions whose singular
    values exceed tol*||A||.  It accumulates roundoff over passes, so it
    is reliable only at small dimension.
    """
    n = a.shape[0]
    scale = max(np.linalg.norm(a, 2), 1.0)
    basis = fresh = seed.matrix
    while fresh.shape[1] and basis.shape[1] < n:
        image = a @ fresh
        for _ in range(2):
            image = image - basis @ (basis.conj().T @ image)
        left, sing, _ = np.linalg.svd(image, full_matrices=False)
        fresh = left[:, sing > tol * scale]
        basis = np.hstack([basis, fresh])
    return SubspaceBasis(basis)


def projector(basis):
    """Dense orthogonal projector onto the subspace."""
    return basis.matrix @ basis.matrix.conj().T


def contains(basis, vector, tol):
    """Whether ``vector`` lies in the subspace to within tol * max(1, |v|)."""
    residual = vector - basis.matrix @ (basis.matrix.conj().T @ vector)
    return np.linalg.norm(residual) <= tol * max(np.linalg.norm(vector), 1.0)


def columns(*vectors):
    """The (n, k) array whose columns are ``vectors``."""
    return np.column_stack(vectors)


def unit(n, i):
    e = np.zeros(n, dtype=complex)
    e[i] = 1.0
    return e


class TestOrthonormalize:
    def test_collinear_inputs_collapse(self):
        basis = orthonormalize(columns([1.0, 0.0], [2.0, 0.0]), TOL)
        assert basis.dim == 1
        assert np.allclose(np.abs(basis.matrix[:, 0]), [1.0, 0.0])

    def test_empty_input(self):
        basis = orthonormalize(np.zeros((4, 0)), TOL)
        assert basis.dim == 0
        assert basis.ambient_dim == 4

    @pytest.mark.parametrize("vectors", [
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        np.array([1.0, 2.0, 3.0]),
    ], ids=["list", "1-d"])
    def test_only_a_column_array(self, vectors):
        """A list of vectors is never read as rows, nor a 1-d array as one
        column."""
        with pytest.raises(DimensionMismatchError, match="array of columns"):
            orthonormalize(vectors, TOL)

    def test_full_rank_matches_svd_oracle(self):
        vecs = [np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]),
                np.array([1.0, 0.0, 1.0])]
        # independent oracle: rank from singular values
        s = np.linalg.svd(np.stack(vecs, axis=1), compute_uv=False)
        oracle_rank = int(np.sum(s > TOL * s[0]))
        assert oracle_rank == 3
        assert orthonormalize(np.stack(vecs, axis=1), TOL).dim == 3

    def test_output_is_orthonormal(self):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        b = orthonormalize(vecs, TOL)
        gram = b.matrix.conj().T @ b.matrix
        assert np.max(np.abs(gram - np.eye(b.dim))) < 1e-13

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionMismatchError):
            orthonormalize([np.zeros(2), np.zeros(3)], TOL)

    def test_deterministic_in_input_order(self):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((5, 5))
        a = orthonormalize(vecs, TOL).matrix
        b = orthonormalize(vecs, TOL).matrix
        assert np.array_equal(a, b)


class TestOrbit:
    def test_identity_fixes_every_subspace(self):
        seed = orthonormalize(columns(unit(4, 1), unit(4, 3)), TOL)
        result = orbit(np.eye(4), seed, TOL)
        assert projector_distance(result, seed) < 1e-12

    def test_eigenvector_seed_is_invariant(self):
        a = np.diag([1.0, 1.0, 2.0])
        seed = orthonormalize(columns([1.0, 1.0, 0.0]) / np.sqrt(2), TOL)
        result = orbit(a, seed, TOL)
        assert projector_distance(result, seed) < 1e-12

    def test_generic_seed_brute_force_oracle(self):
        a = np.diag([1.0, 2.0, 3.0])
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        # brute-force oracle: orthonormalize {v, Av, A^2 v}
        oracle = orthonormalize(columns(v, a @ v, a @ a @ v), TOL)
        assert oracle.dim == 2
        result = orbit(a, orthonormalize(columns(v), TOL), TOL)
        expected = orthonormalize(columns(unit(3, 0), unit(3, 1)), TOL)
        assert projector_distance(result, oracle) < 1e-12
        assert projector_distance(result, expected) < 1e-12

    def test_non_hermitian_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SymmetryError):
            orbit(a, SubspaceBasis(np.eye(2)), TOL)

    def test_matches_block_closure_route(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        a = (g + g.conj().T) / 2
        seed = orthonormalize(rng.standard_normal((7, 2)), TOL)
        spectral = orbit(a, seed, TOL)
        krylov = orbit_block_closure(a, seed, TOL)
        assert projector_distance(spectral, krylov) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 3))
    def test_properties(self, seed, n, k):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (g + g.conj().T) / 2
        s = orthonormalize(rng.standard_normal((n, min(k, n))), TOL)
        result = orbit(a, s, TOL)
        # monotonicity: contains the seed, dimension does not shrink
        assert result.dim >= s.dim
        for j in range(s.dim):
            assert contains(result, s.matrix[:, j], 1e-8)
        # idempotence
        again = orbit(a, result, TOL)
        assert projector_distance(again, result) <= 10 * TOL
        # invariance certificate
        p = projector(result)
        residual = np.linalg.norm((np.eye(n) - p) @ a @ p, 2)
        assert residual <= 10 * TOL * np.linalg.norm(a, 2) + 1e-12

    def test_cyclic_vector_spans_everything(self):
        # distinct eigenvalues + seed touching every eigenvector
        a = np.diag(np.arange(1.0, 7.0))
        v = np.ones(6) / np.sqrt(6)
        result = orbit(a, orthonormalize(columns(v), TOL), TOL)
        assert result.dim == 6


class TestComplement:
    def test_standard_basis(self):
        whole = SubspaceBasis(np.eye(3))
        part = orthonormalize(columns(unit(3, 0)), TOL)
        rest = complement(whole, part, TOL)
        expected = orthonormalize(columns(unit(3, 1), unit(3, 2)), TOL)
        assert projector_distance(rest, expected) < 1e-12

    def test_whole_minus_whole_is_zero(self):
        whole = orthonormalize(np.random.default_rng(1).standard_normal((5, 3)), TOL)
        assert complement(whole, whole, TOL).dim == 0

    def test_projector_subtraction_oracle(self):
        diagonal = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        whole = orthonormalize(columns(diagonal, unit(3, 2)), TOL)
        part = orthonormalize(columns(diagonal), TOL)
        rest = complement(whole, part, TOL)
        oracle = projector(whole) - projector(part)
        assert np.linalg.norm(projector(rest) - oracle) < 1e-12

    def test_not_contained_rejected(self):
        whole = orthonormalize(columns(unit(3, 0)), TOL)
        part = orthonormalize(columns(unit(3, 1)), TOL)
        with pytest.raises(ContainmentError):
            complement(whole, part, TOL)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 7))
    def test_reunion_spans_whole(self, seed, n):
        rng = np.random.default_rng(seed)
        whole = orthonormalize(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), TOL)
        k = rng.integers(0, whole.dim + 1)
        part = SubspaceBasis(whole.matrix[:, :k])
        rest = complement(whole, part, TOL)
        assert rest.dim == whole.dim - part.dim
        reunion = orthonormalize(np.hstack([part.matrix, rest.matrix]), TOL)
        assert projector_distance(reunion, whole) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 9),
       st.floats(-12.0, 3.0), st.data())
def test_one_rank_rule(seed, n, k, log_scale, data):
    """numeric_rank and orthonormalize make the same cut at every scale, and
    complement always returns dim(whole) - dim(part) orthonormal columns."""
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(0, min(n, k)))
    g = ((rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
         @ rng.standard_normal((rank, k))) * 10.0 ** log_scale
    basis = orthonormalize(g, TOL)
    assert numeric_rank(g, TOL) == basis.dim
    part = SubspaceBasis(basis.matrix[:, :data.draw(
        st.integers(0, basis.dim))])
    whole = orthonormalize(np.hstack([
        part.matrix, rng.standard_normal((n, data.draw(st.integers(0, n))))]),
        TOL)
    rest = complement(whole, part, TOL)
    assert rest.dim == whole.dim - part.dim
    gram = rest.matrix.conj().T @ rest.matrix
    assert np.max(np.abs(gram - np.eye(rest.dim)), initial=0.0) <= 1e-13
    assert np.max(np.abs(part.matrix.conj().T @ rest.matrix),
                  initial=0.0) <= 1e-13


class TestProjectorDistance:
    def test_equal_subspaces(self):
        b = orthonormalize(columns(unit(3, 0), unit(3, 2)), TOL)
        assert projector_distance(b, b) == 0.0

    def test_orthogonal_lines(self):
        a = orthonormalize(columns(unit(2, 0)), TOL)
        b = orthonormalize(columns(unit(2, 1)), TOL)
        assert abs(projector_distance(a, b) - 1.0) < 1e-12

    def test_45_degree_line_principal_angle_oracle(self):
        a = orthonormalize(columns(unit(2, 0)), TOL)
        b = orthonormalize(columns([1.0, 1.0]) / np.sqrt(2), TOL)
        # oracle: largest principal angle from singular values of Pa @ Pb
        cos_theta = np.linalg.svd(projector(a) @ projector(b),
                                  compute_uv=False)[0]
        oracle = np.sin(np.arccos(np.clip(cos_theta, -1, 1)))
        dist = projector_distance(a, b)
        assert abs(dist - oracle) < 1e-12
        assert abs(dist - np.sin(np.pi / 4)) < 1e-12

    @pytest.mark.parametrize("angle", [1e-6, 1e-9, 1e-12])
    def test_small_angles_resolved(self, angle):
        # sqrt(1 - cos^2) of the principal cosine would read 0 below ~1e-8
        a = orthonormalize(columns(unit(3, 0), unit(3, 1)), TOL)
        b = orthonormalize(columns([np.cos(angle), 0.0, np.sin(angle)],
                                   unit(3, 1)), TOL)
        assert abs(projector_distance(a, b) - np.sin(angle)) <= 1e-3 * angle
        assert projector_distance(a, SubspaceBasis(a.matrix[:, :1])) \
            == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_residual_norms_agree(self, scale):
        # for equal dimensions ||(I-P_b)A|| = ||(I-P_a)B|| = sin(largest
        # principal angle), so projector_distance takes only one of them
        rng = np.random.default_rng(int(-np.log10(scale)))

        def unitary(n):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return np.linalg.qr(g)[0]

        def residual_norm(a, b):  # ||(I - P_b) A||
            r = a.matrix - b.matrix @ (b.matrix.conj().T @ a.matrix)
            return np.linalg.norm(r, 2)

        for _ in range(20):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, n // 2 + 1))
            q = unitary(n)
            angles = scale * rng.uniform(0.5, 1.0, k)
            rotated = q[:, :k] * np.cos(angles) + q[:, k:2 * k] * np.sin(angles)
            a = SubspaceBasis(q[:, :k] @ unitary(k))
            b = SubspaceBasis(rotated @ unitary(k))
            ab, ba = residual_norm(a, b), residual_norm(b, a)
            # relative to the unit norm of the orthonormal bases
            assert abs(ab - ba) <= 1e-12
            sine = np.sin(np.max(angles))
            for value in (ab, ba, projector_distance(a, b)):
                assert abs(value - sine) <= 1e-3 * sine

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            projector_distance(SubspaceBasis(np.eye(2)),
                               SubspaceBasis(np.eye(3)))


class TestNumericRank:
    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 4)), TOL) == 0

    def test_identity(self):
        assert numeric_rank(np.eye(5), TOL) == 5

    def test_rank_one_from_singular_values(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        s = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(s, [2.0, 0.0])
        assert numeric_rank(m, TOL) == 1

    def test_empty(self):
        assert numeric_rank(np.zeros((0, 3)), TOL) == 0


def planted_stack(g, k, dtype, rng, size=6):
    """A stack of ``size`` g x k matrices and their singular values, each
    matrix with a top value of its own and, below it, values planted at
    10 and 0.1 times the rank threshold ``TOL * max(1, s_max)``."""
    r = min(g, k)
    stack, planted = np.zeros((size, g, k), dtype), np.zeros((size, r))
    for i in range(size):
        top = (2.0, 0.5, 1e3, 10 * TOL, 0.1 * TOL, 1.0)[i % 6]
        cut = TOL * max(1.0, top)
        below = np.minimum(rng.choice([top / 2, 10 * cut, 0.1 * cut], r), top)
        sing = np.sort(below)[::-1]
        sing[:1] = top
        u, v = (np.linalg.qr(rng.standard_normal((n, r))
                             + (1j * rng.standard_normal((n, r))
                                if dtype == complex else 0))[0]
                for n in (g, k))
        stack[i], planted[i] = (u * sing) @ v.conj().T, sing
    return stack, planted


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("g", [1, 2, 5])
def test_range_basis_matches_svd(g, dtype):
    """The row norm (g = 1) and the QR triangle make the cut of the full
    SVD: the same kept counts, and kept left columns spanning the same
    subspace.  That subspace is determined to roundoff over the gap
    between the last value kept and the first dropped (Wedin), so the
    distance is held to 1e-12 of max(1, s_max) over that gap; with both
    at the threshold, the gap is 1e-9 and the bound 1e-3.  The left factor
    is unitary when k >= g."""
    rng = np.random.default_rng(100 * g + (dtype == complex))
    for k in range(g - 1, 3 * g + 1):
        stack, planted = planted_stack(g, k, dtype, rng)
        left, kept = _range_basis(stack, TOL)
        assert left.shape == (len(stack), g, min(g, k))
        assert left.dtype == stack.dtype
        for m, factor, count, sing in zip(stack, left, kept, planted):
            oracle, oracle_sing, _ = (np.linalg.svd(m) if k else
                                      (np.eye(g), np.zeros(0), None))
            scale = np.max(oracle_sing, initial=1.0)
            assert count == np.sum(oracle_sing > TOL * scale)
            assert count == np.sum(sing > TOL * np.max(sing, initial=1.0))
            gap = (sing[count - 1] if count else np.inf) - (
                sing[count] if count < len(sing) else 0.0)
            assert projector_distance(
                SubspaceBasis(factor[:, :count]),
                SubspaceBasis(oracle[:, :count])) <= 1e-12 * scale / gap
            if k >= g:
                assert np.max(np.abs(factor.conj().T @ factor - np.eye(g))
                              ) <= 1e-13


def test_basis_rejects_too_many_vectors():
    with pytest.raises(DimensionMismatchError):
        SubspaceBasis(np.eye(2, 3, dtype=complex))


def test_basis_must_be_a_matrix():
    with pytest.raises(DimensionMismatchError):
        SubspaceBasis(np.ones(3))
    assert SubspaceBasis(np.zeros((4, 0))).ambient_dim == 4


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_exactly_hermitian_input_is_copied(real):
    """An input equal to its conjugate transpose, read-only like a decoded
    buffer, comes back as a new writable array, bit for bit (A + A^dag)/2."""
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 5))
    if not real:
        g = g + 1j * rng.standard_normal((5, 5))
    a = g + g.conj().T
    a.flags.writeable = False
    out = check_hermitian(a, TOL)
    assert not np.shares_memory(out, a) and out.flags.writeable
    assert np.array_equal(out, (a + a.conj().T) / 2)


def eigen_coords(spectrum, seed):
    return spectrum.vectors.conj().T @ seed.matrix


def orbit_complement(spectrum, seed):
    """Largest invariant subspace orthogonal to span(seed): the
    eigenvectors times the factors that :meth:`Spectrum.cut` drops."""
    return SubspaceBasis(_cut_product(
        spectrum.vectors, spectrum.cut(eigen_coords(spectrum, seed)),
        keep=False))


def dense_factors(cut, n):
    """A cut in its old form: its factors as one block-diagonal n x n
    matrix F, cluster ``i`` in rows and columns ``starts[i]`` onwards, and
    the mask of F's kept columns, the leading ``rank`` of each cluster."""
    factors = np.zeros((n, n), dtype=np.result_type(
        float, *(left for _, left, _ in cut)))
    kept = np.zeros(n, dtype=bool)
    for rows, left, ranks in cut:
        factors[rows[:, :, None], rows[:, None, :]] = left
        kept[rows] = np.arange(rows.shape[1]) < ranks[:, None]
    return factors, kept


def closure_values(spectrum, seed):
    """Eigenvalues on orbit(seed): those the cut keeps, the leading
    ``rank`` of each cluster, in ascending order."""
    cut = spectrum.cut(eigen_coords(spectrum, seed))
    return spectrum.values[np.sort(np.concatenate(
        [rows[np.arange(rows.shape[1]) < ranks[:, None]]
         for rows, _, ranks in cut]))]


def per_cluster_orbit(spectrum, seed):
    """Orbit and its complement by one full SVD per cluster, in a loop: an
    oracle for the stacked, padded cuts of :meth:`Spectrum.cut`, through
    :meth:`Spectrum.orbit` and :func:`orbit_complement`."""
    n = len(spectrum.values)
    coords = spectrum.vectors.conj().T @ seed.matrix
    kept, dropped, values = [], [], []
    for lo, size in zip(spectrum.starts, spectrum.sizes):
        block = coords[lo:lo + size]
        if block.shape[1]:
            left, sing, _ = np.linalg.svd(block)
        else:
            left, sing = np.eye(size), np.zeros(0)
        rank = int(np.sum(sing > spectrum.tol * np.max(sing, initial=1.0)))
        kept.append(spectrum.vectors[:, lo:lo + size] @ left[:, :rank])
        dropped.append(spectrum.vectors[:, lo:lo + size] @ left[:, rank:])
        values.append(spectrum.values[lo:lo + rank])
    return (SubspaceBasis(np.hstack([np.zeros((n, 0)), *kept])),
            SubspaceBasis(np.hstack([np.zeros((n, 0)), *dropped])),
            np.concatenate(values))


def assert_matches_per_cluster(spectrum, seed):
    """The orbit and its complement match the per-cluster oracle; they are
    orthogonal, their dims sum to n, and no column of the complement has a
    seed component above the cut, tol * max(1, s_max) = tol for an
    orthonormal seed."""
    oracle, oracle_rest, oracle_values = per_cluster_orbit(spectrum, seed)
    result = spectrum.orbit(seed)
    rest = orbit_complement(spectrum, seed)
    assert result.dim == oracle.dim
    assert projector_distance(result, oracle) <= 1e-12
    assert np.array_equal(closure_values(spectrum, seed), oracle_values)
    assert rest.dim == oracle_rest.dim == len(spectrum.values) - result.dim
    assert projector_distance(rest, oracle_rest) <= 1e-12
    assert np.max(np.abs(result.matrix.conj().T @ rest.matrix),
                  initial=0.0) <= 1e-12
    assert np.max(np.linalg.norm(seed.matrix.conj().T @ rest.matrix, axis=0),
                  initial=0.0) <= spectrum.tol


def assert_products_match_dense(spectrum, seeds, rng):
    """Every product of :func:`_cut_product` equals its dense form with the
    n x n factor matrices, a F[:, kept] and a F[:, ~kept] for a random a,
    and :func:`_cut_distance` between the cuts of two seeds equals the
    dense ||F_a[:, kept_a]^dag F[:, ~kept]||; each cut's factors are
    unitary and cover every eigenvalue once."""
    n = len(spectrum.values)
    cuts = [spectrum.cut(eigen_coords(spectrum, seed)) for seed in seeds]
    a = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    for cut in cuts:
        assert np.array_equal(np.sort(np.concatenate(
            [rows.ravel() for rows, _, _ in cut])), np.arange(n))
        for rows, left, ranks in cut:
            assert left.shape == (*rows.shape, rows.shape[1])
            assert np.allclose(np.swapaxes(left, -1, -2).conj() @ left,
                               np.eye(rows.shape[1]), atol=1e-12)
            assert ranks.shape == rows.shape[:1]
    for cut_a, cut in itertools.product(cuts, repeat=2):
        factors, kept = dense_factors(cut, n)
        for keep in (True, False):
            assert np.allclose(_cut_product(a, cut, keep),
                               a @ factors[:, kept == keep], rtol=0, atol=1e-12)
        factors_a, kept_a = dense_factors(cut_a, n)
        dense = _complement_distance(
            factors_a[:, kept_a].conj().T @ factors[:, ~kept], n)
        assert abs(_cut_distance(cut_a, cut) - dense) <= 1e-12


def degenerate_hermitian(multiplicities, rng):
    """Random Hermitian matrix whose eigenvalues repeat ``multiplicities``
    times each, so its clusters have several sizes."""
    values = np.repeat(rng.standard_normal(len(multiplicities)),
                       multiplicities)
    n = len(values)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(g)[0]
    return (q * values) @ q.conj().T


def block_seeds(d1, d2, dtype):
    n = d1 + d2
    eye = np.eye(n, dtype=dtype)
    return SubspaceBasis(eye[:, :d1]), SubspaceBasis(eye[:, d1:])


class TestStackedClusterCuts:
    def test_lattice_cluster_sizes(self):
        sys = build_lattice_system(LatticeSpec.centered(6, 2, 3, TOL))
        spectrum = Spectrum(assemble_full(sys).omega, TOL)
        assert set(spectrum.sizes.tolist()) == {1, 3, 6, 15}
        for seed in block_seeds(sys.d1, sys.d2, float):
            assert_matches_per_cluster(spectrum, seed)
        rng = np.random.default_rng(0)
        random_seed = orthonormalize(
            rng.standard_normal((sys.d1 + sys.d2, 5)), TOL)
        assert_matches_per_cluster(spectrum, random_seed)
        assert_products_match_dense(
            spectrum, [*block_seeds(sys.d1, sys.d2, float), random_seed], rng)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 9), st.data())
    def test_random_systems(self, d1, d2, data):
        rank = data.draw(st.integers(0, min(d1, d2)))
        sys = random_system(d1, d2, rank, seed=data.draw(st.integers(0, 10_000)))
        spectrum = Spectrum(assemble_full(sys).omega, TOL)
        for seed in block_seeds(d1, d2, complex):
            assert_matches_per_cluster(spectrum, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
           st.integers(0, 10_000), st.integers(0, 4))
    def test_degenerate_spectra(self, multiplicities, seed, k):
        """Hermitian matrices with clusters of several sizes."""
        rng = np.random.default_rng(seed)
        spectrum = Spectrum(degenerate_hermitian(multiplicities, rng), TOL)
        n = len(spectrum.values)
        seed_basis = orthonormalize(rng.standard_normal((n, min(k, n))), TOL)
        assert_matches_per_cluster(spectrum, seed_basis)
        other = orthonormalize(rng.standard_normal((n, 1)), TOL)
        assert_products_match_dense(spectrum, [seed_basis, other], rng)


def test_cut_distance_is_one_when_cluster_ranks_differ():
    """Two closures of equal dimension, 2, whose cuts keep ranks (2, 0) and
    (1, 1) in the two clusters of a doubly degenerate spectrum, are at
    distance exactly 1; the dense complement product reads 1 too."""
    rng = np.random.default_rng(3)
    spectrum = Spectrum(degenerate_hermitian([2, 2], rng), TOL)
    v = spectrum.vectors
    cuts = [spectrum.cut(eigen_coords(spectrum, SubspaceBasis(seed)))
            for seed in (v[:, :2], v[:, [0, 2]])]
    assert [cut[0][2].tolist() for cut in cuts] == [[2, 0], [1, 1]]
    assert _cut_distance(*cuts) == _cut_distance(*cuts[::-1]) == 1.0
    (factors_a, kept_a), (factors, kept) = (dense_factors(cut, 4)
                                            for cut in cuts)
    assert abs(_complement_distance(
        factors_a[:, kept_a].conj().T @ factors[:, ~kept], 4) - 1) <= 1e-12


def test_svd_counts(monkeypatch):
    """A cut, through Spectrum.orbit or orbit_complement, makes one SVD per
    distinct cluster size; _cut_distance at most one per cluster size, and
    none when every cluster has one eigenvalue; complement,
    projector_distance and _complement_distance make none."""
    inner = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # norm's svd
    sys = build_lattice_system(LatticeSpec.centered(6, 2, 3, TOL))
    spectrum = Spectrum(assemble_full(sys).omega, TOL)
    h1, _ = block_seeds(sys.d1, sys.d2, float)
    calls = []

    def counted(*args, _svd=np.linalg.svd, **kwargs):
        calls.append(1)
        return _svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(inner, "svd", counted)

    closure = spectrum.orbit(h1)
    assert 0 < len(calls) <= len(np.unique(spectrum.sizes)) == 4
    calls.clear()
    outside = orbit_complement(spectrum, h1)
    assert outside.dim == len(spectrum.values) - closure.dim
    assert 0 < len(calls) <= 4
    calls.clear()
    rest = complement(closure, h1, TOL)
    assert rest.dim == closure.dim - h1.dim
    assert projector_distance(rest, complement(closure, h1, TOL)) < 1e-12
    assert _complement_distance(outside.matrix.conj().T @ closure.matrix,
                                len(spectrum.values)) < 1e-12
    assert calls == []
    cuts = [spectrum.cut(eigen_coords(spectrum, seed))
            for seed in (h1, closure)]
    calls.clear()
    assert _cut_distance(*cuts) < 1e-12
    assert 0 < len(calls) <= 4
    generic = Spectrum(degenerate_hermitian([1] * 12,
                                            np.random.default_rng(0)), TOL)
    assert set(generic.sizes.tolist()) == {1}
    cuts = [generic.cut(eigen_coords(generic, SubspaceBasis(seed)))
            for seed in (generic.vectors[:, :5], generic.vectors[:, 7:])]
    calls.clear()
    assert _cut_distance(cuts[0], cuts[0]) == 0.0
    assert _cut_distance(*cuts) == 1.0
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.data(), st.floats(-12.0, 0.0), st.booleans(),
       st.integers(0, 10_000))
def test_projector_distance_is_residual_spectral_norm(n, data, log_angle,
                                                      real, seed):
    """The top-Gram-eigenvalue norm equals the SVD spectral norm of the
    residual to 1e-12 relative, at angles from 1 down to 1e-12."""
    k = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)

    def unitary(d):
        g = rng.standard_normal((d, d))
        if not real:
            g = g + 1j * rng.standard_normal((d, d))
        return np.linalg.qr(g)[0]

    q = unitary(n)
    m = min(k, n - k)  # directions rotated out of span(a)
    angles = 10.0 ** log_angle * rng.uniform(0.5, 1.0, m)
    rotated = q[:, :k].copy()
    rotated[:, :m] = q[:, :m] * np.cos(angles) + q[:, k:k + m] * np.sin(angles)
    a = SubspaceBasis(q[:, :k] @ unitary(k))
    b = SubspaceBasis(rotated @ unitary(k))
    residual = a.matrix - b.matrix @ (b.matrix.conj().T @ a.matrix)
    expected = np.linalg.norm(residual, 2)
    assert abs(projector_distance(a, b) - expected) <= 1e-12 * expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.data(), st.floats(-12.0, 0.0), st.booleans(),
       st.integers(0, 10_000))
def test_complement_distance_matches_projector_distance(n, data, log_angle,
                                                        real, seed):
    """||B_perp^dag A||, with B_perp the trailing columns of a complete QR
    of B, against its oracle projector_distance(A, B): equal dimensions
    from 0 to n at angles from 1 down to 1e-12, and unequal dimensions,
    which give exactly 1.

    The norm of the product is taken from its Gram matrix, so it equals
    the product's SVD norm to 1e-12 relative.  The two routes round the
    bases differently, by a few eps each, so they agree to 1e-12 relative
    above an absolute floor of 1e-14."""
    k = data.draw(st.integers(0, n))
    k_b = data.draw(st.one_of(st.just(k), st.integers(0, n)))
    rng = np.random.default_rng(seed)

    def unitary(d):
        g = rng.standard_normal((d, d))
        if not real:
            g = g + 1j * rng.standard_normal((d, d))
        return np.linalg.qr(g)[0]

    q = unitary(n)
    m = min(k, n - k)  # directions rotated out of span(a)
    angles = 10.0 ** log_angle * rng.uniform(0.5, 1.0, m)
    rotated = q[:, :k].copy()
    rotated[:, :m] = q[:, :m] * np.cos(angles) + q[:, k:k + m] * np.sin(angles)
    a = SubspaceBasis(q[:, :k] @ unitary(k))
    b = SubspaceBasis(rotated @ unitary(k) if k_b == k else unitary(n)[:, :k_b])
    b_perp = np.linalg.qr(b.matrix, mode="complete")[0][:, k_b:]
    distance = _complement_distance(b_perp.conj().T @ a.matrix, n)
    oracle = projector_distance(a, b)
    if k_b != k:
        assert distance == oracle == 1.0
        return
    product = b_perp.conj().T @ a.matrix
    svd_norm = np.linalg.norm(product, 2) if product.size else 0.0
    assert abs(distance - svd_norm) <= 1e-12 * svd_norm
    assert abs(distance - oracle) <= 1e-12 * oracle + 1e-14
    if m:
        sine = np.sin(np.max(angles))
        assert abs(distance - sine) <= 1e-3 * sine
