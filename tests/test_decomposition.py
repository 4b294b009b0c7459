import dataclasses
import functools
import hashlib
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import block_diag

from opensys import subspaces
from opensys.decomposition import (
    DecompositionError,
    _split_block,
    decompose,
    multiplicity,
    verify_block_form,
    verify_theorem,
)
from opensys.lattice import LatticeSpec, build_lattice_system
from opensys.subspaces import (
    ORBIT_CERT_FACTOR,
    Spectrum,
    _complement_distance,
    SubspaceBasis,
    check_hermitian,
    complement,
    numeric_rank,
    orbit,
    orthonormalize,
    projector_distance,
)
from opensys.systems import (
    BlockSystem,
    assemble_full,
    load_system,
    random_system,
    save_system,
)
from test_subspaces import (dense_factors, degenerate_hermitian,
                            orbit_complement)
from test_systems import decoupled_parts

TOL = 1e-10


def coupled_plus_decoupled(seed=5):
    """System with nonempty decoupled parts: a coupled core direct-summed
    with extra observable and hidden blocks that touch nothing."""
    rng = np.random.default_rng(seed)
    core = random_system(2, 3, 2, seed=seed)

    def herm(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (g + g.conj().T) / 2

    omega1 = np.block([
        [core.omega1, np.zeros((2, 2))],
        [np.zeros((2, 2)), herm(2)],
    ])
    omega2 = np.block([
        [core.omega2, np.zeros((3, 2))],
        [np.zeros((2, 3)), herm(2)],
    ])
    gamma = np.zeros((4, 5), dtype=complex)
    gamma[:2, :3] = core.gamma
    return BlockSystem(omega1, omega2, gamma, TOL)


@st.composite
def complex_systems(draw):
    """Small complex random systems of every coupling rank."""
    d1, d2 = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    rank = draw(st.integers(0, min(d1, d2)))
    return random_system(d1, d2, rank, seed=draw(st.integers(0, 10_000)))


@st.composite
def real_systems(draw):
    """Small 1-d/2-d lattices and random real symmetric block systems."""
    if draw(st.booleans()):
        dims = draw(st.integers(1, 2))
        box = draw(st.integers(2, 7 if dims == 1 else 5))
        cube = draw(st.integers(1, box - 1))
        offset = tuple(draw(st.integers(0, box - cube)) for _ in range(dims))
        return build_lattice_system(LatticeSpec(box, cube, offset, dims, TOL))
    d1, d2 = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    rank = draw(st.integers(0, min(d1, d2)))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    a1, a2 = rng.standard_normal((d1, d1)), rng.standard_normal((d2, d2))
    gamma = rng.standard_normal((d1, rank)) @ rng.standard_normal((rank, d2))
    return BlockSystem((a1 + a1.T) / 2, (a2 + a2.T) / 2, gamma, TOL)


def embed_observable(basis, d2):
    """An observable-space basis as n-vectors [x; 0]."""
    return SubspaceBasis(np.vstack([basis.matrix, np.zeros((d2, basis.dim))]))


def embed_hidden(basis, d1):
    """A hidden-space basis as n-vectors [0; y]."""
    return SubspaceBasis(np.vstack([np.zeros((d1, basis.dim)), basis.matrix]))


def direct_sum(*parts):
    """Concatenated bases of mutually orthogonal subspaces."""
    return SubspaceBasis(np.hstack([p.matrix for p in parts]))


def decomposition_basis(sys, dec):
    """Unitary whose columns are the concatenated (h1d, h1c, h2c, h2d) basis."""
    d1, d2 = sys.d1, sys.d2
    return np.hstack([embed_observable(dec.h1d, d2).matrix,
                      embed_observable(dec.h1c, d2).matrix,
                      embed_hidden(dec.h2c, d1).matrix,
                      embed_hidden(dec.h2d, d1).matrix])


def conjugated_block_form(sys, dec):
    """Largest 2-norm of a block outside the allowed pattern (the four
    diagonal blocks and the core coupling pair) of U^dag Omega U: an
    oracle for :func:`verify_block_form`, which forms no n x n matrix."""
    u = decomposition_basis(sys, dec)
    t = u.conj().T @ assemble_full(sys).omega @ u
    sizes = [dec.h1d.dim, dec.h1c.dim, dec.h2c.dim, dec.h2d.dim]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    allowed = {(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)}
    worst = 0.0
    for i in range(4):
        for j in range(4):
            if (i, j) in allowed or sizes[i] == 0 or sizes[j] == 0:
                continue
            block = t[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]]
            worst = max(worst, float(np.linalg.norm(block, 2)))
    return worst


def project_out_block(closure, side, take, other, tol):
    """Closure-minus-side through :func:`complement`, in the coordinates of
    the other block (``take``), and its orthogonal complement there."""
    excess = complement(closure, side, tol)
    assert np.linalg.norm(excess.matrix[other]) < 0.5  # the QR's rank proof
    q = np.linalg.qr(excess.matrix[take], mode="complete")[0]
    return SubspaceBasis(q[:, :excess.dim]), SubspaceBasis(q[:, excess.dim:])


def definitional_parts(sys):
    """h1d, h1c, h2c, h2d by the definitional route: H2c is closure(H1)
    minus H1 and H2d its complement in H2, and symmetrically.  An oracle
    for :func:`decompose`, which reads the decoupled parts off the cuts."""
    d1, n = sys.d1, sys.d1 + sys.d2
    spectrum = Spectrum(assemble_full(sys).omega, sys.tol)
    h1, h2 = SubspaceBasis(np.eye(n, d1)), SubspaceBasis(np.eye(n, n - d1, -d1))
    h2c, h2d = project_out_block(spectrum.orbit(h1), h1, slice(d1, n),
                                 slice(0, d1), sys.tol)
    h1c, h1d = project_out_block(spectrum.orbit(h2), h2, slice(0, d1),
                                 slice(d1, n), sys.tol)
    return {"h1d": h1d, "h1c": h1c, "h2c": h2c, "h2d": h2d}


def assert_matches_definitional_route(sys, dec=None):
    dec = decompose(sys) if dec is None else dec
    for name, oracle in definitional_parts(sys).items():
        part = getattr(dec, name)
        assert part.dim == oracle.dim, name
        assert projector_distance(part, oracle) <= 1e-12, name


def core_operators(sys, dec):
    """Omega1c, Omega2c and Gamma_c: the (h1c, h1c), (h2c, h2c) and
    (h1c, h2c) blocks of U^dag Omega U, U = decomposition_basis(sys, dec)."""
    u = decomposition_basis(sys, dec)
    t = u.conj().T @ assemble_full(sys).omega @ u
    mid = dec.h1d.dim + dec.h1c.dim
    h1c, h2c = slice(dec.h1d.dim, mid), slice(mid, mid + dec.h2c.dim)
    return t[h1c, h1c], t[h2c, h2c], t[h1c, h2c]


def largest_cluster(values, tol):
    """Size of the largest run of sorted ``values`` whose consecutive gaps
    are <= tol * max(1, |values|max): the cluster rule, kept here apart
    from the package's own."""
    threshold = tol * max(1.0, float(np.max(np.abs(values), initial=0.0)))
    largest = run = 0
    for i in range(len(values)):
        run = run + 1 if i and values[i] - values[i - 1] <= threshold else 1
        largest = max(largest, run)
    return largest


def nested_core_route(sys, dec):
    """Largest eigenvalue cluster, at ``dec.tol``, and reconstructibility
    of the core, from a :func:`decompose` of the core system itself.

    An oracle for :func:`verify_theorem`, which reads both off the cut of
    the core in the eigenbasis of Omega; this route factors the core,
    Omega1c and Omega2c.
    """
    if dec.h1c.dim == 0:
        return 0, True  # empty core, vacuously
    core = decompose(BlockSystem(*core_operators(sys, dec), dec.tol))
    return largest_cluster(core.spectrum.values, dec.tol), core.reconstructible


def diag_closure_distance(sys, dec):
    """Distance from H1c + H2c of the closure of the coupling range under
    diag(Omega1, Omega2), by an eigendecomposition of that n x n matrix:
    an oracle for ``dec.route_distance``."""
    omega_ring, gamma_ring = decoupled_parts(sys)
    n = sys.d1 + sys.d2
    ran_ring = orthonormalize(gamma_ring, sys.tol)
    lo = dec.h1d.dim
    core = SubspaceBasis(decomposition_basis(sys, dec)[
        :, lo:lo + dec.h1c.dim + dec.h2c.dim])
    return projector_distance(orbit(omega_ring, ran_ring, sys.tol), core)


def assert_matches_nested_route(sys, dec=None):
    """verify_theorem gives the nested route's multiplicity, core verdict
    and passed(), and its proof-chain entry is the diagonal closure's
    distance."""
    dec = decompose(sys) if dec is None else dec
    report = verify_theorem(sys, dec)
    mult, reconstructible = nested_core_route(sys, dec)
    diag = diag_closure_distance(sys, dec)
    nested = dataclasses.replace(
        report, multiplicity_omega_c=mult, bound_satisfied=mult <= report.bound,
        reconstructible_core=reconstructible,
        orbit_equalities=[*report.orbit_equalities[:-1],
                          ("diag closure vs h1c+h2c", diag)])
    assert report.orbit_equalities[-1] == ("diag closure vs h1c+h2c",
                                           dec.route_distance)
    assert abs(dec.route_distance - diag) <= 1e-9
    assert report.multiplicity_omega_c == mult
    assert report.reconstructible_core == reconstructible
    assert report.passed() == nested.passed()
    return report


def embedded_equalities(sys, dec):
    """The six theorem distances by the embedded route: n x k bases of
    H1c + H2c and of the three closures, compared by
    :func:`projector_distance`.  An oracle for :func:`verify_theorem`,
    which takes each from an exact complement in the eigenbasis of Omega."""
    d1, d2 = sys.d1, sys.d2
    h1c, h2c = embed_observable(dec.h1c, d2), embed_hidden(dec.h2c, d1)
    coupling = direct_sum(embed_observable(dec.ran_gamma, d2),
                          embed_hidden(dec.ran_gamma_dag, d1))
    subspaces = [
        ("h1c+h2c", direct_sum(h1c, h2c)),
        ("closure(h1c)", dec.spectrum.orbit(h1c)),
        ("closure(h2c)", dec.spectrum.orbit(h2c)),
        ("closure(ran coupling)", dec.spectrum.orbit(coupling)),
    ]
    return [(f"{a} vs {b}", projector_distance(sa, sb))
            for (a, sa), (b, sb) in combinations(subspaces, 2)]


def embedded_route_distance(sys, dec):
    """The larger projector distance between h1c, h2c and the fast route's
    closures: an oracle for ``dec.route_distance``, which takes h1d and
    h2d as the complements of h1c and h2c."""
    return max(
        projector_distance(dec.h1c, orbit(sys.omega1, dec.ran_gamma, sys.tol)),
        projector_distance(dec.h2c,
                           orbit(sys.omega2, dec.ran_gamma_dag, sys.tol)))


def assert_matches_embedded_route(sys, dec):
    """verify_theorem's equalities have the embedded route's names and
    order, and each distance is within 1e-14 absolute of it."""
    report = verify_theorem(sys, dec)
    *equalities, last = report.orbit_equalities
    oracle = embedded_equalities(sys, dec)
    assert [name for name, _ in equalities] == [name for name, _ in oracle]
    for (name, value), (_, expected) in zip(equalities, oracle):
        assert abs(value - expected) <= 1e-14, name
    assert last == ("diag closure vs h1c+h2c", dec.route_distance)
    return report


def assert_matches_embedded_routes(sys):
    """The theorem and route distances both match the embedded route."""
    dec = decompose(sys)
    assert abs(dec.route_distance - embedded_route_distance(sys, dec)) <= 1e-14
    return assert_matches_embedded_route(sys, dec)


def _with_h2c(dec, matrix):
    return dataclasses.replace(dec, h2c=dataclasses.replace(dec.h2c, matrix=matrix))


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    return q


def planted_system(k1d, k1c, k2c, k2d, rank, seed, real=False):
    """A system whose four-way split is known, and its planted bases.

    Omega is block-diagonal in (h1d, h1c, h2c, h2d), with a coupling of
    the given rank only between h1c and h2c; one random unitary then
    turns H1 and another H2.  The blocks are drawn again until the
    spectra of Omega, Omega1 and Omega2 each have every gap >= 1e-3, so
    no decoupled eigenvalue nearly ties another eigenvalue.  Returns the
    system and the planted (h1d, h1c, h2c, h2d) bases.
    """
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = rng.standard_normal(shape)
        return a if real else a + 1j * rng.standard_normal(shape)

    def herm(d):
        a = draw(d, d)
        return (a + a.conj().T) / 2

    def min_gap(*blocks):
        w = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        return np.min(np.diff(w))

    while True:
        a1d, a1c, a2c, a2d = herm(k1d), herm(k1c), herm(k2c), herm(k2d)
        gamma_c = draw(k1c, rank) @ draw(rank, k2c)
        core = np.block([[a1c, gamma_c], [gamma_c.conj().T, a2c]])
        if min(min_gap(a1d, a1c), min_gap(a2c, a2d),
               min_gap(a1d, core, a2d)) >= 1e-3:
            break
    u1 = np.linalg.qr(draw(k1d + k1c, k1d + k1c))[0]
    u2 = np.linalg.qr(draw(k2c + k2d, k2c + k2d))[0]
    gamma = np.zeros((k1d + k1c, k2c + k2d), dtype=gamma_c.dtype)
    gamma[k1d:, :k2c] = gamma_c
    sys = BlockSystem(u1 @ block_diag(a1d, a1c) @ u1.conj().T,
                      u2 @ block_diag(a2c, a2d) @ u2.conj().T,
                      u1 @ gamma @ u2.conj().T, TOL)
    return sys, [SubspaceBasis(u1[:, :k1d]), SubspaceBasis(u1[:, k1d:]),
                 SubspaceBasis(u2[:, :k2c]), SubspaceBasis(u2[:, k2c:])]


def dense_factor_route(sys):
    """decompose and verify_theorem through the n x n factor matrices of
    the cuts (:func:`test_subspaces.dense_factors`), as they were formed
    before the cuts kept their factors per cluster.  Returns the dims, the
    theorem's distances with the route distance last, the multiplicity,
    the bound and the verdict."""
    d1, tol = sys.d1, sys.tol
    spectrum = Spectrum(None, tol, eigenpairs=sys.eigenpairs())
    vectors, n = spectrum.vectors, len(spectrum.values)

    def dense_cut(spec, coords):
        return dense_factors(spec.cut(coords), len(spec.values))

    def distance(a, b_perp):  # ||B_perp^dag A|| from the two n-row bases
        return _complement_distance(b_perp.conj().T @ a, a.shape[0])

    factors, kept = dense_cut(spectrum, vectors[:d1].conj().T)
    h2d, h2c = _split_block(SubspaceBasis(vectors @ factors[:, ~kept]),
                            slice(d1, None), slice(0, d1), tol, "H2c")
    factors, kept = dense_cut(spectrum, vectors[d1:].conj().T)
    h1d, h1c = _split_block(SubspaceBasis(vectors @ factors[:, ~kept]),
                            slice(0, d1), slice(d1, None), tol, "H1c")
    ran_gamma = orthonormalize(sys.gamma, tol)
    ran_gamma_dag = SubspaceBasis(
        np.linalg.qr(sys.gamma.conj().T @ ran_gamma.matrix)[0])
    route = 0.0
    for block, seed, rest in ((sys.omega1, ran_gamma, h1d),
                              (sys.omega2, ran_gamma_dag, h2d)):
        spec = Spectrum(block, tol)
        factors, kept = dense_cut(spec, spec.vectors.conj().T @ seed.matrix)
        route = max(route, distance(spec.vectors @ factors[:, kept],
                                    rest.matrix))

    top, bottom = vectors[:d1].conj().T, vectors[d1:].conj().T
    core = np.hstack([top @ h1c.matrix, bottom @ h2c.matrix])
    coupling = np.hstack([top @ ran_gamma.matrix,
                          bottom @ ran_gamma_dag.matrix])
    cuts = [dense_cut(spectrum, seed) for seed in
            (core, core[:, :h1c.dim], core[:, h1c.dim:], coupling)]
    distances = [distance(
        core if i == 0 else cuts[i][0][:, cuts[i][1]],
        cuts[j][0][:, ~cuts[j][1]]) for i, j in combinations(range(4), 2)]
    mult = int(max(np.add.reduceat(cuts[0][1], spectrum.starts), default=0))
    bound = min(2 * ran_gamma.dim, h1c.dim, h2c.dim)
    limit = 100 * tol
    passed = (max(distances + [route]) <= limit and mult <= bound
              and max(distances[:2]) <= limit)
    dims = {"h1d": h1d.dim, "h1c": h1c.dim, "h2c": h2c.dim, "h2d": h2d.dim}
    return dims, distances + [route], mult, bound, passed


def assert_matches_dense_factor_route(sys):
    """The same dims, multiplicity, bound and verdict as the n x n factor
    route, and every distance within 1e-12 of its."""
    dec = decompose(sys)
    report = verify_theorem(sys, dec)
    dims, distances, mult, bound, passed = dense_factor_route(sys)
    assert dec.dims == dims
    assert (report.multiplicity_omega_c, report.bound, report.passed()) == \
        (mult, bound, passed)
    got = [d for _, d in report.orbit_equalities]
    assert len(got) == len(distances)
    assert np.max(np.abs(np.subtract(got, distances))) <= 1e-12


def assert_block_form_matches_conjugation(sys, dec):
    omega_norm = np.linalg.norm(assemble_full(sys).omega, 2)
    gap = abs(verify_block_form(sys, dec) - conjugated_block_form(sys, dec))
    assert gap <= 1e-14 * max(1.0, omega_norm)


class TestDecompose:
    def test_zero_coupling_everything_decoupled(self):
        sys = random_system(3, 4, 0, seed=0)
        dec = decompose(sys)
        assert dec.dims == {"h1d": 3, "h1c": 0, "h2c": 0, "h2d": 4}

    def test_partial_hidden_coupling(self):
        # brute force: the orbit of e1 under diag(1,1) is span{e1}
        sys = BlockSystem(np.array([[0.0]]), np.diag([1.0, 1.0]),
                          np.array([[1.0, 0.0]]))
        dec = decompose(sys)
        assert dec.dims == {"h1d": 0, "h1c": 1, "h2c": 1, "h2d": 1}
        assert abs(abs(dec.h2c.matrix[0, 0]) - 1.0) < 1e-12

    def test_direct_sum_structure_recovered(self):
        dec = decompose(coupled_plus_decoupled())
        assert dec.dims == {"h1d": 2, "h1c": 2, "h2c": 3, "h2d": 2}

    def test_gamma_c_shape(self):
        sys = random_system(4, 6, 2, seed=8)
        dec = decompose(sys)
        gamma_c = core_operators(sys, dec)[2]
        assert gamma_c.shape == (dec.h1c.dim, dec.h2c.dim)

    def test_coupling_ranges_inside_coupled_parts(self):
        sys = random_system(5, 7, 3, seed=17)
        dec = decompose(sys)
        for basis, cols in ((dec.h1c, sys.gamma), (dec.h2c, sys.gamma.conj().T)):
            cols = cols / np.linalg.norm(cols, axis=0)
            residual = cols - basis.matrix @ (basis.matrix.conj().T @ cols)
            assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8


@pytest.mark.parametrize("parts, rank, seed, real", [
    ((2, 3, 4, 2), 1, 1, True),
    ((3, 4, 5, 3), 2, 2, False),
    ((1, 2, 2, 1), 2, 3, True),
    ((4, 3, 6, 5), 3, 4, False),
    ((5, 4, 4, 6), 2, 5, True),
])
def test_planted_split_recovered(parts, rank, seed, real, tmp_path):
    """decompose finds the planted parts of a system read back from its
    file, and verify_theorem passes on them."""
    sys, planted = planted_system(*parts, rank, seed, real)
    path = tmp_path / "planted.json"
    save_system(sys, str(path))
    loaded = load_system(str(path))
    assert loaded.gamma.dtype == (np.float64 if real else np.complex128)
    dec = decompose(loaded)
    names = ("h1d", "h1c", "h2c", "h2d")
    assert dec.dims == dict(zip(names, parts))
    for name, basis in zip(names, planted):
        assert projector_distance(getattr(dec, name), basis) <= 1e-8
    assert verify_theorem(loaded, dec).passed()


class TestDefinitionalRoute:
    """The parts read off the cuts equal closure-minus-side, with equal dims."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(real_systems(), complex_systems()))
    def test_systems(self, sys):
        assert_matches_definitional_route(sys)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
           st.integers(0, 10_000), st.data())
    def test_degenerate_spectra(self, multiplicities, seed, data):
        omega = degenerate_hermitian(multiplicities, np.random.default_rng(seed))
        n = omega.shape[0]
        assume(n > 1)  # both blocks nonempty
        d1 = data.draw(st.integers(1, n - 1))
        assert_matches_definitional_route(BlockSystem(
            omega[:d1, :d1], omega[d1:, d1:], omega[:d1, d1:], TOL))

    @pytest.mark.parametrize("spec", [
        LatticeSpec.centered(6, 2, 3, TOL),
        LatticeSpec.centered(8, 3, 3, TOL),
        LatticeSpec.centered(10, 3, 3, TOL),
        LatticeSpec.centered(22, 6, 2, TOL),
        LatticeSpec(24, 6, (9, 9), 2, TOL),
    ], ids=["3d-box6-cube2", "3d-box8-cube3", "3d-box10-cube3",
            "2d-box22-cube6", "2d-box24-cube6-at-9-9"])
    def test_lattices(self, spec):
        assert_matches_definitional_route(build_lattice_system(spec))


class TestBlockForm:
    def test_zero_coupling_is_exactly_block_diagonal(self):
        sys = random_system(3, 4, 0, seed=3)
        dec = decompose(sys)
        assert verify_block_form(sys, dec) < 1e-12

    def test_random_system_within_threshold(self):
        sys = random_system(4, 6, 2, seed=12)
        dec = decompose(sys)
        omega_norm = np.linalg.norm(assemble_full(sys).omega, 2)
        assert verify_block_form(sys, dec) <= 1e-10 * omega_norm

    def test_corrupted_basis_detected(self):
        sys = coupled_plus_decoupled()
        dec = decompose(sys)
        # negative control: swap one vector between h1d and h1c
        h1d = dec.h1d.matrix.copy()
        h1c = dec.h1c.matrix.copy()
        h1d[:, 0], h1c[:, 0] = h1c[:, 0].copy(), h1d[:, 0].copy()
        bad = dataclasses.replace(
            dec,
            h1d=dataclasses.replace(dec.h1d, matrix=h1d),
            h1c=dataclasses.replace(dec.h1c, matrix=h1c),
        )
        omega_norm = np.linalg.norm(assemble_full(sys).omega, 2)
        assert verify_block_form(sys, bad) > 1e-3 * omega_norm
        assert_block_form_matches_conjugation(sys, bad)

    def test_all_blocks_empty_is_zero(self):
        sys = BlockSystem(np.array([[0.0]]), np.array([[0.0]]),
                          np.array([[1.0]]))
        dec = decompose(sys)
        assert dec.h1d.dim == dec.h2d.dim == 0
        assert verify_block_form(sys, dec) == 0.0

    def test_forms_no_full_operator(self, monkeypatch):
        sys = coupled_plus_decoupled()
        dec = decompose(sys)

        def refuse(_sys):
            raise AssertionError("verify_block_form assembled Omega")
        monkeypatch.setattr("opensys.systems.assemble_full", refuse)
        assert verify_block_form(sys, dec) < 1e-12

    @pytest.mark.parametrize("part,dims", [
        ("omega1", (2, 3, 2, 3)),
        ("omega2", (2, 3, 2, 3)),
        ("gamma", (2, 3, 4, 0)),  # only h1d^dag Gamma h2c is non-empty
        ("gamma", (2, 0, 0, 4)),  # only h1d^dag Gamma h2d
        ("gamma", (0, 3, 0, 4)),  # only h1c^dag Gamma h2d
    ])
    def test_each_block_is_read(self, part, dims):
        """Random bases of dims (h1d, h1c, h2c, h2d) with one of Omega1,
        Omega2 and Gamma nonzero: one forbidden block carries the norm."""
        rng = np.random.default_rng(1)
        a, b, c, e = dims
        blocks = {"omega1": np.zeros((a + b, a + b)),
                  "omega2": np.zeros((c + e, c + e)),
                  "gamma": np.zeros((a + b, c + e))}
        m = rng.standard_normal(blocks[part].shape)
        blocks[part] = m if part == "gamma" else m + m.T
        sys = BlockSystem(blocks["omega1"], blocks["omega2"], blocks["gamma"],
                          TOL)
        u1, u2 = random_unitary(rng, a + b), random_unitary(rng, c + e)
        dec = dataclasses.replace(
            decompose(sys), h1d=SubspaceBasis(u1[:, :a]),
            h1c=SubspaceBasis(u1[:, a:]), h2c=SubspaceBasis(u2[:, :c]),
            h2d=SubspaceBasis(u2[:, c:]))
        assert verify_block_form(sys, dec) > 0.1
        assert_block_form_matches_conjugation(sys, dec)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(real_systems(), complex_systems()))
    def test_matches_conjugation_property(self, sys):
        assert_block_form_matches_conjugation(sys, decompose(sys))

    def test_matches_conjugation_on_acceptance_systems(self):
        # the 200 random systems of tests/test_acceptance.py
        rng = np.random.default_rng(20240815)
        for i in range(200):
            d1, d2 = int(rng.integers(1, 13)), int(rng.integers(1, 21))
            rank = int(rng.integers(0, min(d1, d2) + 1))
            sys = random_system(d1, d2, rank, seed=1000 + i)
            assert_block_form_matches_conjugation(sys, decompose(sys))

    @pytest.mark.parametrize("box,cube", [(6, 2), (8, 3), (10, 3)])
    def test_matches_conjugation_on_lattice(self, box, cube):
        sys = build_lattice_system(LatticeSpec.centered(box, cube, 3, TOL))
        assert_block_form_matches_conjugation(sys, decompose(sys))


class TestMultiplicity:
    def test_identity(self):
        assert multiplicity(np.eye(5)) == 5

    def test_forced_by_spectrum(self):
        assert multiplicity(np.diag([1.0, 1.0, 2.0])) == 2

    def test_generic_spectrum_is_simple(self):
        rng = np.random.default_rng(44)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = (g + g.conj().T) / 2
        w = np.sort(np.linalg.eigvalsh(a))
        assert np.min(np.diff(w)) > 1e-8 * max(1.0, np.max(np.abs(w)))
        assert multiplicity(a) == 1

    def test_empty(self):
        assert multiplicity(np.zeros((0, 0))) == 0

    def test_cluster_tolerance_merges(self):
        a = np.diag([0.0, 1e-12, 1.0])
        assert multiplicity(a, tol=1e-8) == 2
        assert multiplicity(a, tol=1e-14) == 1


class TestTheorem:
    def test_zero_coupling_vacuous(self):
        report = verify_theorem(random_system(2, 3, 0, seed=6))
        assert report.dims["h1c"] == report.dims["h2c"] == 0
        assert report.bound == 0
        assert report.bound_satisfied
        assert report.reconstructible_core
        assert report.max_distance < 1e-12

    def test_random_system(self):
        report = verify_theorem(random_system(5, 8, 2, seed=42))
        assert report.max_distance <= 1e-9
        assert report.multiplicity_omega_c <= report.bound <= 4
        assert report.reconstructible_core

    def test_system_with_decoupled_parts(self):
        report = assert_matches_nested_route(coupled_plus_decoupled())
        assert report.dims["h1d"] == 2 and report.dims["h2d"] == 2
        assert report.max_distance <= 1e-9
        assert report.bound_satisfied
        assert report.reconstructible_core

    def test_h2c_rotated_toward_h2d_fails(self):
        sys = coupled_plus_decoupled()
        dec = decompose(sys)
        h2c = dec.h2c.matrix.copy()
        h2c[:, 0] = np.cos(1e-6) * h2c[:, 0] + np.sin(1e-6) * dec.h2d.matrix[:, 0]
        report = assert_matches_embedded_route(sys, _with_h2c(dec, h2c))
        assert not report.passed()
        assert report.max_distance >= 1e-7

    def test_h2d_column_in_h2c_fails(self):
        sys = coupled_plus_decoupled()
        dec = decompose(sys)
        h2c = np.hstack([dec.h2c.matrix, dec.h2d.matrix[:, :1]])
        report = assert_matches_embedded_route(sys, _with_h2c(dec, h2c))
        assert not report.reconstructible_core
        assert not report.passed()

    @settings(max_examples=25, deadline=None)
    @given(complex_systems())
    def test_orbit_equalities_property(self, sys):
        report = assert_matches_nested_route(sys)
        assert report.max_distance <= 1e-8
        assert report.bound_satisfied


class TestEmbeddedRoute:
    """The complement products in the eigenbasis give the distances of
    the embedded route, with the same names in the same order."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(real_systems(), complex_systems()))
    def test_systems(self, sys):
        assert_matches_embedded_routes(sys)

    @pytest.mark.parametrize("box,cube", [(6, 2), (8, 3), (10, 3)])
    def test_lattices(self, box, cube):
        sys = build_lattice_system(LatticeSpec.centered(box, cube, 3, TOL))
        assert assert_matches_embedded_routes(sys).passed()


@pytest.mark.parametrize("make", [
    lambda: random_system(12, 20, 3, seed=7),
    lambda: build_lattice_system(LatticeSpec.centered(6, 2, 3, TOL)),
], ids=["random-12-20-rank3", "lattice-box6-cube2"])
def test_verify_theorem_forms_no_orbit(make, monkeypatch):
    """verify_theorem takes every distance in the eigenbasis of Omega: it
    forms no orbit in n-space and calls no projector_distance."""
    sys = make()
    dec = decompose(sys)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_theorem formed an orbit or a "
                             "projector distance")
    monkeypatch.setattr(Spectrum, "orbit", refuse)
    monkeypatch.setattr("opensys.subspaces.projector_distance", refuse)
    monkeypatch.setattr("opensys.decomposition.projector_distance", refuse,
                        raising=False)
    report = verify_theorem(sys, dec)
    monkeypatch.undo()
    assert report.passed()
    assert_matches_embedded_route(sys, dec)


class TestReconstructible:
    def test_zero_coupling_not_reconstructible(self):
        assert not decompose(random_system(1, 1, 0, seed=0)).reconstructible

    def test_fully_coupled_swap(self):
        sys = BlockSystem(np.array([[0.0]]), np.array([[0.0]]),
                          np.array([[1.0]]))
        assert decompose(sys).reconstructible

    def test_partially_coupled_hidden(self):
        sys = BlockSystem(np.array([[0.0]]), np.diag([1.0, 1.0]),
                          np.array([[1.0, 0.0]]))
        assert not decompose(sys).reconstructible


def _digest(a):
    a = np.ascontiguousarray(a, dtype=complex)
    return (a.shape, hashlib.sha256(a.tobytes()).hexdigest())


def _lattice_matrices_only():
    """The box 6, cube 2 lattice as a system of its three matrices alone."""
    sys = build_lattice_system(LatticeSpec.centered(6, 2, 3, TOL))
    return BlockSystem(sys.omega1, sys.omega2, sys.gamma, sys.tol)


@pytest.mark.parametrize("make, closed_form", [
    (lambda: random_system(5, 8, 2, seed=42), False),
    (lambda: build_lattice_system(LatticeSpec.centered(6, 2, 3, TOL)), True),
    (_lattice_matrices_only, False),
], ids=["random", "lattice-box6-cube2", "lattice-matrices-only"])
def test_one_eigendecomposition_per_operator(make, closed_form, monkeypatch):
    """decompose + verify_theorem factor Omega1 and Omega2 once each, and
    Omega once unless its eigenpairs come in closed form (a lattice built
    from its spec), and nothing else."""
    sys = make()
    inputs = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            inputs.append(_digest(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    dec = decompose(sys)
    assert verify_theorem(sys, dec).passed()
    monkeypatch.undo()

    operators = [sys.omega1, sys.omega2]
    if not closed_form:
        operators.append(assemble_full(sys).omega)
    expected = [_digest(check_hermitian(m, TOL)) for m in operators]
    assert len(set(expected)) == len(operators)
    assert len(inputs) == len(operators)
    assert sorted(inputs) == sorted(expected)


@pytest.mark.parametrize("make, raw", [
    (lambda: build_lattice_system(LatticeSpec.centered(6, 2, 3, TOL)), 1),
    (lambda: random_system(12, 20, 2, seed=3), 0),
    (lambda: random_system(12, 20, 0, seed=3), 2),
    (coupled_plus_decoupled, 2),
], ids=["lattice-box6-cube2", "random-rank2", "random-rank0",
        "both-decoupled"])
def test_one_householder_qr_per_decoupled_block(make, raw, monkeypatch):
    """decompose splits each block that has a decoupled part with one
    Householder QR of that part's rows, whose Q it forms from the raw
    reflectors, and a block with none with no QR; it takes no complement.
    Ran Gamma^dag is one reduced QR of Gamma^dag U_r, and every other QR
    is a rank cut's triangle.  On the centred lattice only the hidden
    block has a decoupled part."""
    sys = make()
    modes = []

    def counted(a, mode="reduced", _qr=np.linalg.qr):
        modes.append(mode)
        return _qr(a, mode=mode)

    def refuse(*args, **kwargs):
        raise AssertionError("decompose took a complement")
    monkeypatch.setattr(np.linalg, "qr", counted)
    monkeypatch.setattr(subspaces, "complement", refuse)
    dec = decompose(sys)
    monkeypatch.undo()
    assert [mode for mode in modes if mode != "r"] == ["raw"] * raw + \
        ["reduced"]
    assert raw == (dec.h1d.dim > 0) + (dec.h2d.dim > 0)


@pytest.mark.parametrize("offset", list(product((1, 3), repeat=3)))
def test_offset_lattices_match_dense_factor_route(offset):
    """The box 6, cube 2 lattice at each of its eight off-centre cubes."""
    assert_matches_dense_factor_route(
        build_lattice_system(LatticeSpec(6, 2, offset, 3, TOL)))


@pytest.mark.parametrize("box,cube", [(8, 3), (10, 3)])
def test_centred_lattices_match_dense_factor_route(box, cube):
    assert_matches_dense_factor_route(
        build_lattice_system(LatticeSpec.centered(box, cube, 3, TOL)))


@pytest.mark.parametrize("parts, rank, seed, real", [
    ((2, 3, 4, 2), 1, 1, True),
    ((3, 4, 5, 3), 2, 2, False),
    ((4, 3, 6, 5), 3, 4, False),
])
def test_planted_systems_match_dense_factor_route(parts, rank, seed, real):
    assert_matches_dense_factor_route(planted_system(*parts, rank, seed,
                                                     real)[0])


@settings(max_examples=40, deadline=None)
@given(st.one_of(real_systems(), complex_systems()))
def test_random_systems_match_dense_factor_route(sys):
    assert_matches_dense_factor_route(sys)


def test_peak_memory_below_six_n_squared():
    """decompose + verify_theorem on the centred box 10, cube 3 lattice
    (n = 1000) allocate at their peak less than 6 n^2 float64, 48 MB: the
    eigenvectors of Omega, the hidden block's and the parts, with no
    n x n factor matrix beside them."""
    sys = build_lattice_system(LatticeSpec.centered(10, 3, 3, TOL))
    n = sys.d1 + sys.d2
    tracemalloc.start()
    try:
        verify_theorem(sys, decompose(sys))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * n * 8


@pytest.mark.parametrize("box,cube", [(6, 2), (8, 3)])
def test_lattice_matches_nested_route(box, cube):
    sys = build_lattice_system(LatticeSpec.centered(box, cube, 3, TOL))
    assert assert_matches_nested_route(sys).passed()


def _field_dtypes(sys, dec):
    return {m.dtype for m in (
        sys.omega1, sys.omega2, sys.gamma, dec.h1c.matrix, dec.h2c.matrix,
        dec.h2d.matrix, dec.ran_gamma.matrix, dec.spectrum.vectors,
        *core_operators(sys, dec))}


def test_lattice_stays_real_random_stays_complex(tmp_path):
    lattice = build_lattice_system(LatticeSpec.centered(5, 2, 3, TOL))
    path = tmp_path / "lat.json"
    save_system(lattice, str(path))
    for sys in (lattice, load_system(str(path))):
        assert _field_dtypes(sys, decompose(sys)) == {np.dtype(np.float64)}
    sys = random_system(4, 7, 2, seed=3)
    assert _field_dtypes(sys, decompose(sys)) == {np.dtype(np.complex128)}


@settings(max_examples=40, deadline=None)
@given(real_systems())
def test_real_and_complex_copies_agree(sys):
    copy = BlockSystem(*(m.astype(complex) for m in
                         (sys.omega1, sys.omega2, sys.gamma)), TOL)
    assert sys.gamma.dtype == np.float64 and copy.gamma.dtype == np.complex128
    dec, dec_c = decompose(sys), decompose(copy)
    report, report_c = verify_theorem(sys, dec), verify_theorem(copy, dec_c)
    assert dec.dims == dec_c.dims
    assert report.multiplicity_omega_c == report_c.multiplicity_omega_c
    assert report.passed() == report_c.passed()
    assert projector_distance(dec.h2c, dec_c.h2c) <= 1e-10
    assert_matches_nested_route(sys, dec)


@settings(max_examples=40, deadline=None)
@given(st.one_of(real_systems(), complex_systems()), st.integers(0, 10_000))
def test_block_unitary_invariance(sys, seed):
    """U1 Omega1 U1^dag, U2 Omega2 U2^dag, U1 Gamma U2^dag has the same
    dims, core multiplicity and verdict as (Omega1, Omega2, Gamma)."""
    rng = np.random.default_rng(seed)
    u1, u2 = random_unitary(rng, sys.d1), random_unitary(rng, sys.d2)
    rotated = BlockSystem(u1 @ sys.omega1 @ u1.conj().T,
                          u2 @ sys.omega2 @ u2.conj().T,
                          u1 @ sys.gamma @ u2.conj().T, sys.tol)
    dec, dec_r = decompose(sys), decompose(rotated)
    report, report_r = verify_theorem(sys, dec), verify_theorem(rotated, dec_r)
    assert dec.dims == dec_r.dims
    assert report.multiplicity_omega_c == report_r.multiplicity_omega_c
    assert report.passed() == report_r.passed()


def assert_orbit_certificates(sys, seed):
    """||A P - P (P^dag A P)||_2 <= ORBIT_CERT_FACTOR * tol * max(1, ||A||_2)
    for the orbits of H1, H2 and a random subspace under the full Omega,
    and for their complements."""
    omega = assemble_full(sys).omega
    n, spectrum = omega.shape[0], Spectrum(omega, sys.tol)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    random_seed = np.linalg.qr(rng.standard_normal((n, k))
                               + 1j * rng.standard_normal((n, k)))[0]
    limit = ORBIT_CERT_FACTOR * sys.tol * max(1.0, np.linalg.norm(omega, 2))
    for seed_matrix in (np.eye(n, sys.d1), np.eye(n, sys.d2, -sys.d1),
                        random_seed):
        for subspace in (spectrum.orbit,
                         functools.partial(orbit_complement, spectrum)):
            p = subspace(SubspaceBasis(seed_matrix)).matrix
            ap = omega @ p
            assert np.linalg.norm(ap - p @ (p.conj().T @ ap), 2) <= limit


@settings(max_examples=40, deadline=None)
@given(st.one_of(real_systems(), complex_systems()), st.integers(0, 10_000))
def test_orbit_certificate(sys, seed):
    assert_orbit_certificates(sys, seed)


@pytest.mark.parametrize("seed", range(3))
def test_orbit_certificate_on_lattice(seed):
    sys = build_lattice_system(LatticeSpec.centered(6, 2, 3, TOL))
    assert_orbit_certificates(sys, seed)


@settings(max_examples=40, deadline=None)
@given(st.one_of(real_systems(), complex_systems()), st.floats(1.0, 1e4))
def test_scaling_invariance(sys, scale):
    """Scaling (Omega1, Omega2, Gamma) by c with c * ||Omega||_2 >= 1 keeps
    the dims, the core multiplicity and the verdict."""
    norm = np.linalg.norm(assemble_full(sys).omega, 2)
    c = scale / norm if norm > 0 else scale
    scaled = BlockSystem(c * sys.omega1, c * sys.omega2, c * sys.gamma,
                         sys.tol)
    dec, dec_s = decompose(sys), decompose(scaled)
    report, report_s = verify_theorem(sys, dec), verify_theorem(scaled, dec_s)
    assert dec.dims == dec_s.dims
    assert report.multiplicity_omega_c == report_s.multiplicity_omega_c
    assert report.passed() == report_s.passed()


def test_trajectory_stays_in_invariant_closure():
    from opensys.dynamics import ForcingSignal, make_grid, propagate_full

    sys = random_system(3, 6, 2, seed=51)
    full = assemble_full(sys)
    n = full.dim
    h1 = SubspaceBasis(np.eye(n, 3, dtype=complex))
    closure = orbit(full.omega, h1, TOL)
    p = closure.matrix @ closure.matrix.conj().T

    rng = np.random.default_rng(0)
    v1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v0 = np.concatenate([v1, np.zeros(6)]) / np.linalg.norm(v1)
    traj = propagate_full(full, v0, ForcingSignal.zero(), make_grid(10.0, 500))
    leak = np.linalg.norm(traj.states - traj.states @ p.T, axis=1)
    assert np.max(leak) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.one_of(real_systems(), complex_systems()))
def test_coupling_range_matches_symmetrized_coupling(sys):
    """Ran Gamma (+) Ran Gamma^dag from the two d1 x d2 cuts decompose
    keeps is the cut of the n x n [[0, Gamma], [Gamma^dag, 0]]."""
    d1, d2 = sys.d1, sys.d2
    dec = decompose(sys)
    direct = direct_sum(embed_observable(dec.ran_gamma, d2),
                        embed_hidden(dec.ran_gamma_dag, d1))
    oracle = orthonormalize(decoupled_parts(sys)[1], sys.tol)
    assert direct.dim == oracle.dim
    assert projector_distance(direct, oracle) <= 1e-12


def near_threshold_coupling(seed, real, d1=4, d2=6):
    """A system whose Gamma has singular values 1 and tol * (1 + u), with
    |u| <= 1e-8: its second singular value lies on the rank threshold."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = rng.standard_normal(shape)
        return a if real else a + 1j * rng.standard_normal(shape)

    def herm(d):
        a = draw(d, d)
        return (a + a.conj().T) / 2

    s = np.zeros((d1, d2))
    s[0, 0], s[1, 1] = 1.0, TOL * (1 + rng.uniform(-1e-8, 1e-8))
    u1, u2 = np.linalg.qr(draw(d1, d1))[0], np.linalg.qr(draw(d2, d2))[0]
    return BlockSystem(herm(d1), herm(d2), u1 @ s @ u2.conj().T, TOL)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_gamma_rank_decided_once(real):
    """Ran Gamma and Ran Gamma^dag have one dimension even when a singular
    value of Gamma lies on the threshold, where two separate cuts of
    Gamma and Gamma^dag disagree in about two draws of five."""
    for seed in range(20):
        dec = decompose(near_threshold_coupling(seed, real))
        assert dec.ran_gamma.dim == dec.ran_gamma_dag.dim, seed


def near_tie_system(gap, tol, seed=0, d1=3, d2=4):
    """A fully coupled system W diag(w) W^dag, W a random unitary, whose
    two lowest eigenvalues -1 and -1 + gap nearly tie; the rest are 0.5
    apart."""
    w = np.arange(d1 + d2) * 0.5 - 1.0
    w[1] = w[0] + gap
    u = random_unitary(np.random.default_rng(seed), d1 + d2)
    omega = (u * w) @ u.conj().T
    return BlockSystem(omega[:d1, :d1], omega[d1:, d1:], omega[:d1, d1:], tol)


@pytest.mark.parametrize("gap, tol, expected", [
    (1e-9, 1e-10, 1),  # two clusters at tol: two simple eigenvalues
    (1e-7, 1e-6, 2),   # one cluster at tol: one double eigenvalue
    (0.0, 1e-10, 2),
    (0.0, 1e-6, 2),
])
def test_near_tie_multiplicity_follows_tol(gap, tol, expected):
    """The core's multiplicity is read off the clusters the split is cut
    in, at the system's tol; a fully coupled core has every eigenvalue,
    so it is the largest cluster of Omega."""
    sys = near_tie_system(gap, tol)
    dec = decompose(sys)
    report = verify_theorem(sys, dec)
    assert dec.reconstructible
    assert report.multiplicity_omega_c == expected
    assert report.multiplicity_omega_c == max(dec.spectrum.sizes)
    assert report.passed()
    assert_matches_nested_route(sys, dec)


@pytest.mark.parametrize("make", [
    lambda: random_system(12, 20, 3, seed=7),
    lambda: build_lattice_system(LatticeSpec.centered(6, 2, 3, TOL)),
], ids=["random-12-20-rank3", "lattice-box6-cube2"])
def test_verify_theorem_cuts_no_gamma(make, monkeypatch):
    """verify_theorem reuses decompose's cuts of Gamma and Gamma^dag: it
    makes no rank cut of a d1 x d2 or d2 x d1 matrix."""
    sys = make()
    dec = decompose(sys)
    shapes = []

    def recorded(m, tol, _cut=subspaces._range_basis):
        shapes.append(np.shape(m)[-2:])
        return _cut(m, tol)
    monkeypatch.setattr(subspaces, "_range_basis", recorded)
    report = verify_theorem(sys, dec)
    monkeypatch.undo()

    assert shapes  # the closures' cluster cuts still run
    assert not {(sys.d1, sys.d2), (sys.d2, sys.d1)} & set(shapes)
    assert report.bound == min(2 * numeric_rank(sys.gamma, sys.tol),
                               dec.h1c.dim, dec.h2c.dim)


def test_verify_theorem_norms_only_against_the_core(monkeypatch):
    """Only the three distances against the core take a dense spectral
    norm, each of a product with the core's dimension on one side; the
    closures are compared with each other cluster by cluster."""
    sys = build_lattice_system(LatticeSpec.centered(6, 2, 3, TOL))
    dec = decompose(sys)
    shapes = []

    def recorded(m, _norm=subspaces._spectral_norm):
        shapes.append(m.shape)
        return _norm(m)
    monkeypatch.setattr(subspaces, "_spectral_norm", recorded)
    assert verify_theorem(sys, dec).passed()
    monkeypatch.undo()

    core = dec.h1c.dim + dec.h2c.dim
    assert len(shapes) == 3
    assert all(core in shape for shape in shapes)


def test_leak_failure_names_stage_and_limit():
    decoupled = SubspaceBasis(np.array([[1.0], [-1.0]]) / np.sqrt(2))
    with pytest.raises(DecompositionError) as info:
        _split_block(decoupled, slice(1, 2), slice(0, 1), TOL,
                     "H2c from closure(H1)")
    message = str(info.value)
    assert message.startswith("H2c from closure(H1): ")
    assert "leak onto the other block = 7.071e-01" in message
    assert "limit 1.000e-08" in message
    assert info.value.stage == "H2c from closure(H1)"
    assert info.value.value == pytest.approx(np.sqrt(0.5))


def test_rank_proof_failure_names_condition():
    """Thirty columns each leaking 0.099, under the column limit 100 * tol
    = 0.1, have ||leak||_F = 0.54: the full-rank proof needs < 1/2."""
    tol, d, leak = 1e-3, 30, 0.099
    decoupled = SubspaceBasis(np.vstack([np.sqrt(1 - leak ** 2) * np.eye(d),
                                         leak * np.eye(d)]))
    with pytest.raises(DecompositionError) as info:
        _split_block(decoupled, slice(0, d), slice(d, 2 * d), tol,
                     "H1c from closure(H2)")
    message = str(info.value)
    assert message.startswith("H1c from closure(H2): ||leak||_F")
    assert f"= {leak * np.sqrt(d):.3e}" in message
    assert "limit 5.000e-01" in message
