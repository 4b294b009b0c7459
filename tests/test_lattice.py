import functools
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from opensys.lattice import (
    Fold,
    LatticeSpec,
    build_lattice_system,
    multiplicity_bound,
    observable_eigenpairs,
    omega_eigenpairs,
    surface_count,
    verify_example,
)
from opensys.decomposition import decompose, verify_block_form, verify_theorem
from opensys.subspaces import Spectrum, numeric_rank
from opensys.systems import BlockSystem, assemble_full


def _sites(spec: LatticeSpec) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    axes = [range(spec.box)] * spec.dims
    all_sites = list(itertools.product(*axes))
    cube = {
        s for s in all_sites
        if all(spec.offset[j] <= s[j] < spec.offset[j] + spec.cube
               for j in range(spec.dims))
    }
    return all_sites, cube


def _neighbors(site: tuple[int, ...], dims: int):
    for j in range(dims):
        for step in (-1, 1):
            yield tuple(site[k] + (step if k == j else 0) for k in range(dims))


def site_loop_operator(spec: LatticeSpec) -> np.ndarray:
    """The full box Laplacian built site by site through a dict of indices:
    an oracle for the index arithmetic of :func:`build_lattice_system`."""
    all_sites, cube = _sites(spec)
    ordered = sorted(cube) + sorted(s for s in all_sites if s not in cube)
    index = {s: i for i, s in enumerate(ordered)}
    n = len(ordered)
    omega = np.zeros((n, n))
    for s, i in index.items():
        omega[i, i] = -2.0 * spec.dims
        for nb in _neighbors(s, spec.dims):
            j = index.get(nb)
            if j is not None:
                omega[i, j] += 1.0
    return omega


def count_contact_sites(spec: LatticeSpec) -> int:
    """Cube sites with at least one neighbor outside the cube (in the box)."""
    _, cube = _sites(spec)
    return sum(
        any(nb not in cube and all(0 <= c < spec.box for c in nb)
            for nb in _neighbors(s, spec.dims))
        for s in cube)


class TestFormulas:
    @pytest.mark.parametrize("n,expected", [(2, 8), (3, 26), (4, 56)])
    def test_surface_count_3d(self, n, expected):
        assert surface_count(n) == expected
        assert surface_count(n) == n ** 3 - (n - 2) ** 3

    @pytest.mark.parametrize("n,expected", [(2, 16), (3, 52)])
    def test_multiplicity_bound_3d(self, n, expected):
        assert multiplicity_bound(n) == expected
        assert multiplicity_bound(n) == 2 * surface_count(n)

    def test_single_site_special_case(self):
        assert surface_count(1) == 1

    def test_one_dimensional_analogue(self):
        assert surface_count(2, dims=1) == 2
        assert surface_count(5, dims=1) == 2

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            surface_count(0)


class TestSpec:
    def test_cube_must_fit(self):
        with pytest.raises(ValueError):
            LatticeSpec(box=3, cube=4, offset=(0, 0, 0))
        with pytest.raises(ValueError):
            LatticeSpec(box=4, cube=2, offset=(3, 0, 0))

    def test_interiority(self):
        assert LatticeSpec(box=4, cube=2, offset=(1, 1, 1)).interior
        assert not LatticeSpec(box=4, cube=2, offset=(0, 1, 1)).interior

    def test_centered(self):
        spec = LatticeSpec.centered(6, 2)
        assert spec.offset == (2, 2, 2)
        assert spec.interior

    def test_offset_is_not_truncated(self):
        with pytest.raises(TypeError):
            LatticeSpec(box=6, cube=2, offset=(1.5, 2, 2))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            LatticeSpec.centered(6, 2, tol=tol)


class TestBuilder:
    def test_1d_three_site_stencil(self):
        sys = build_lattice_system(LatticeSpec(box=3, cube=1, offset=(1,), dims=1))
        assert np.array_equal(sys.omega1.real, [[-2.0]])
        assert np.array_equal(sys.gamma.real, [[1.0, 1.0]])
        assert np.array_equal(sys.omega2.real, [[-2.0, 0.0], [0.0, -2.0]])

    def test_operator_exactly_symmetric_integer(self):
        sys = build_lattice_system(LatticeSpec.centered(5, 2))
        from opensys.systems import assemble_full
        omega = assemble_full(sys).omega
        assert np.array_equal(omega, omega.T)
        assert np.array_equal(omega.real, np.round(omega.real))
        assert np.all(omega.imag == 0.0)

    def test_n2_coupling_rank_is_surface_count(self):
        sys = build_lattice_system(LatticeSpec.centered(4, 2))
        assert numeric_rank(sys.gamma, sys.tol) == 8

    def test_n3_contact_site_count(self):
        spec = LatticeSpec.centered(5, 3)
        assert count_contact_sites(spec) == 26

    def test_gamma_links_only_nearest_exterior(self):
        spec = LatticeSpec.centered(5, 3)
        sys = build_lattice_system(spec)
        cube_sites = sorted(
            s for s in itertools.product(range(5), repeat=3)
            if all(spec.offset[j] <= s[j] < spec.offset[j] + 3 for j in range(3))
        )
        ext_sites = sorted(
            s for s in itertools.product(range(5), repeat=3)
            if s not in set(cube_sites)
        )
        rows, cols = np.nonzero(sys.gamma.real)
        for i, j in zip(rows, cols):
            dist = sum(abs(a - b) for a, b in zip(cube_sites[i], ext_sites[j]))
            assert dist == 1

    @pytest.mark.parametrize("spec", [
        LatticeSpec(box=9, cube=3, offset=(3,), dims=1),
        LatticeSpec(box=7, cube=3, offset=(1, 3), dims=2),
        LatticeSpec(box=24, cube=6, offset=(9, 9), dims=2),
        LatticeSpec(box=6, cube=2, offset=(1, 3, 1), dims=3),
        LatticeSpec.centered(10, 3, dims=3),
    ], ids=["1d-box9-cube3", "2d-box7-cube3-at-1-3", "2d-box24-cube6-at-9-9",
            "3d-box6-cube2-at-1-3-1", "3d-box10-cube3"])
    def test_matches_site_loop(self, spec):
        sys = build_lattice_system(spec)
        assert sys.d1 == spec.cube ** spec.dims
        assert np.array_equal(assemble_full(sys).omega, site_loop_operator(spec))

    def test_gamma_rows_nonzero_only_on_surface(self):
        # N=3: exactly one interior site, whose gamma row must vanish
        spec = LatticeSpec.centered(5, 3)
        sys = build_lattice_system(spec)
        nonzero_rows = np.sum(np.any(sys.gamma != 0, axis=1))
        assert nonzero_rows == surface_count(3)


def exact_classes(box: int, gap: float = 1e-9, dims: int = 3):
    """The box Laplacian's eigenvalues -2 dims + sum_j 2 cos(pi k_j /
    (box + 1)), k_j = 1..box, in closed form and sorted, and the sizes
    of their classes: runs whose consecutive differences are <= ``gap``.
    Exactly equal values differ by roundoff only; the caller checks that
    distinct ones differ by far more than ``gap``."""
    c = 2 * np.cos(np.pi * np.arange(1, box + 1) / (box + 1))
    values = np.sort(functools.reduce(np.add.outer, [c] * dims).ravel()
                     - 2.0 * dims)
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > gap)
    return values, np.diff(starts, append=len(values))


@pytest.mark.parametrize("box", range(3, 11))
def test_spectrum_clusters_are_exact_classes(box):
    """On centered 3-d boxes the clusters of Spectrum at tol, the one
    cluster rule of the split and the multiplicity, are the classes of
    exactly equal eigenvalues."""
    values, sizes = exact_classes(box)
    gaps = np.diff(values)
    assert np.min(gaps[gaps > 1e-9]) >= 1e3 * 1e-9  # unambiguous classes
    sys = build_lattice_system(LatticeSpec.centered(box, 1, 3))
    spectrum = Spectrum(assemble_full(sys).omega, sys.tol)
    assert np.array_equal(spectrum.sizes, sizes)
    assert np.max(np.abs(spectrum.values - values)) <= 1e-12


def _placements(box: int, dims: int) -> list[LatticeSpec]:
    """A centred cube and one in a corner of the box, off-centre on every
    axis but the last, where it touches the far face."""
    cube = max(1, box // 3)
    return [LatticeSpec.centered(box, cube, dims),
            LatticeSpec(box, cube, (0,) * (dims - 1) + (box - cube,), dims)]


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("box", range(3, 11))
def test_closed_form_eigenpairs_against_eigh(box, dims):
    """A lattice system's eigenpairs of Omega, in closed form, are
    eigenpairs of the matrix it holds: the values those of eigh, sorted;
    the vectors orthonormal, in its site order; their clusters at tol the
    classes of exactly equal values."""
    _, sizes = exact_classes(box, dims=dims)
    for spec in _placements(box, dims):
        sys = build_lattice_system(spec)
        omega = assemble_full(sys).omega
        values, vectors = sys.eigenpairs()
        n = box ** dims
        assert values.shape == (n,) and vectors.shape == (n, n)
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(values - np.linalg.eigvalsh(omega))) <= 1e-12
        assert np.linalg.norm(omega @ vectors - vectors * values) <= 1e-12
        assert np.linalg.norm(vectors.T @ vectors - np.eye(n)) <= 1e-12
        spectrum = Spectrum(None, sys.tol, eigenpairs=(values, vectors))
        assert np.array_equal(spectrum.sizes, sizes)


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("box", range(3, 11))
def test_observable_rows_are_the_closed_form_rows(box, dims):
    """The cube's rows of the eigenvectors, built alone, are the first d1
    rows of the n x n closed form bit for bit, with the same eigenvalues;
    so are a system's, for a spec-built lattice and for one of the same
    matrices alone, whose rows are those of its eigh."""
    for spec in _placements(box, dims):
        values, vectors = omega_eigenpairs(spec)
        d1 = spec.cube ** dims
        sys = build_lattice_system(spec)
        for got_values, rows, _ in (observable_eigenpairs(spec),
                                    sys.observable_eigenpairs()):
            assert np.array_equal(got_values, values)
            assert np.array_equal(rows, vectors[:d1])
        dense = BlockSystem(sys.omega1, sys.omega2, sys.gamma, sys.tol)
        dense_values, dense_vectors = dense.eigenpairs()
        got_values, rows, sectors = dense.observable_eigenpairs()
        assert np.array_equal(got_values, dense_values)
        assert np.array_equal(rows, dense_vectors[:d1])
        assert np.array_equal(sectors, np.zeros(box ** dims, int))


@pytest.mark.parametrize("spec", [
    *(LatticeSpec.centered(box, cube, dims) for dims in (1, 2, 3)
      for box, cube in ((4, 2), (5, 1), (6, 2), (7, 3))),
    LatticeSpec(7, 3, (2, 1, 2)), LatticeSpec(8, 2, (3, 1, 2)),
    LatticeSpec(6, 2, (1, 3, 1))],
    ids=lambda s: f"{s.dims}d-box{s.box}-cube{s.cube}-at"
                  + "".join(map(str, s.offset)))
def test_eigenvector_sectors_hold_the_eigenvectors(spec):
    """The sector that observable_eigenpairs gives each eigenvector holds
    all of it: folded by the reflections of the centred axes, its cube
    rows and its other rows have no part in any other sector, to 1e-13."""
    _, vectors = omega_eigenpairs(spec)
    _, rows, sectors = observable_eigenpairs(spec)
    d1 = spec.cube ** spec.dims
    assert np.array_equal(rows, vectors[:d1])
    for cube, part in ((True, vectors[:d1]), (False, vectors[d1:])):
        fold = Fold.of(spec, cube, len(part))
        coords = fold.coordinates(part)  # (sectors, R, n)
        outside = np.arange(len(coords))[:, None, None] != sectors
        assert np.max(np.abs(coords * outside)) <= 1e-13


def test_observable_rows_need_no_square_matrix():
    """At 3-d box 40 (n = 64000, where an n x n float64 matrix takes
    32.8 GB) the cube's rows build in well under a second and peak below
    three times their own size; they are orthonormal."""
    spec = LatticeSpec.centered(40, 4)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        values, rows, _ = observable_eigenpairs(spec)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (64, 64000) and values.shape == (64000,)
    assert elapsed < 1.0
    assert peak < 3 * rows.nbytes
    assert np.all(np.diff(values) >= 0)
    assert np.linalg.norm(rows @ rows.T - np.eye(64)) <= 1e-12


@pytest.mark.parametrize("spec", [
    *(LatticeSpec(6, 2, offset) for offset in
      itertools.product((1, 3), repeat=3)),
    LatticeSpec.centered(8, 3),
    LatticeSpec.centered(10, 3),
], ids=lambda spec: f"box{spec.box}-cube{spec.cube}-"
                    f"{'.'.join(map(str, spec.offset))}")
def test_closed_form_verdicts_match_matrices_only(spec):
    """decompose and verify_theorem on the spec-built system, which takes
    Omega's eigenpairs in closed form, give the dims, multiplicity, bound
    and verdict of a system of the same three matrices alone, which
    factors Omega by eigh."""
    sys = build_lattice_system(spec)
    verdicts = []
    for system in (sys, BlockSystem(sys.omega1, sys.omega2, sys.gamma,
                                    sys.tol)):
        dec = decompose(system)
        report = verify_theorem(system, dec)
        verdicts.append((dec.dims, report.multiplicity_omega_c,
                         report.bound, report.passed()))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][3]


class TestVerifyExample:
    def test_1d_pipeline(self):
        rep = verify_example(LatticeSpec(box=8, cube=2, offset=(3,), dims=1))
        assert rep.rank_gamma == 2
        assert rep.multiplicity_omega_c <= 4
        assert rep.theorem.max_distance < 1e-8

    def test_3d_small(self):
        rep = verify_example(LatticeSpec.centered(4, 2))
        assert rep.rank_within_surface
        assert rep.bound_satisfied
        assert rep.theorem.max_distance < 1e-8

    def test_requires_interior_cube(self):
        with pytest.raises(ValueError):
            verify_example(LatticeSpec(box=4, cube=2, offset=(0, 1, 1)))

    def test_bound_stable_in_box_size_1d(self):
        mults = []
        for box in (6, 8, 10, 12):
            rep = verify_example(LatticeSpec.centered(box, 2, dims=1))
            assert rep.multiplicity_omega_c <= multiplicity_bound(2, dims=1)
            mults.append(rep.multiplicity_omega_c)
        assert max(mults) <= 4

    @pytest.mark.parametrize("spec", [
        LatticeSpec.centered(6, 2, dims=3),
        LatticeSpec(box=9, cube=3, offset=(2, 4), dims=2),
    ], ids=["3d-box6-cube2", "2d-box9-cube3-at-2-4"])
    def test_rank_gamma_is_numeric_rank(self, spec):
        sys = build_lattice_system(spec)
        assert verify_example(spec).rank_gamma == numeric_rank(sys.gamma, spec.tol)

    def test_report_serializes(self):
        rep = verify_example(LatticeSpec.centered(6, 2, dims=2))
        data = rep.to_dict()
        assert data["surface_count"] == surface_count(2, dims=2)
        assert data["subspace_dims"]["h1c"] >= 1


class TestLargeTwoDimensional:
    """2-d lattices on which a column-by-column Gram-Schmidt complement
    made the wrong rank cut (ContainmentError: 438 != 436 and 530 != 526),
    and one whose projector distances it pushed to 1."""

    @pytest.mark.parametrize("spec", [
        LatticeSpec.centered(22, 6, dims=2),
        LatticeSpec(box=24, cube=6, offset=(9, 9), dims=2),
    ], ids=["box22-cube6", "box24-cube6-at-9-9"])
    def test_decomposes_to_block_form(self, spec):
        sys = build_lattice_system(spec)
        dec = decompose(sys)
        assert dec.dims["h1d"] + dec.dims["h1c"] == sys.d1
        assert dec.dims["h2c"] + dec.dims["h2d"] == sys.d2
        omega_norm = np.linalg.norm(assemble_full(sys).omega, 2)
        assert verify_block_form(sys, dec) <= 1e-10 * omega_norm

    def test_theorem_passes_off_centre(self):
        sys = build_lattice_system(LatticeSpec(box=20, cube=5, offset=(8, 8),
                                               dims=2))
        assert verify_theorem(sys).passed()
