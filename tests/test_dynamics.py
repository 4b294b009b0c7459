import csv
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from opensys import dynamics
from opensys.decomposition import decompose
from opensys.dynamics import (
    HIDDEN,
    OBSERVABLE,
    ForcingSignal,
    NoGainResult,
    ResponseKernel,
    Trajectory,
    _block_length,
    _bump_profile,
    _exact_states,
    kernel_to_csv,
    make_grid,
    make_kernel,
    no_gain_check,
    propagate_full,
    propagate_reduced,
    reduction_discrepancy,
    trajectory_to_csv,
)
from opensys.lattice import (
    Fold,
    LatticeSpec,
    build_lattice_system,
    sector_modes,
)
from opensys.subspaces import DimensionMismatchError
from opensys.systems import BlockSystem, assemble_full, random_system
from test_acceptance import REDUCTION_SUP_TOL


def swap_system():
    """The 2x2 closed-form case: full propagation gives v1(t) = cos(t)."""
    return BlockSystem(np.array([[0.0]]), np.array([[0.0]]), np.array([[1.0]]))


@pytest.fixture(scope="module")
def lattice():
    return build_lattice_system(LatticeSpec.centered(6, 2, dims=3))


def _relative_gap(new, reference):
    return np.max(np.abs(new - reference)) / np.max(np.abs(reference))


# --- Reference routes: the same discretisations, summed directly ---

def _dense_full(omega, v0, forcing, times):
    """Exact propagation through one (nt, n) phase table, with no factoring
    over the grid, and the cumulative trapezoid of the Duhamel integrand."""
    h = times[1] - times[0]
    w, u = np.linalg.eigh(omega)
    rel = times - times[0]
    coeff0 = u.conj().T @ v0
    phases = np.exp(-1j * np.outer(rel, w))
    coeff = phases * coeff0
    if forcing.samples is not None:
        g = np.exp(1j * np.outer(rel, w)) * (forcing.samples @ u.conj())
        cumulative = np.zeros_like(g)
        cumulative[1:] = np.cumsum((g[1:] + g[:-1]) * (h / 2), axis=0)
        coeff = phases * (coeff0 + cumulative)
    return coeff @ u.T


def _quadratic_reduced(sys, v1_0, f1, times):
    """Reduced propagation that re-sums the whole memory history each step."""
    d1 = sys.d1
    times = np.asarray(times, dtype=float)
    h = times[1] - times[0]
    nt = len(times)
    f = f1.sampled(nt, d1)
    k = make_kernel(sys, OBSERVABLE).on_grid(times - times[0])
    k0 = k[0]
    lu = lu_factor(np.eye(d1, dtype=complex) + (h / 2) * 1j * sys.omega1
                   + (h * h / 4) * k0)
    states = np.zeros((nt, d1), dtype=complex)
    states[0] = v1_0
    for n in range(nt - 1):
        vn = states[n]
        if n == 0:
            conv_n = np.zeros(d1, dtype=complex)
        else:
            conv_n = h * (0.5 * (k0 @ vn)
                          + np.einsum("jab,jb->a", k[1:n], states[n - 1:0:-1])
                          + 0.5 * (k[n] @ states[0]))
        rhs_n = -1j * (sys.omega1 @ vn) - conv_n + f[n]
        conv_next = h * (np.einsum("jab,jb->a", k[1:n + 1], states[n:0:-1])
                         + 0.5 * (k[n + 1] @ states[0]))
        rhs = vn + (h / 2) * (rhs_n + f[n + 1] - conv_next)
        states[n + 1] = lu_solve(lu, rhs)
    return states


def _unfolded_reduced(sys, v1_0, f1, times, kernel):
    """The block recurrence of propagate_reduced run on the whole cube in
    site coordinates, with the block length _block_length(d1, d2), the
    powers [I 0] T^(j+1) built one step at a time from the last and the
    states of a short last block taken from the leading rows: an oracle,
    summed in another order, for systems of one sector."""
    d1, h, nt = sys.d1, times[1] - times[0], len(times)
    modes = kernel.coupling_modes
    modes_dag = modes.conj().T.astype(complex)
    d2 = len(kernel.eigvals)
    block = _block_length(d1, d2)
    powers = np.exp(-1j * h * np.outer(np.arange(block + 1), kernel.eigvals))
    k0 = modes @ modes_dag
    eye = np.eye(d1, dtype=complex)
    lu = lu_factor(eye + (h / 2) * 1j * sys.omega1 + (h * h / 4) * k0)
    step = lu_solve(lu, np.hstack([
        eye - (h / 2) * 1j * sys.omega1 + (h * h / 4) * k0,
        (-h * h / 2) * modes * (1 + powers[1])]))
    inject = np.vstack([eye, modes_dag])
    prop = np.empty((block, d1, d1 + d2), dtype=complex)
    diagonals = np.empty((block, d1, d1), dtype=complex)
    top = np.eye(d1, d1 + d2, dtype=complex)
    for j in range(block):
        diagonals[j] = top @ inject
        prop[j] = diagonals[j] @ step
        prop[j, :, d1:] += top[:, d1:] * powers[1]
        top = prop[j]
    prop = prop.reshape(block * d1, d1 + d2)
    starts = range(0, nt - 1, block)
    forced = np.zeros((len(starts), block * d1), dtype=complex)
    if f1.samples is not None:
        f = f1.sampled(nt, d1)
        c = np.zeros((len(starts) * block, d1), dtype=complex)
        c[:nt - 1] = lu_solve(lu, (h / 2) * (f[:-1] + f[1:]).T).T
        c = c.reshape(len(starts), block, d1)
        forced = np.zeros_like(c)
        for m in range(block):
            forced[:, m:] += c[:, :block - m] @ diagonals[m].T
        forced = forced.reshape(len(starts), block * d1)
    hist_out = (powers[block - 1::-1].T[:, :, None]
                * modes_dag[:, None, :]).reshape(d2, block * d1)
    states = np.empty((nt, d1), dtype=complex)
    states[0] = v1_0
    state = np.concatenate([v1_0, 0.5 * (modes_dag @ v1_0)])
    for b, start in enumerate(starts):
        n = min(block, nt - 1 - start)
        x = prop[:n * d1] @ state + forced[b, :n * d1]
        states[start + 1:start + 1 + n] = x.reshape(n, d1)
        state[:d1] = x[-d1:]
        state[d1:] = (powers[n] * state[d1:]
                      + hist_out[:, (block - n) * d1:] @ x)
    return states


def _trial_draws(times, dim, trials, seed):
    """The (lo, hi, u) of each no-gain trial, drawn as ``no_gain_check`` does."""
    span = times[-1] - times[0]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        lo, hi = np.sort(rng.uniform(times[0], times[-1], size=2))
        if hi - lo < span / 4:
            mid = (lo + hi) / 2
            lo, hi = mid - span / 8, mid + span / 8
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        yield lo, hi, u / np.linalg.norm(u)


def _shifted(signal):
    """Stack s[i, j] = signal[i - j] with zero for negative indices."""
    nt, d = signal.shape
    out = np.zeros((nt, nt, d), dtype=complex)
    for j in range(nt):
        out[j:, j] = signal[: nt - j]
    return out


def _stacked_no_gain(kernel, trials, times, seed):
    """No-gain values through the (nt, nt, d) shifted-signal stack, by the
    trapezoid over the triangle tau <= t: the square rule's weights with
    the diagonal tau = t halved."""
    h = times[1] - times[0]
    k = kernel.on_grid(times - times[0])
    weights = np.full(len(times), h)
    weights[0] = weights[-1] = h / 2
    triangle = np.outer(weights, weights)
    triangle[np.diag_indices_from(triangle)] /= 2
    values = []
    for lo, hi, u in _trial_draws(times, kernel.dim, trials, seed):
        signal = _bump_profile(times, lo, hi)[:, None] * u
        kv = np.einsum("jab,ijb->ija", k, _shifted(signal))
        g = np.real(np.einsum("ia,ija->ij", signal.conj(), kv))
        values.append(float(np.sum(triangle * g)))
    return np.array(values)


class TestKernel:
    def test_value_at_zero_is_gamma_gamma_dag(self):
        sys = random_system(3, 5, 2, seed=5)
        k = make_kernel(sys, "observable")
        k0 = k.on_grid(np.array([0.0]))[0]
        assert np.linalg.norm(k0 - sys.gamma @ sys.gamma.conj().T) < 1e-12

    def test_hidden_side_at_zero(self):
        sys = random_system(3, 5, 2, seed=5)
        k = make_kernel(sys, "hidden")
        k0 = k.on_grid(np.array([0.0]))[0]
        assert np.linalg.norm(k0 - sys.gamma.conj().T @ sys.gamma) < 1e-12

    def test_scalar_kernel_analytic(self):
        sys = BlockSystem(np.array([[0.0]]), np.array([[1.0]]),
                          np.array([[1.0]]))
        k = make_kernel(sys)
        for t in (0.0, 0.5, 2.0):
            assert abs(k.on_grid(np.array([t]))[0, 0, 0]
                       - np.exp(-1j * t)) < 1e-14

    def test_zero_coupling_kernel_vanishes(self):
        sys = random_system(2, 4, 0, seed=1)
        k = make_kernel(sys)
        assert np.linalg.norm(k.on_grid(np.array([3.7]))[0]) == 0.0

    def test_time_symmetry(self):
        k = make_kernel(random_system(3, 6, 2, seed=9))
        for t in (0.3, 1.7, 5.0):
            assert np.linalg.norm(k.on_grid(np.array([t]))[0].conj().T
                                  - k.on_grid(np.array([-t]))[0]) < 1e-13

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            make_kernel(random_system(2, 2, 1, seed=0), "sideways")

    def test_stack_matches_per_time_products(self):
        """The d=27 kernel of the 3-d box 5, cube 3 lattice on 2001 times
        equals M diag(e^{-i w t}) M^dag taken one time at a time."""
        sys = build_lattice_system(LatticeSpec.centered(5, 3, dims=3))
        k = make_kernel(sys)
        times = make_grid(10.0, 2000)
        stack = k.on_grid(times)
        modes = k.coupling_modes
        loop = np.array([(modes * np.exp(-1j * k.eigvals * t)) @ modes.conj().T
                         for t in times])
        assert stack.shape == (2001, 27, 27)
        assert _relative_gap(stack, loop) <= 1e-13


def _all_mode_kernel(sys, side=OBSERVABLE):
    """The kernel on every eigenvector of Omega2 (of Omega1 on the hidden
    side) that sector_modes gives, coupled or not."""
    return ResponseKernel(*sector_modes(sys, hidden=side == HIDDEN))


def _run_on_kernel(monkeypatch, kernel):
    """Make the reduced dynamics take ``kernel`` in place of the one
    make_kernel builds for the system."""
    monkeypatch.setattr(dynamics, "make_kernel", lambda sys, side: kernel)


def _acceptance_dynamics_systems():
    """The random systems that the acceptance suite's dynamics run on: the
    20 of criterion 5, drawn as there, and the two of criterion 7."""
    rng = np.random.default_rng(7)
    cases = []
    while len(cases) < 20:
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 13 - d1))
        rank = int(rng.integers(1, min(d1, d2) + 1))
        cases.append(random_system(d1, d2, rank, seed=int(rng.integers(1e6))))
    return cases + [random_system(3, 6, 2, seed=61),
                    random_system(2, 8, 1, seed=62)]


@pytest.mark.parametrize("offset", [(2, 2, 2), (1, 3, 1)],
                         ids=["centred", "offset-1.3.1"])
class TestCoupledModes:
    """make_kernel keeps a mode when its coupling column Gamma u_m is above
    theta = tol * max(1, max_m ||Gamma u_m||)."""

    def test_lattice_keeps_h2c_modes(self, offset):
        """On the box 6, cube 2 lattice the kept modes number dim H2c: 84
        of 208 centred, 146 at offset (1, 3, 1)."""
        sys = build_lattice_system(LatticeSpec(6, 2, offset))
        assert len(make_kernel(sys).eigvals) == decompose(sys).dims["h2c"]

    def test_dropped_part_within_bound(self, offset):
        """The dropped modes add at most d2 theta^2 to a1(t) at every t,
        checked with the same sum as the all-mode kernel (their columns
        zeroed); the kept ones give that sum to roundoff, summed in
        another order."""
        sys = build_lattice_system(LatticeSpec(6, 2, offset))
        full = _all_mode_kernel(sys)
        norms = np.linalg.norm(full.coupling_modes, axis=0)
        theta = sys.tol * max(1.0, norms.max())
        kept = norms > theta
        zeroed = ResponseKernel(full.eigvals, full.coupling_modes * kept,
                                full.sectors)
        times = make_grid(10.0, 200)
        dropped = full.on_grid(times) - zeroed.on_grid(times)
        assert np.max(np.linalg.norm(dropped, 2, axis=(1, 2))) \
            <= sys.d2 * theta ** 2
        kernel = make_kernel(sys)
        assert np.array_equal(kernel.eigvals, full.eigvals[kept])
        assert _relative_gap(kernel.on_grid(times),
                             zeroed.on_grid(times)) <= 1e-14

    @pytest.mark.parametrize("forced", [False, True])
    def test_states_match_all_modes(self, offset, forced, monkeypatch):
        sys = build_lattice_system(LatticeSpec(6, 2, offset))
        grid = make_grid(2.5, 1000)
        v1 = np.exp(1j * np.arange(sys.d1)) / np.sqrt(sys.d1)
        f1 = ForcingSignal(np.outer(np.sin(3 * grid), np.ones(sys.d1))
                           if forced else None)
        states = propagate_reduced(sys, v1, f1, grid).states
        _run_on_kernel(monkeypatch, _all_mode_kernel(sys))
        want = propagate_reduced(sys, v1, f1, grid).states
        assert _relative_gap(states, want) <= 1e-12


# every centred lattice with box - cube even, box <= 10, cubes 1 to 4 and
# dims 1 to 3 (odd boxes put sites on the mirrors' mid-planes), then specs
# centred on some axes only
def _spec_id(spec):
    return (f"{spec.dims}d-box{spec.box}-cube{spec.cube}-at"
            + "".join(map(str, spec.offset)))


SECTOR_SPECS = [LatticeSpec.centered(box, cube, dims)
                for dims in (1, 2, 3) for cube in range(1, 5)
                for box in range(cube, 11, 2)] + [
    LatticeSpec(7, 3, (2, 1, 2)), LatticeSpec(7, 3, (1, 2, 1)),
    LatticeSpec(8, 2, (3, 1, 2)), LatticeSpec(6, 2, (2, 1), dims=2),
    LatticeSpec(7, 1, (3, 0), dims=2)]


def _sup_gap(kernel, reference, times):
    """The largest entry of kernel - reference over the times, and of the
    reference, taken one time at a time."""
    gap = top = 0.0
    for t in times:
        want = reference.on_grid(np.array([t]))
        gap = max(gap, np.max(np.abs(kernel.on_grid(np.array([t])) - want),
                              initial=0.0))
        top = max(top, np.max(np.abs(want), initial=0.0))
    return gap, top


@pytest.mark.parametrize("spec", SECTOR_SPECS, ids=_spec_id)
@pytest.mark.parametrize("side", [OBSERVABLE, HIDDEN])
def test_sector_kernel_is_the_dense_kernel(spec, side):
    """The kernel that a spec-built lattice takes one reflection sector at
    a time equals the one eigh of the same blocks gives: the fold's
    eigenvalues are those of the block, the kept kernel's a(t) agrees on
    [0, 5] to 1e-12 relative, and the modes it drops add at most
    (modes) theta^2 to a(t)."""
    sys = build_lattice_system(spec)
    dense = BlockSystem(sys.omega1, sys.omega2, sys.gamma, sys.tol)
    values, columns, sectors = sector_modes(sys, hidden=side == HIDDEN)
    block = sys.omega1 if side == HIDDEN else sys.omega2
    assert np.max(np.abs(np.sort(values) - np.linalg.eigvalsh(block)),
                  initial=0.0) <= 1e-12
    times = np.linspace(0.0, 5.0, 11)
    gap, top = _sup_gap(make_kernel(sys, side), make_kernel(dense, side),
                        times)
    assert gap <= 1e-12 * top
    norms = np.linalg.norm(columns, axis=0)
    theta = sys.tol * max(1.0, np.max(norms, initial=0.0))
    zeroed = ResponseKernel(values, columns * (norms > theta), sectors)
    dropped, _ = _sup_gap(ResponseKernel(values, columns, sectors), zeroed,
                          times)
    assert dropped <= len(values) * theta ** 2


def _sine_forcing(grid, dim):
    rates = np.arange(1, dim + 1)
    return ForcingSignal(np.sin(np.outer(grid, rates))
                         + 1j * np.cos(np.outer(grid, rates / 2)), OBSERVABLE)


@pytest.mark.parametrize("spec", SECTOR_SPECS, ids=_spec_id)
def test_sector_dynamics_match_one_sector(spec):
    """propagate_reduced, free and forced, and reduction_discrepancy run
    in the cube's reflection sectors give what the same blocks give as a
    system of matrices, run as one sector in site coordinates: states to
    1e-12 relative, gaps within 1e-12 and the order within 1e-9.  The
    specs include odd boxes, whose mid-planes leave some sectors with no
    cube site, and specs centred on some axes only."""
    sys = build_lattice_system(spec)
    dense = BlockSystem(sys.omega1, sys.omega2, sys.gamma, sys.tol)
    assert not make_kernel(dense).sectors.any()
    grid = make_grid(2.5, 60)
    rng = np.random.default_rng(spec.box * 10 + spec.cube)
    v1 = rng.standard_normal(sys.d1) + 1j * rng.standard_normal(sys.d1)
    for f1 in (ForcingSignal.zero(OBSERVABLE), _sine_forcing(grid, sys.d1)):
        got = propagate_reduced(sys, v1, f1, grid).states
        want = propagate_reduced(dense, v1, f1, grid).states
        assert _relative_gap(got, want) <= 1e-12
    got, want = (reduction_discrepancy(s, v1, 2.5, 60) for s in (sys, dense))
    for key in ("sup_diff_coarse", "sup_diff_fine"):
        assert abs(got[key] - want[key]) <= 1e-12
    assert abs(got["order"] - want["order"]) <= 1e-9


def _site_discrepancy(sys, v1, t_max, steps):
    """reduction_discrepancy's gaps and order taken in the cube's sites:
    the exact reference in sector coordinates unfolded by Fold.sites,
    against propagate_reduced's states, a 2-norm per time."""
    grid = make_grid(t_max, 2 * steps)
    fold = Fold.of(sys.lattice, True, sys.d1)
    start = fold.coordinates(np.asarray(v1, dtype=complex))
    full = np.zeros((*fold.keep.shape, len(grid)), dtype=complex)
    for (sector, rep), eigenpairs in zip(
            fold.groups, fold.columns(*sys.observable_eigenpairs())):
        at = sector[:, None], rep
        full[at] = _exact_states(None, start[at], ForcingSignal.zero(), grid,
                                 rep.shape[1],
                                 eigenpairs=eigenpairs).swapaxes(1, 2)
    full = fold.sites(full).T
    coarse, fine = (float(np.max(np.linalg.norm(full[::stride] - (
        propagate_reduced(sys, v1, ForcingSignal.zero(OBSERVABLE),
                          grid[::stride]).states), axis=1)))
        for stride in (2, 1))
    return coarse, fine, float(np.log2(coarse / fine))


def _discrepancy_system(which):
    if which == "random-4-8":
        return random_system(4, 8, 2, seed=12)
    return build_lattice_system(which)


DISCREPANCY_CASES = ["random-4-8", LatticeSpec.centered(6, 2),
                     LatticeSpec.centered(7, 3), LatticeSpec.centered(5, 1),
                     LatticeSpec(7, 3, (2, 1, 2)), LatticeSpec(6, 2, (1, 3, 1))]


@pytest.mark.parametrize("which", DISCREPANCY_CASES,
                         ids=lambda w: w if isinstance(w, str) else _spec_id(w))
def test_discrepancy_in_sectors_matches_sites(which):
    """The gaps taken in sector coordinates are those taken in the cube's
    sites, the sector basis being orthonormal: within 1e-15 and the order
    within 1e-9, on centred boxes, an odd box with one cube site (seven
    of its eight sectors empty), a spec centred on some axes only and one
    centred on none; bit for bit on a system of matrices."""
    sys = _discrepancy_system(which)
    rng = np.random.default_rng(sys.d1)
    v1 = rng.standard_normal(sys.d1) + 1j * rng.standard_normal(sys.d1)
    got = reduction_discrepancy(sys, v1, 2.5, 200)
    coarse, fine, order = _site_discrepancy(sys, v1, 2.5, 200)
    if sys.lattice is None:
        assert (got["sup_diff_coarse"], got["sup_diff_fine"], got["order"]) \
            == (coarse, fine, order)
    assert abs(got["sup_diff_coarse"] - coarse) <= 1e-15
    assert abs(got["sup_diff_fine"] - fine) <= 1e-15
    assert abs(got["order"] - order) <= 1e-9


@pytest.mark.parametrize("which", DISCREPANCY_CASES[:2],
                         ids=["random-4-8", "centred-6-2"])
def test_discrepancy_folds_once(which, monkeypatch):
    """One reduction_discrepancy makes one kernel and folds Omega2 (in the
    kernel) and Omega1 once each, for the reference and both reduced
    runs, and unfolds no state to the cube's sites."""
    sys = _discrepancy_system(which)
    calls = dict.fromkeys(["make_kernel", "blocks", "sites"], 0)
    for owner, name in ((dynamics, "make_kernel"), (Fold, "blocks"),
                        (Fold, "sites")):
        def counted(*args, _name=name, _call=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    reduction_discrepancy(sys, np.ones(sys.d1) / np.sqrt(sys.d1), 2.0, 50)
    assert calls == {"make_kernel": 1, "blocks": 2, "sites": 0}


@pytest.mark.parametrize("which", DISCREPANCY_CASES[:2],
                         ids=["random-4-8", "centred-6-2"])
def test_discrepancy_rejects_wrong_length_state(which, monkeypatch):
    """A v1_0 one entry short or long is bad input, rejected before the
    kernel is made."""
    sys = _discrepancy_system(which)
    made = []
    monkeypatch.setattr(dynamics, "make_kernel",
                        lambda *args: made.append(args))
    for size in (sys.d1 - 1, sys.d1 + 1):
        with pytest.raises(DimensionMismatchError, match="v1_0 shape"):
            reduction_discrepancy(sys, np.ones(size), 2.0, 50)
    assert made == []


def _real_system(d1, d2, seed):
    """A system of real symmetric blocks and a real coupling of full rank."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((d1, d1)), rng.standard_normal((d2, d2))
    return BlockSystem(a + a.T, b + b.T, rng.standard_normal((d1, d2)))


@pytest.mark.parametrize("side", [OBSERVABLE, HIDDEN])
@pytest.mark.parametrize("d1, d2", [(4, 8), (12, 20), (50, 150), (1, 1)])
def test_matrix_kernel_is_one_eigh(d1, d2, side):
    """On a system of matrices the kernel is one plain eigh of Omega2 (of
    Omega1 on the hidden side) and the column test, independent of the
    fold: on a complex random system bit for bit, on a real symmetric one
    the values bit for bit and the columns within 1e-14 relative; every
    mode is in sector 0."""
    for sys, exact in ((random_system(d1, d2, min(d1, d2), seed=d1), True),
                       (_real_system(d1, d2, seed=d2), False)):
        block, coupling = ((sys.omega1, sys.gamma.conj().T) if side == HIDDEN
                           else (sys.omega2, sys.gamma))
        w, u = np.linalg.eigh(block)
        columns = coupling @ u
        norms = np.linalg.norm(columns, axis=0)
        coupled = norms > sys.tol * max(1.0, norms.max())
        kernel = make_kernel(sys, side)
        assert np.array_equal(kernel.eigvals, w[coupled])
        assert np.array_equal(kernel.sectors, np.zeros(coupled.sum(), int))
        if exact:
            assert np.array_equal(kernel.coupling_modes, columns[:, coupled])
        else:
            assert _relative_gap(kernel.coupling_modes,
                                 columns[:, coupled]) <= 1e-14


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("which", ["random-4-8", "random-8-300",
                                   "random-130-4", "offset-1.3.1"])
def test_one_sector_states_match_unfolded_stepper(which, forced):
    """A system of one sector (random systems, and the box 6, cube 2
    lattice at offset (1, 3, 1), centred on no axis) runs through the
    identity fold: its states are those of the stepper on the whole cube
    in site coordinates to 1e-13 relative, at step counts below, at and
    beyond the sqrt(steps) cap on the block length."""
    if which.startswith("offset"):
        sys = build_lattice_system(LatticeSpec(6, 2, (1, 3, 1)))
    else:
        d1, d2 = map(int, which.split("-")[1:])
        sys = random_system(d1, d2, 2, seed=d1 + d2)
    kernel = make_kernel(sys)
    rng = np.random.default_rng(sys.d1)
    v1 = rng.standard_normal(sys.d1) + 1j * rng.standard_normal(sys.d1)
    for steps in (7, 64, 1000, 2001):
        grid = make_grid(0.005 * steps, steps)
        f1 = _sine_forcing(grid, sys.d1) if forced \
            else ForcingSignal.zero(OBSERVABLE)
        got = propagate_reduced(sys, v1, f1, grid).states
        want = _unfolded_reduced(sys, v1, f1, grid, kernel)
        assert _relative_gap(got, want) <= 1e-13, steps


def test_uncentred_lattice_kernel_is_unchanged():
    """A spec centred on no axis folds by the trivial group: both kernels
    are bit for bit those of one eigh of the same blocks."""
    sys = build_lattice_system(LatticeSpec(6, 2, (1, 3, 1)))
    dense = BlockSystem(sys.omega1, sys.omega2, sys.gamma, sys.tol)
    for side in (OBSERVABLE, HIDDEN):
        got, want = make_kernel(sys, side), make_kernel(dense, side)
        assert np.array_equal(got.eigvals, want.eigvals)
        assert np.array_equal(got.coupling_modes, want.coupling_modes)


def test_no_mode_dropped_on_acceptance_systems(monkeypatch):
    """Every mode of the acceptance suite's random systems is coupled, so
    the kernel, the reduced states and the no-gain check are bit for bit
    those of the all-mode kernel."""
    grid = make_grid(10.0, 200)
    for sys in _acceptance_dynamics_systems():
        kernel, full = make_kernel(sys), _all_mode_kernel(sys)
        assert np.array_equal(kernel.eigvals, full.eigvals)
        assert np.array_equal(kernel.coupling_modes, full.coupling_modes)
        v1 = np.ones(sys.d1, dtype=complex) / np.sqrt(sys.d1)
        zero = ForcingSignal.zero(OBSERVABLE)
        states = propagate_reduced(sys, v1, zero, grid).states
        _run_on_kernel(monkeypatch, full)
        assert np.array_equal(states,
                              propagate_reduced(sys, v1, zero, grid).states)
        monkeypatch.undo()
        got, want = (no_gain_check(k, 5, grid, seed=3) for k in (kernel, full))
        assert np.array_equal(got.values, want.values)
        assert got.quad_error_bound == want.quad_error_bound


@pytest.mark.parametrize("side", [OBSERVABLE, HIDDEN])
def test_rank_zero_coupling_keeps_no_mode(side, monkeypatch):
    """Gamma = 0 couples no mode: the kernel has none; the reduced states
    are those of the all-mode kernel of zero columns, to roundoff (the
    step's product takes a d1 x d1 matrix, not a d1 x (d1 + d2) one); the
    no-gain form is exactly 0."""
    sys = random_system(3, 5, 0, seed=1)
    kernel = make_kernel(sys, side)
    assert kernel.eigvals.shape == (0,)
    assert kernel.coupling_modes.shape == (kernel.dim, 0)
    grid = make_grid(10.0, 100)
    result = no_gain_check(kernel, 5, grid, seed=2)
    assert result.min_value == 0.0 and result.quad_error_bound == 0.0
    assert result.passed
    if side == OBSERVABLE:
        w = np.linalg.eigh(sys.omega2)[0]
        zero_columns = ResponseKernel(w, np.zeros((sys.d1, sys.d2)),
                                      np.zeros(sys.d2, int))
        v1 = np.ones(3, dtype=complex) / np.sqrt(3)
        zero = ForcingSignal.zero(OBSERVABLE)
        states = propagate_reduced(sys, v1, zero, grid).states
        _run_on_kernel(monkeypatch, zero_columns)
        assert _relative_gap(
            states, propagate_reduced(sys, v1, zero, grid).states) <= 1e-14


class TestPropagateFull:
    def test_eigenpairs_take_the_place_of_eigh(self, lattice, monkeypatch):
        """Given a system's eigenpairs, propagate_full runs no eigh: a
        system of matrices gives the eigh route's states bit for bit, the
        spec-built lattice its closed form's, within 1e-10 of eigh's."""
        grid = make_grid(2.5, 200)
        for sys in (random_system(3, 4, 2, seed=7), lattice):
            full = assemble_full(sys)
            v0 = np.exp(1j * np.arange(full.dim)) / np.sqrt(full.dim)
            want = propagate_full(full, v0, ForcingSignal.zero(), grid).states
            pairs = sys.eigenpairs()
            monkeypatch.setattr(np.linalg, "eigh", None)
            got = propagate_full(full, v0, ForcingSignal.zero(), grid,
                                 eigenpairs=pairs).states
            monkeypatch.undo()
            if sys is lattice:
                assert _relative_gap(got, want) <= 1e-10
            else:
                assert np.array_equal(got, want)

    def test_eigenvector_phase_evolution(self):
        sys = random_system(3, 3, 1, seed=2)
        full = assemble_full(sys)
        w, u = np.linalg.eigh(full.omega)
        grid = make_grid(5.0, 200)
        traj = propagate_full(full, u[:, 0], ForcingSignal.zero(), grid)
        expected = np.outer(np.exp(-1j * w[0] * grid), u[:, 0])
        assert np.max(np.abs(traj.states - expected)) < 1e-12

    def test_norm_conservation(self):
        sys = random_system(4, 5, 2, seed=3)
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        traj = propagate_full(assemble_full(sys), v0, ForcingSignal.zero(),
                              make_grid(10.0, 400))
        drift = np.abs(traj.norms() - np.linalg.norm(v0))
        assert np.max(drift) < 1e-12 * np.linalg.norm(v0)

    def test_two_level_closed_form(self):
        omega = np.array([[0.0, 1.0], [1.0, 0.0]])
        grid = make_grid(np.pi / 2, 100)
        traj = propagate_full(omega, np.array([1.0, 0.0]),
                              ForcingSignal.zero(), grid)
        # closed-form 2x2 exponential: (cos t, -i sin t)
        assert np.allclose(traj.states[-1], [0.0, -1j], atol=1e-12)

    def test_forced_duhamel_against_fine_reference(self):
        omega = np.array([[0.5, 0.2], [0.2, -0.3]])
        grid = make_grid(4.0, 200)
        f = np.stack([np.sin(grid), np.cos(2 * grid)], axis=1).astype(complex)
        traj = propagate_full(omega, np.zeros(2, dtype=complex),
                              ForcingSignal(f), grid)
        fine = make_grid(4.0, 3200)
        ff = np.stack([np.sin(fine), np.cos(2 * fine)], axis=1).astype(complex)
        ref = propagate_full(omega, np.zeros(2, dtype=complex),
                             ForcingSignal(ff), fine)
        assert np.max(np.abs(traj.states[-1] - ref.states[-1])) < 1e-4

    def test_peak_memory_near_output(self, lattice):
        """At 32,000 steps on the 6/2 lattice the run peaks below 1.5 times
        its (steps + 1, n) complex states: no (steps + 1, n) phase or
        coefficient table is formed besides them."""
        full = assemble_full(lattice)
        grid = make_grid(2.5, 32000)
        v0 = np.ones(full.dim, dtype=complex) / np.sqrt(full.dim)
        tracemalloc.start()
        try:
            propagate_full(full, v0, ForcingSignal.zero(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16 * len(grid) * full.dim

    def test_forced_peak_memory(self, lattice):
        """Forced, at 8,000 steps on the 6/2 lattice, the run holds the
        phases, the Duhamel integrand and the states: it peaks below 3.5
        times its (steps + 1, n) complex states."""
        full = assemble_full(lattice)
        grid = make_grid(2.5, 8000)
        v0 = np.ones(full.dim, dtype=complex) / np.sqrt(full.dim)
        forcing = ForcingSignal(np.full((len(grid), full.dim), 0.3 + 0.1j))
        tracemalloc.start()
        try:
            propagate_full(full, v0, forcing, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 16 * len(grid) * full.dim

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(ValueError):
            propagate_full(np.zeros((2, 2)), np.zeros(2),
                           ForcingSignal.zero(), np.array([0.0, 0.1, 0.3]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            propagate_full(np.zeros((2, 2)), np.zeros(3),
                           ForcingSignal.zero(), make_grid(1.0, 10))


class TestPropagateReduced:
    def test_zero_coupling_matches_observable_block(self):
        sys = random_system(3, 4, 0, seed=11)
        v1 = np.array([1.0, 1j, -0.5]) / np.sqrt(2.25)
        grid = make_grid(8.0, 1600)
        red = propagate_reduced(sys, v1, ForcingSignal.zero("observable"), grid)
        v0 = np.concatenate([v1, np.zeros(4)])
        full = propagate_full(assemble_full(sys), v0, ForcingSignal.zero(), grid)
        assert np.max(np.abs(red.states - full.states[:, :3])) < 1e-4

    def test_cosine_closed_form(self):
        # constant kernel 1: v1' = -int_0^t v1(t - tau) dtau, v1 = cos(t)
        grid = make_grid(10.0, 2000)
        red = propagate_reduced(swap_system(), np.array([1.0 + 0j]),
                                ForcingSignal.zero("observable"), grid)
        assert np.max(np.abs(red.states[:, 0] - np.cos(grid))) < 1e-4

    def test_second_order_convergence(self):
        sys = random_system(2, 4, 1, seed=23)
        rng = np.random.default_rng(1)
        v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v1 /= np.linalg.norm(v1)
        result = reduction_discrepancy(sys, v1, 10.0, 500)
        assert 1.7 <= result["order"] <= 2.3
        assert result["sup_diff_fine"] < result["sup_diff_coarse"]

    def test_forced_matches_forced_full(self):
        """Forcing f1 on the observable side alone: the reduced run tracks
        the first d1 columns of the full run forced by (f1, 0), with gaps
        that fall at second order (both quadratures are trapezoidal)."""
        sys = random_system(3, 6, 2, seed=17)
        rng = np.random.default_rng(4)
        v1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v0 = np.concatenate([v1, np.zeros(6)])
        rates = np.arange(1, 4)
        gaps = []
        for steps in (250, 500, 1000):
            grid = make_grid(10.0, steps)
            f1 = (np.sin(np.outer(grid, rates))
                  + 1j * np.cos(np.outer(grid, rates / 2)))
            red = propagate_reduced(sys, v1, ForcingSignal(f1, OBSERVABLE),
                                    grid)
            full = propagate_full(assemble_full(sys), v0, ForcingSignal(
                np.hstack([f1, np.zeros((len(grid), 6))])), grid)
            gaps.append(np.max(np.linalg.norm(red.states - full.states[:, :3],
                                              axis=1)))
        orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all((1.9 <= orders) & (orders <= 2.1)), orders
        assert gaps[-1] < 3e-3

    def test_cosine_closed_form_long_horizon(self):
        grid = make_grid(160.0, 32000)
        red = propagate_reduced(swap_system(), np.array([1.0 + 0j]),
                                ForcingSignal.zero("observable"), grid)
        assert np.max(np.abs(red.states[:, 0] - np.cos(grid))) < 1e-3

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("which", ["random", "lattice"])
    def test_matches_quadratic_reference(self, which, forced, request):
        if which == "lattice":
            sys, grid = request.getfixturevalue("lattice"), make_grid(2.5, 300)
        else:
            sys, grid = random_system(3, 6, 2, seed=17), make_grid(10.0, 400)
        rng = np.random.default_rng(4)
        v1 = rng.standard_normal(sys.d1) + 1j * rng.standard_normal(sys.d1)
        f1 = ForcingSignal.zero("observable")
        if forced:
            rates = np.arange(1, sys.d1 + 1)
            f1 = ForcingSignal(np.sin(np.outer(grid, rates))
                               + 1j * np.cos(np.outer(grid, rates / 2)),
                               "observable")
        red = propagate_reduced(sys, v1, f1, grid)
        reference = _quadratic_reduced(sys, v1, f1, grid)
        assert _relative_gap(red.states, reference) <= 1e-12

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("d1, d2", [(1, 3), (4, 6), (8, 12), (8, 300),
                                        (130, 4)])
    def test_blocks_match_quadratic_reference(self, d1, d2, forced):
        """Step counts on both sides of the block length L, and one that is
        no multiple of it; (8, 300) has L below 128 // d1, (130, 4) has L = 1."""
        sys = random_system(d1, d2, min(2, d1), seed=d1 + d2)
        block = _block_length(d1, d2)
        assert (block == 1) == (d1 > 128)
        assert (block < 128 // d1) == (d2 == 300)
        rng = np.random.default_rng(d1)
        v1 = rng.standard_normal(d1) + 1j * rng.standard_normal(d1)
        for steps in sorted({1, max(block - 1, 1), block, block + 1,
                             2 * block + 3}):
            grid = np.linspace(0.0, 0.05 * steps, steps + 1)
            f1 = ForcingSignal.zero("observable")
            if forced:
                rates = np.arange(1, d1 + 1)
                f1 = ForcingSignal(np.sin(np.outer(grid, rates))
                                   + 1j * np.cos(np.outer(grid, rates / 2)),
                                   "observable")
            red = propagate_reduced(sys, v1, f1, grid)
            reference = _quadratic_reduced(sys, v1, f1, grid)
            assert _relative_gap(red.states, reference) <= 1e-12, steps

    @pytest.mark.parametrize("which", ["random", "lattice"])
    def test_observable_reference_matches_full(self, which, request):
        if which == "lattice":
            sys, grid = request.getfixturevalue("lattice"), make_grid(2.5, 1000)
        else:
            sys, grid = random_system(4, 8, 2, seed=21), make_grid(10.0, 2000)
        rng = np.random.default_rng(5)
        v1 = rng.standard_normal(sys.d1) + 1j * rng.standard_normal(sys.d1)
        v1 /= np.linalg.norm(v1)
        omega = assemble_full(sys).omega
        v0 = np.concatenate([v1, np.zeros(sys.d2)])
        full = _dense_full(omega, v0, ForcingSignal.zero(), grid)
        observed = _exact_states(omega, v0, ForcingSignal.zero(), grid, sys.d1)
        assert np.max(np.abs(observed - full[:, :sys.d1])) <= 1e-13

    @pytest.mark.parametrize("d1, d2", [(4, 8), (40, 10)])
    @pytest.mark.parametrize("steps", [2, 3, 7, 15, 16, 17, 1000, 10007])
    def test_observable_reference_on_every_grid_shape(self, steps, d1, d2):
        """Point counts on both sides of a square (3 and 4; 16, 17 and
        18), and 10007 steps, a prime: the factored phases leave a
        part-filled last coarse row or none.  At d1 = 40 the fine block
        shrinks to one step for the short grids.  Both the d1 observable
        components (``compare``) and all n (``simulate-full``), unforced
        and forced."""
        sys = random_system(d1, d2, 2, seed=21)
        omega, n = assemble_full(sys).omega, d1 + d2
        grid = make_grid(10.0, steps)
        rng = np.random.default_rng(steps)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v0 /= np.linalg.norm(v0)
        rates = np.arange(1, n + 1)
        forced = ForcingSignal(np.sin(np.outer(grid, rates))
                               + 1j * np.cos(np.outer(grid, rates / 2)))
        for forcing, tol in ((ForcingSignal.zero(), 1e-13), (forced, 1e-12)):
            full = _dense_full(omega, v0, forcing, grid)
            for rows in (d1, n):
                observed = _exact_states(omega, v0, forcing, grid, rows)
                assert observed.shape == (steps + 1, rows)
                assert np.max(np.abs(observed - full[:, :rows])) <= tol

    def test_observable_reference_cosine_closed_form(self):
        """Omega = [[0, 1], [1, 0]] from (1, 0) gives v1(t) = cos t."""
        grid = make_grid(100.0, 10007)
        observed = _exact_states(assemble_full(swap_system()).omega,
                                 np.array([1.0, 0j]), ForcingSignal.zero(),
                                 grid, 1)
        assert np.max(np.abs(observed[:, 0] - np.cos(grid))) <= 1e-13

    def test_observable_reference_holds_no_phase_table(self, lattice):
        """At 32,000 steps on the 6/2 lattice the reference peaks below a
        quarter of one (steps + 1, n) complex phase table."""
        grid = make_grid(2.5, 32000)
        omega = assemble_full(lattice).omega
        n = len(omega)
        v0 = np.zeros(n, dtype=complex)
        v0[:lattice.d1] = 1 / np.sqrt(lattice.d1)
        tracemalloc.start()
        try:
            _exact_states(omega, v0, ForcingSignal.zero(), grid, lattice.d1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * len(grid) * n / 4

    def test_observable_reference_wide_observable_memory(self):
        """With d1 = 100 > sqrt(steps), the peak beyond the (steps + 1, d1)
        output stays below half a (steps + 1, n) phase table."""
        omega = assemble_full(random_system(100, 100, 2, seed=3)).omega
        grid = make_grid(10.0, 8000)
        v0 = np.zeros(200, dtype=complex)
        v0[:100] = 1 / 10.0
        tracemalloc.start()
        try:
            _exact_states(omega, v0, ForcingSignal.zero(), grid, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * len(grid) * 100 + 16 * len(grid) * 200 / 2

    def test_empty_observable(self):
        """d1 = 0: both propagations give (nt, 0) trajectories, free and
        forced, and the discrepancy is zero with order 0."""
        sys = random_system(0, 3, 0, seed=1)
        grid = make_grid(10.0, 100)
        v1 = np.zeros(0, dtype=complex)
        for f1 in (ForcingSignal.zero(OBSERVABLE),
                   ForcingSignal(np.zeros((101, 0)), OBSERVABLE)):
            red = propagate_reduced(sys, v1, f1, grid)
            assert red.states.shape == (101, 0)
        assert _exact_states(assemble_full(sys).omega, np.zeros(3),
                             ForcingSignal.zero(), grid, 0).shape == (101, 0)
        result = reduction_discrepancy(sys, v1, 10.0, 100)
        assert result["sup_diff_coarse"] == result["sup_diff_fine"] == 0.0
        assert result["order"] == 0.0

    @pytest.mark.parametrize("forced", [False, True])
    def test_empty_hidden(self, forced):
        """d2 = 0: the kernel has no mode, and its sectors shape (0,); the
        reduced states, free and forced, are those of the whole-cube
        stepper to 1e-14 relative."""
        sys = random_system(3, 0, 0, seed=1)
        kernel = make_kernel(sys)
        assert kernel.eigvals.shape == kernel.sectors.shape == (0,)
        assert kernel.coupling_modes.shape == (3, 0)
        grid = make_grid(2.0, 200)
        v1 = np.array([1.0, 1j, -0.5])
        f1 = _sine_forcing(grid, 3) if forced \
            else ForcingSignal.zero(OBSERVABLE)
        got = propagate_reduced(sys, v1, f1, grid).states
        want = _unfolded_reduced(sys, v1, f1, grid, kernel)
        assert _relative_gap(got, want) <= 1e-14

    def test_one_eigh_per_operator_in_discrepancy(self, monkeypatch):
        """The coarse and the fine reduced run share one kernel: eigh runs
        once on Omega (full propagation) and once on Omega2 (the kernel)."""
        sys = random_system(3, 5, 2, seed=19)
        calls = []

        def counted(a, *args, _eigh=np.linalg.eigh, **kwargs):
            calls.append(a.shape)
            return _eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        reduction_discrepancy(sys, np.ones(3) / np.sqrt(3), 2.0, 50)
        assert sorted(calls) == [(1, 5, 5), (8, 8)]

    def test_lattice_discrepancy_factors_omega2_only(self, lattice,
                                                     monkeypatch):
        """A spec-built lattice gives the exact reference Omega's
        eigenpairs in closed form: eigh runs once, for the kernel, on the
        eight 26 x 26 reflection sectors of Omega2, and the gaps are those
        of the reference and the kernel taken by eigh."""
        calls = []

        def counted(a, *args, _eigh=np.linalg.eigh, **kwargs):
            calls.append(a.shape)
            return _eigh(a, *args, **kwargs)

        v1 = np.ones(lattice.d1) / np.sqrt(lattice.d1)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        result = reduction_discrepancy(lattice, v1, 2.5, 200)
        monkeypatch.undo()
        assert calls == [(8, lattice.d2 // 8, lattice.d2 // 8)]
        dense = BlockSystem(lattice.omega1, lattice.omega2, lattice.gamma)
        want = reduction_discrepancy(dense, v1, 2.5, 200)
        for key in ("sup_diff_coarse", "sup_diff_fine"):
            assert abs(result[key] - want[key]) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_hidden_block_exceeds_reduction_limit(self, seed):
        """Negative control for the criterion-5 limit: the reduced run of
        the system with Omega2 + 1e-3 I, whose kernel is the shifted one,
        1000 steps on [0, 10], misses the true full propagation by more
        than REDUCTION_SUP_TOL; the true system's run does not."""
        sys = random_system(4, 8, 2, seed=seed)
        shifted = BlockSystem(sys.omega1, sys.omega2 + 1e-3 * np.eye(8),
                              sys.gamma, sys.tol)
        rng = np.random.default_rng(seed)
        v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v1 /= np.linalg.norm(v1)
        grid = make_grid(10.0, 1000)
        full = propagate_full(assemble_full(sys), np.concatenate(
            [v1, np.zeros(8)]), ForcingSignal.zero(), grid).states[:, :4]

        def gap(system):
            red = propagate_reduced(system, v1,
                                    ForcingSignal.zero(OBSERVABLE), grid)
            return np.max(np.linalg.norm(red.states - full, axis=1))

        assert gap(sys) <= REDUCTION_SUP_TOL < gap(shifted)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            propagate_reduced(swap_system(), np.zeros(2),
                              ForcingSignal.zero("observable"),
                              make_grid(1.0, 10))


class TestNoGain:
    def test_zero_signal_gives_zero(self):
        grid = make_grid(10.0, 100)
        assert np.all(_bump_profile(grid, 2.0, 4.0)[grid <= 2.0] == 0.0)

    def test_zero_coupling_kernel(self):
        k = make_kernel(random_system(2, 3, 0, seed=0))
        res = no_gain_check(k, 5, make_grid(10.0, 200), seed=1)
        assert res.min_value == 0.0

    def test_scalar_kernel_nonnegative(self):
        sys = BlockSystem(np.array([[0.0]]), np.array([[1.0]]),
                          np.array([[1.0]]))
        k = make_kernel(sys)
        res = no_gain_check(k, 20, make_grid(20.0, 300), seed=3)
        assert res.min_value >= -res.quad_error_bound
        refined = no_gain_check(k, 20, make_grid(20.0, 600), seed=3)
        if res.min_value < 0:
            assert refined.min_value >= res.min_value / 2

    def test_random_kernel_nonnegative(self):
        k = make_kernel(random_system(3, 6, 2, seed=31))
        res = no_gain_check(k, 25, make_grid(20.0, 300), seed=7)
        assert res.passed

    @pytest.mark.parametrize("which", ["random", "lattice"])
    def test_matches_stacked_reference(self, which, request):
        if which == "lattice":
            kernel = make_kernel(request.getfixturevalue("lattice"))
        else:
            kernel = make_kernel(random_system(3, 6, 2, seed=31))
        grid = make_grid(20.0, 300)
        draws = list(_trial_draws(grid, kernel.dim, 6, seed=25))
        assert any(lo < grid[0] for lo, _, _ in draws)
        res = no_gain_check(kernel, 6, grid, seed=25)
        values = _stacked_no_gain(kernel, 6, grid, seed=25)
        assert _relative_gap(res.values, values) <= 1e-12

    @pytest.mark.parametrize("steps", [2, 3, 4])
    def test_grid_below_five_steps_rejected(self, steps):
        """With seed 0 on a grid of 2 steps, 7 of 20 bumps hold no grid
        point and would read 0, a pass that checks nothing: grids below 5
        steps are rejected, naming the step count."""
        kernel = make_kernel(random_system(4, 8, 2, seed=1))
        with pytest.raises(ValueError, match=f"no-gain check needs at least "
                                             f"5 steps, got {steps}"):
            no_gain_check(kernel, 20, make_grid(10.0, steps), seed=0)

    @pytest.mark.parametrize("steps", [5, 6, 7, 11])
    def test_every_bump_holds_a_grid_point(self, steps):
        """From 5 steps on every bump, also one cut off at t = 0 or t_max,
        holds a grid point, so no trial reads an empty 0."""
        kernel = make_kernel(random_system(4, 8, 2, seed=1))
        grid = make_grid(10.0, steps)
        draws = list(_trial_draws(grid, kernel.dim, 200, seed=steps))
        assert any(lo < grid[0] or hi > grid[-1] for lo, hi, _ in draws)
        res = no_gain_check(kernel, 200, grid, seed=steps)
        assert np.all(res.values != 0.0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        k = make_kernel(random_system(2, 4, 1, seed=2))
        with pytest.raises(ValueError, match=f"trials must be at least 1, "
                                             f"got {trials}"):
            no_gain_check(k, trials, make_grid(10.0, 100), seed=0)

    @pytest.mark.parametrize("steps", [5, 7, 400, 4000])
    @pytest.mark.parametrize("which", ["random", "lattice"])
    def test_matches_spectral_closed_form(self, which, steps, request):
        """Every trial, clipped ones included, is within the bound of the
        exact form: for v(t) = p(t) u it is
        (1/2) sum_m |c_m|^2 |int p e^{i w_m t}|^2 with c = M^dag u,
        non-negative by construction and free of the grid."""
        if which == "lattice":
            kernel = make_kernel(request.getfixturevalue("lattice"))
        else:
            kernel = make_kernel(random_system(3, 6, 2, seed=31))
        grid = make_grid(20.0, steps)
        draws = list(_trial_draws(grid, kernel.dim, 30, seed=2))
        assert any(lo < grid[0] for lo, _, _ in draws)
        assert any(hi > grid[-1] for _, hi, _ in draws)
        res = no_gain_check(kernel, 30, grid, seed=2)
        # 256 nodes resolve the fastest lattice mode (|w| = 11) over 20
        nodes, node_weights = np.polynomial.legendre.leggauss(256)
        for value, (lo, hi, u) in zip(res.values, draws):
            a, b = max(lo, grid[0]), min(hi, grid[-1])
            t = (a + b) / 2 + (b - a) / 2 * nodes
            transform = ((b - a) / 2 * node_weights * _bump_profile(t, lo, hi)
                         @ np.exp(1j * np.outer(t, kernel.eigvals)))
            weights = np.abs(kernel.coupling_modes.conj().T @ u) ** 2
            exact = 0.5 * float(weights @ np.abs(transform) ** 2)
            assert abs(value - exact) <= res.quad_error_bound

    def test_bound_falls_as_h_squared_below_the_values(self):
        """On the seed-2 system the bound falls fourfold per doubling of the
        steps, clipped trial included, and stays below the smallest value,
        so negated values would fail."""
        kernel = make_kernel(random_system(5, 8, 2, seed=2))
        results = [no_gain_check(kernel, 6, make_grid(10.0, steps), seed=2)
                   for steps in (2000, 4000, 8000)]
        for coarse, fine in zip(results, results[1:]):
            ratio = coarse.quad_error_bound / fine.quad_error_bound
            assert 3.6 <= ratio <= 4.4
        for res in results:
            assert res.min_value > res.quad_error_bound
            assert not NoGainResult(-res.min_value, -res.values,
                                    res.quad_error_bound).passed

    def test_peak_memory_stays_small(self):
        kernel = make_kernel(random_system(4, 8, 2, seed=1))
        grid = make_grid(10.0, 2000)
        tracemalloc.start()
        try:
            no_gain_check(kernel, 2, grid, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    def test_deterministic(self):
        k = make_kernel(random_system(2, 4, 1, seed=2))
        grid = make_grid(10.0, 150)
        a = no_gain_check(k, 5, grid, seed=9)
        b = no_gain_check(k, 5, grid, seed=9)
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf],
                                   [0.0, 1.0, 1.0]],
                         ids=["nan", "inf", "repeated"])
def test_trajectory_grid_finite_and_increasing(times):
    """NaN compares false, so a NaN time would pass ``diff <= 0``."""
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        Trajectory(np.array(times), np.zeros((3, 1)))


class TestExport:
    def test_trajectory_csv(self, tmp_path):
        traj = Trajectory(np.array([0.0, 0.5]),
                          np.array([[1 + 2j, 0j], [0.5j, 3 + 0j]]))
        path = tmp_path / "t.csv"
        trajectory_to_csv(traj, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "re_0", "im_0", "re_1", "im_1"]
        assert float(rows[1][1]) == 1.0 and float(rows[1][2]) == 2.0
        assert float(rows[2][6 - 5]) == 0.0  # re_0 of second sample

    def test_trajectory_csv_writes_each_float_by_repr(self, tmp_path):
        traj = Trajectory(np.array([0.0, 0.1]),
                          np.array([[complex(1e-300, -0.0)],
                                    [complex(-0.0, 1 / 3)]]))
        path = tmp_path / "t.csv"
        trajectory_to_csv(traj, str(path))
        assert path.read_bytes() == (
            b"time,re_0,im_0\r\n"
            b"0.0,1e-300,-0.0\r\n"
            b"0.1,-0.0,0.3333333333333333\r\n")

    def test_kernel_csv(self, tmp_path):
        k = make_kernel(random_system(2, 3, 1, seed=4))
        path = tmp_path / "k.csv"
        kernel_to_csv(k, make_grid(1.0, 4), str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "time"
        assert len(rows) == 6  # header + 5 grid points
        assert len(rows[1]) == 1 + 2 * 4  # time + re/im per 2x2 entry
        assert rows[0] == ["time", "re_0_0", "im_0_0", "re_0_1", "im_0_1",
                           "re_1_0", "im_1_0", "re_1_1", "im_1_1"]
        stack = k.on_grid(make_grid(1.0, 4))
        assert [float(x) for x in rows[3][3:5]] == [stack[2, 0, 1].real,
                                                    stack[2, 0, 1].imag]

    def test_kernel_csv_header_names_unique(self, tmp_path):
        """With d >= 11, re_{i}{j} wrote re_110 for both (1, 10) and (11, 0)."""
        k = make_kernel(random_system(12, 3, 2, seed=4))
        assert k.dim == 12
        path = tmp_path / "k.csv"
        grid = make_grid(1.0, 500)  # rows enough for several write blocks
        kernel_to_csv(k, grid, str(path))
        with open(path) as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 1 + 2 * 12 * 12
        assert len(set(header)) == len(header)
        assert len(rows) == len(grid)
        last = k.on_grid(grid)[-1].reshape(-1)
        expected = np.stack([last.real, last.imag], axis=1).reshape(-1)
        assert rows[-1] == [repr(float(x)) for x in [grid[-1], *expected]]


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(-1.0, 100)
    with pytest.raises(ValueError):
        make_grid(1.0, 1)
    for t_max in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="t_max must be positive and "
                                             f"finite, got {t_max}"):
            make_grid(t_max, 100)


@pytest.mark.parametrize("run", [
    lambda t: propagate_full(np.eye(2), np.ones(2), ForcingSignal.zero(), t),
    lambda t: propagate_reduced(swap_system(), np.ones(1),
                                ForcingSignal.zero(OBSERVABLE), t),
    lambda t: no_gain_check(make_kernel(swap_system()), 2, t, seed=0),
], ids=["propagate_full", "propagate_reduced", "no_gain_check"])
def test_non_finite_grid_rejected(run):
    """NaN compares false, so a NaN time would pass the uniformity check."""
    one_nan = make_grid(1.0, 8)
    one_nan[3] = np.nan
    for times in (one_nan, np.full(9, np.nan),
                  np.append(make_grid(1.0, 7), np.inf)):
        with pytest.raises(ValueError, match="non-finite time grid"):
            run(times)
