"""Time propagation: full conservative dynamics and the reduced open system.

The full system dV/dt = -i Omega V + F is propagated spectrally by one
routine that returns the first ``rows`` components: all n for
``simulate-full``, the d1 observable ones for ``compare``'s reference.
The homogeneous part is exact (up to eigensolver accuracy) and forcing
enters through a Duhamel integral evaluated with trapezoidal quadrature.
Its phases factor over the uniform grid, so unforced it holds the output
plus O(sqrt(steps rows) n) phases.

Eliminating the hidden variables (hidden initial state zero, no hidden
forcing) leaves the observable part with a memory term,

    dv1/dt = -i Omega1 v1 - int_0^t a1(tau) v1(t - tau) dtau + f1(t),

where the delayed-response kernel a1(t) = Gamma exp(-i Omega2 t) Gamma^dag
is held in spectral form, a1(t) = M diag(exp(-i w t)) M^dag with
M = Gamma U2.  Omega2 is folded by the mirror reflections of the axes on
which a lattice's cube is centred (:class:`~opensys.lattice.Fold`), into
up to 2^dims sectors of about d2 / 2^dims sites each, and each sector is
factored on its own, so no d2 x d2 matrix is formed; a system of
matrices, and a lattice centred on no axis, is one sector, the identity
fold, whose one ``eigh`` is of Omega2 itself.  Each mode carries its
sector.  The reduced equation is integrated with a trapezoidal
(Crank-Nicolson style) step and trapezoidal memory quadrature, globally
second order, against the exact full propagator as its accuracy oracle.
The history is zero before t = 0, so the convolution's upper limit of
infinity truncates to [0, t] exactly.  The kernel keeps only the modes
of Omega2 that Gamma couples, those whose column of M is above the rank
threshold theta: at least dim H2c of the d2, and the dropped ones change
a1 by at most d2 theta^2.  As a1 is an exact sum of one exponential per
kept mode, the memory sum obeys a one-step modal recursion (the exact
case of Lubich & Schaedle's fast convolution, SIAM J. Sci. Comput. 2002).
Below, d2 counts the kept modes.
With the history, the state (v, R) obeys one linear time-invariant
recurrence, so it is taken L = min(128 // d1, 2^16 // (d1 (d1 + 2 d2)),
sqrt(steps)) steps at a time (at least 1): the rows of the first L powers
of the one-step matrix give each block's L states as one product with
the state at its start, and no block system is solved, so a run costs
O(steps d1 (d1 + d2)) flops in steps / L Python-level iterations and
O(steps d1) memory.  The same reflections commute with Omega, so the
reduced equation and its exact reference split into the parity sectors
of the cube's fold, one sector for a system of matrices; each runs on
its own modes only, and d1 and d2 above are then a sector's.  Each call
builds the fold and the kernel of the system it is given, once, and
``compare`` measures its gaps in the sector coordinates, whose basis is
orthonormal, with nothing unfolded.
The no-gain form of a signal p(t) u separates in the same modes into one
autocorrelation of p, summed as the trapezoid over the triangle
tau <= t, with a closed-form O(h^2) error bound.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .lattice import Fold, sector_modes
from .subspaces import DimensionMismatchError, check_hermitian
from .systems import BlockSystem, FullOperator

OBSERVABLE = "observable"
HIDDEN = "hidden"

#: Bounds on one block of reduced steps: rows of its state map, and
#: complex entries of the matrices it streams through.
_BLOCK_ROWS = 128
_BLOCK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class ResponseKernel:
    """Spectral form of a delayed-response kernel.

    a1 (observable side) has the eigvals of Omega2 and modes Gamma U; a2
    (hidden side) those of Omega1 and modes Gamma^dag U; both keep only
    the modes that ``make_kernel`` finds coupled.  The kernel at time t
    is modes @ diag(exp(-i eigvals t)) @ modes^dag, exact in t.
    ``sectors`` holds the reflection sector of each mode in the fold of
    the system it was made for (:class:`opensys.lattice.Fold`): all 0 for
    a system of matrices, which is one sector.
    """

    eigvals: np.ndarray
    coupling_modes: np.ndarray
    sectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.coupling_modes.shape[0]

    def on_grid(self, times: np.ndarray) -> np.ndarray:
        """Kernel stack of shape (len(times), dim, dim)."""
        phases = np.exp(-1j * np.outer(times, self.eigvals))
        # optimize: one product of the phases with the dim x dim x modes
        # outer products, not a naive loop over all four indices
        return np.einsum("am,tm,bm->tab", self.coupling_modes, phases,
                         self.coupling_modes.conj(), optimize=True)


@dataclass(frozen=True)
class Trajectory:
    """Uniform time grid with one complex state vector per grid point."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if times.ndim != 1 or states.ndim != 2 or len(times) != len(states):
            raise DimensionMismatchError(
                f"grid/state shapes incompatible: {times.shape} vs {states.shape}"
            )
        # NaN compares false, so the grid must pass the tests, not fail them
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("time grid must be finite and strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


@dataclass(frozen=True)
class ForcingSignal:
    """Forcing sampled on the propagation grid, or the zero signal.

    ``samples`` is (n_times, dim) or None for no forcing.  ``target`` is a
    label only: no code reads it, and which equation the signal drives is
    set by the propagator it is passed to.
    """

    samples: np.ndarray | None
    target: str = "full"

    @classmethod
    def zero(cls, target: str = "full") -> "ForcingSignal":
        return cls(None, target)

    def sampled(self, n_times: int, dim: int) -> np.ndarray:
        if self.samples is None:
            return np.zeros((n_times, dim), dtype=complex)
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (n_times, dim):
            raise DimensionMismatchError(
                f"forcing shape {samples.shape} != grid ({n_times}, {dim})"
            )
        return samples


def make_grid(t_max: float, steps: int) -> np.ndarray:
    """Uniform grid of ``steps`` intervals on [0, t_max] (steps+1 points)."""
    if not 0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    return np.linspace(0.0, t_max, steps + 1)


def _uniform_step(times: np.ndarray) -> float:
    if not np.all(np.isfinite(times)):  # NaN would pass the checks below
        raise ValueError("non-finite time grid rejected")
    diffs = np.diff(times)
    if len(diffs) == 0:
        raise ValueError("grid needs at least two points")
    h = diffs[0]
    if np.any(np.abs(diffs - h) > 1e-12 * max(abs(h), 1.0)):
        raise ValueError("non-uniform time grid rejected")
    return float(h)


def make_kernel(sys: BlockSystem, side: str = OBSERVABLE) -> ResponseKernel:
    """Delayed-response kernel of one side via eigendecomposition of the
    other, on its coupled modes only.

    With w, U the eigenpairs of Omega2 (of Omega1 on the hidden side), a
    mode's coupling column is Gamma u_m (Gamma^dag u_m), as
    :func:`opensys.lattice.sector_modes` gives them, one reflection sector
    at a time, with each mode's sector; a system of matrices is one
    sector, factored by one ``eigh``.  A mode whose
    column has 2-norm <= theta = tol * max(1, max_m ||Gamma u_m||), the
    rank rule's threshold, is dropped: a mode Gamma does not couple adds
    nothing to a1(t), and the dropped terms change a1(t) by at most
    d2 theta^2 in norm at every t.  At least dim H2c modes are kept; on
    the centred lattices of box/cube 6/2, 7/3, 8/4, 10/4, 11/3, 12/4 and
    14/4 exactly that many (84 of 208 at 6/2; 146 at offset (1, 3, 1)).
    But where Omega2 repeats an eigenvalue inside a sector, ``eigh``'s
    basis may spread the coupled part over more columns: 497 for
    h2c = 490 at centred 9/3, and 407 for 405 at box 8, cube 3, which has
    no centred axis.  With no coupling none are kept.
    """
    if side not in (OBSERVABLE, HIDDEN):
        raise ValueError(f"unknown kernel side {side!r}")
    w, modes, sectors = sector_modes(sys, hidden=side == HIDDEN)
    norms = np.linalg.norm(modes, axis=0)
    coupled = norms > sys.tol * max(1.0, np.max(norms, initial=0.0))
    # compress keeps the C order of modes, so with no mode dropped the
    # kernel, and all that is computed from it, is bit for bit the same
    return ResponseKernel(eigvals=w[coupled],
                          coupling_modes=np.compress(coupled, modes, axis=1),
                          sectors=sectors[coupled])


def _exact_states(mat: np.ndarray | None, v0: np.ndarray,
                  forcing: ForcingSignal, times: np.ndarray, rows: int, *,
                  eigenpairs: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> np.ndarray:
    """First ``rows`` components of the exact propagation of v0 by the
    Hermitian ``mat`` on a uniform grid: with w, U its eigenpairs,
    U[:rows] exp(-i w t) (U^dag v0 + the Duhamel integral of U^dag F).
    They are one ``eigh`` of ``mat``, unless ``eigenpairs`` are given,
    such as a system's :meth:`~opensys.systems.BlockSystem.eigenpairs`;
    ``mat`` is then not read.  Unforced, only U^dag v0 and U[:rows] are
    read, so the eigenpairs may hold the first ``rows`` rows of U alone
    when v0 is those rows' part of the state, and zero elsewhere.

    On the grid t_k = (j B + m) h the phases factor as
    exp(-i w j B h) exp(-i w m h).  Unforced, the states are one product of
    the (J, n) coarse phases with the (n, B rows) matrix
    G[:, (m, i)] = exp(-i w m h) (U^dag v0) U[i].  B = ceil(sqrt(nt /
    rows)) balances the two at about n sqrt(nt rows) entries each.  The
    exponentials are taken once for each distinct value of w, which on a
    lattice is a fraction of them.  Unforced, w (.., n), U (.., rows, n)
    and v0 (.., rows) may carry leading batch axes, such as reflection
    sectors, and the states then do too.
    Forcing needs an (nt, n) table of the conjugate phases, built from the
    same factors, and one of the Duhamel integrand; the trapezoid, the
    cumulative sum and the final product are taken in place, the phases
    conjugated back for the last.
    """
    h = _uniform_step(times)
    w, u = np.linalg.eigh(mat) if eigenpairs is None else eigenpairs
    *batch, n = w.shape
    nt = len(times)
    # the least B with B^2 max(rows, 1) >= nt, so J <= B max(rows, 1)
    block = math.isqrt(-(-nt // max(rows, 1)) - 1) + 1
    count = -(-nt // block)  # J
    # the phases of each distinct frequency, taken once and gathered
    distinct, where = np.unique(w, return_inverse=True)
    fine, coarse = (np.moveaxis(np.exp(-1j * h * step * np.outer(
        np.arange(length), distinct))[:, where.reshape(w.shape)], 0, -2)
        for step, length in ((1, block), (block, count)))
    coeff = (v0[..., None, :] @ u.conj())[..., 0, :]
    top = u[..., :rows, :]
    if forcing.samples is None:
        g = ((fine * coeff[..., None, :]).swapaxes(-1, -2)[..., None]
             * top.swapaxes(-1, -2)[..., None, :]).reshape(
                 *batch, n, block * rows)
        return (coarse @ g).reshape(*batch, count * block, rows)[..., :nt, :]
    phases = (coarse.conj()[:, None] * fine.conj()).reshape(-1, n)[:nt]
    g = forcing.sampled(nt, n) @ u.conj()
    g *= phases
    g[1:] += g[:-1]
    g *= h / 2
    g[0] = coeff  # so the cumulative sum is U^dag v0 plus the integral
    np.cumsum(g, axis=0, out=g)
    g *= np.conjugate(phases, out=phases)
    return g @ top.T


def propagate_full(omega: FullOperator | np.ndarray, v0: np.ndarray,
                   forcing: ForcingSignal, times: np.ndarray, *,
                   eigenpairs: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> Trajectory:
    """Propagate dV/dt = -i Omega V + F spectrally on a uniform grid.

    The homogeneous part is exact; the Duhamel integral for the forcing is
    a cumulative trapezoid in the eigenbasis.  With zero forcing the result
    is exact up to eigensolver accuracy, in the (steps+1, n) states plus
    O(sqrt(steps n) n) phases; forcing adds two (steps+1, n) tables, the
    phases and the integrand.  ``eigenpairs`` of Omega, such as a system's
    :meth:`~opensys.systems.BlockSystem.eigenpairs`, take the place of its
    ``eigh``; Omega is then checked but not factored.
    """
    mat = omega.omega if isinstance(omega, FullOperator) else np.asarray(omega)
    mat = check_hermitian(mat, 1e-10, "full generator")
    n = mat.shape[0]
    v0 = np.asarray(v0, dtype=complex)
    if v0.shape != (n,):
        raise DimensionMismatchError(f"v0 shape {v0.shape} != ({n},)")
    times = np.asarray(times, dtype=float)
    return Trajectory(times, _exact_states(mat, v0, forcing, times, n,
                                           eigenpairs=eigenpairs))


def _block_length(d1: int, d2: int) -> int:
    """Steps in one block of ``propagate_reduced``, for a sector of d1
    observable coordinates and d2 modes."""
    return max(1, min(_BLOCK_ROWS // d1,
                      _BLOCK_ENTRIES // (d1 * (d1 + 2 * d2))))


def propagate_reduced(sys: BlockSystem, v1_0: np.ndarray,
                      f1: ForcingSignal, times: np.ndarray) -> Trajectory:
    """Integrate the reduced open equation with memory convolution.

    Trapezoidal rule in time applied to the whole right-hand side, with
    trapezoidal quadrature of the memory integral over [0, t] (zero
    history before t = 0); global error versus the projected full
    trajectory is O(h^2).  The quadrature is carried by the modal history
    R_n = sum_k w_k E^(n-k) M^dag v_k (E = diag(exp(-i w h)), w_0 = 1/2,
    w_k = 1): R_{n+1} = E R_n + M^dag v_{n+1}, and the memory at t_n is
    h M (R_n - M^dag v_n / 2).  Each step is v_{n+1} = A v_n + B R_n + c_n.

    So the state x_n = (v_n, R_n) obeys one linear time-invariant
    recurrence x_{n+1} = T x_n + inject c_n, with inject = [I; M^dag] and
    T = inject [A B] + diag(0, E).  The steps are taken L at a time (the
    block convolution of Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
    Comput. 1985, on the exact modal recursion).  From x_0 = (v_0, R_0) a
    block's states are

        v_{j+1} = [I 0] T^(j+1) x_0 + sum_{k<=j} D_{j-k} c_k,

    with D_m = [I 0] T^m inject (D_0 = I).  The rows [I 0] T^(j+1),
    j < L, are built once, and T itself is never formed: with
    G_l = B E^l M^dag (plus A for l = 0), D_j = sum_{i<j} D_i G_(j-1-i),
    one product a step, and [I 0] T^(j+1) = [D_j A, sum_{i<=j} D_i B
    E^(j-i)], whose R columns are one cumulative sum over j.  A block is
    then one product of that map with x_0; the forcing of every block is
    one product with the lower block-Toeplitz map whose m-th block
    diagonal is D_m, taken a diagonal at a time; and R_L = E^L R_0 +
    sum_k E^(L-k) M^dag v_k carries the history exactly to the next
    block.  No system is solved besides the d1 x d1 one of the step.

    The cube's mirror fold (:class:`opensys.lattice.Fold`) splits the
    equation into independent sectors: Omega1, the coupling columns of
    each sector's modes of ``make_kernel(sys)``, v1 and the forcing are
    taken into the sector coordinates by sums over the reflections, and
    the states are unfolded to the cube's sites at the end.  A system of
    matrices, and a lattice centred on no axis, is one sector with the
    identity fold; a cube with no site has no sector, and its trajectory
    is (nt, 0).  Sectors with the same number of cube coordinates run as
    one batch with a leading sector axis, their modes padded with zero
    columns to the batch's largest count.

    In a sector of d1 coordinates and d2 modes, L = 128 // d1, lowered so
    that the two matrices a block streams through, L d1 (d1 + 2 d2)
    entries, stay within 2^16 complex entries (1 MiB, which a core's L2
    cache holds), and to sqrt(steps), since building the powers takes L
    Python-level iterations and the run steps / L; at least 1.  Cost per
    sector: O(steps d1 (d1 + d2)) time in steps / L blocks, plus
    O(L d1^2 (d1 + d2) + L^2 d1^3) for the powers (O(steps L d1^2) more
    with forcing), and O(steps d1) memory.  On the 3-d centred lattice
    the eight sectors each hold about an eighth of d1 and of d2, so a
    step costs about d1 (d1 + 2 d2) / 64 complex multiply-adds in each of
    them: about 37k in all at box 14, cube 4, against 294k unfolded.

    Valid in the regime the reduced equation is derived in: hidden initial
    state zero and no hidden forcing.
    """
    times = np.asarray(times, dtype=float)
    fold, start, parts = _folded(sys, v1_0)
    forcing = None if f1.samples is None else \
        fold.coordinates(f1.sampled(len(times), sys.d1).T)  # (sectors, R, nt)
    return Trajectory(times, fold.sites(
        _reduced_states(fold, start, parts, forcing, times)).T)


def _folded(sys: BlockSystem, v1_0: np.ndarray
            ) -> tuple[Fold, np.ndarray, list]:
    """The cube's fold, the coordinates of ``v1_0`` in its sectors, and for
    each of its groups Omega1's (m, g, g) blocks and the values (m, p) and
    folded columns (m, g, p) of the modes of ``make_kernel(sys)``: what
    the reduced equation reads, built once per call."""
    v = np.asarray(v1_0, dtype=complex)
    if v.shape != (sys.d1,):
        raise DimensionMismatchError(f"v1_0 shape {v.shape} != ({sys.d1},)")
    fold = Fold.of(sys.lattice, True, sys.d1)
    kernel = make_kernel(sys, OBSERVABLE)
    return fold, fold.coordinates(v), list(zip(
        fold.blocks(sys.omega1),
        fold.columns(kernel.eigvals, kernel.coupling_modes, kernel.sectors)))


def _reduced_states(fold: Fold, start: np.ndarray, parts: list,
                    forcing: np.ndarray | None, times: np.ndarray
                    ) -> np.ndarray:
    """The (sectors, R, nt) states of the reduced equation on ``times``,
    from the :func:`_folded` start and parts and the forcing in sector
    coordinates or None."""
    h, nt = _uniform_step(times), len(times)
    out = np.zeros((*fold.keep.shape, nt), dtype=complex)
    for (sector, rep), (omega1, (w, modes)) in zip(fold.groups, parts):
        at = sector[:, None], rep
        out[at] = _sector_states(omega1, modes, w, start[at],
                                 None if forcing is None else forcing[at],
                                 h, nt)
    return out


def _sector_states(omega1: np.ndarray, modes: np.ndarray, w: np.ndarray,
                   v: np.ndarray, f: np.ndarray | None, h: float, nt: int
                   ) -> np.ndarray:
    """The block recurrence of :func:`propagate_reduced` on a batch of
    sectors: Omega1 (s, d1, d1), the modes' coupling columns (s, d1, d2),
    their frequencies (s, d2), the initial states (s, d1) and the forcing
    (s, d1, nt) or None, all in sector coordinates.  Returns the states
    (s, d1, nt)."""
    s, d1, d2 = modes.shape
    modes_dag = modes.conj().transpose(0, 2, 1).astype(complex)
    # L: building the L powers and taking the steps / L blocks are each a
    # Python-level loop, so L is at most sqrt(steps)
    block = min(_block_length(d1, d2), max(1, math.isqrt(nt - 1)))
    powers = np.exp(-1j * h * w[:, None, :]
                    * np.arange(block + 1)[:, None])  # E^m, m = 0..L
    k0 = modes @ modes_dag
    eye = np.eye(d1)

    # (I + (h/2) i Omega1 + (h^2/4) K0) v_{n+1} = known terms, so
    # v_{n+1} = [A B] (v_n, R_n) + c_n
    lhs = eye + (h / 2) * 1j * omega1 + (h * h / 4) * k0
    step = np.linalg.solve(lhs, np.concatenate([
        eye - (h / 2) * 1j * omega1 + (h * h / 4) * k0,
        (-h * h / 2) * modes * (1 + powers[:, 1, None])], axis=2))
    # D_j = sum_{i<j} D_i G_(j-1-i), with G_l = B E^l M^dag + [l = 0] A:
    # spread[:, :, j d1:] starts with D_j, gains[:, l d1:] with G_(L-1-l)
    gains = (step[:, None, :, d1:] * powers[:, block - 1::-1, None]).reshape(
        s, block * d1, d2) @ modes_dag
    gains[:, -d1:] += step[..., :d1]
    spread = np.zeros((s, d1, block * d1), dtype=complex)
    spread[..., :d1] = eye
    for j in range(1, block):
        spread[..., j * d1:(j + 1) * d1] = spread[..., :j * d1] \
            @ gains[:, (block - j) * d1:]
    # prop[:, j] = [I 0] T^(j+1) = [D_j A, sum_{i<=j} D_i B E^(j-i)]
    diagonals = spread.reshape(s, d1, block, d1).swapaxes(1, 2)
    prop = (diagonals.reshape(s, block * d1, d1) @ step).reshape(
        s, block, d1, d1 + d2)
    prop[..., d1:] = powers[:, :block, None] * np.cumsum(
        prop[..., d1:] * powers[:, :block, None].conj(), axis=1)
    prop = prop.reshape(s, block * d1, d1 + d2)  # the L states from x_0

    count = -(-(nt - 1) // block)  # blocks; the last one may overrun
    forced = None
    if f is not None:
        # c_n, zero-padded to whole blocks, through the lower block-Toeplitz
        # map with D_m on its m-th block diagonal
        c = np.zeros((s, count * block, d1), dtype=complex)
        c[:, :nt - 1] = np.linalg.solve(
            lhs, (h / 2) * (f[..., :-1] + f[..., 1:])).swapaxes(1, 2)
        forced = np.zeros((s, count, block, d1), dtype=complex)
        for m in range(block):
            forced[:, :, m:] += c.reshape(forced.shape)[:, :, :block - m] \
                @ diagonals[:, m, None].swapaxes(2, 3)
        forced = forced.reshape(s, count, block * d1, 1)
    # column block k holds E^(L-1-k) M^dag
    hist_out = (powers[:, block - 1::-1].transpose(0, 2, 1)[..., None]
                * modes_dag[:, :, None, :]).reshape(s, d2, block * d1)
    carry = powers[:, block, :, None]  # E^L

    states = np.empty((s, 1 + count * block, d1), dtype=complex)
    states[:, 0] = v
    state = np.concatenate([v, 0.5 * (modes_dag @ v[..., None])[..., 0]],
                           axis=1)[..., None]  # (v_0, R_0)
    now, history = state[:, :d1], state[:, d1:]
    for b, x in enumerate(states[:, 1:].reshape(s, count, block * d1, 1)
                          .transpose(1, 0, 2, 3)):  # x: the block's states
        np.matmul(prop, state, out=x)
        if forced is not None:
            x += forced[:, b]
        now[...] = x[:, -d1:]
        history *= carry
        history += hist_out @ x
    return states[:, :nt].transpose(0, 2, 1)


def reduction_discrepancy(sys: BlockSystem, v1_0: np.ndarray, t_max: float,
                          steps: int) -> dict:
    """Sup-norm gap between the reduced propagation and the projected full one.

    Runs the reduced equation at ``steps`` and ``2 * steps`` (hidden
    initial state zero, no forcing) against the exact full propagation on
    the fine grid; reports both gaps and the empirical convergence order
    log2(coarse / fine), near 2 for a second-order reduced stepper.  The
    cube's fold, Omega1's blocks and the kernel's folded columns are built
    once and serve both runs.  The reference takes the cube's rows of
    Omega's eigenvectors into the cube's sector coordinates, each
    eigenvector into the one sector that :meth:`~opensys.systems.
    BlockSystem.observable_eigenpairs` gives it, and takes the phase
    product sector by sector; a system of matrices is one sector.  The
    sector basis is orthonormal, so each time's gap is the 2-norm over
    (sector, representative) of the difference of the coordinates, and no
    state is unfolded to the cube's sites.
    """
    fine_grid = make_grid(t_max, 2 * steps)
    fold, start, parts = _folded(sys, v1_0)
    # the hidden initial state is zero, so the reference reads U[:d1] only
    full = np.zeros((*fold.keep.shape, len(fine_grid)), dtype=complex)
    for (sector, rep), eigenpairs in zip(
            fold.groups, fold.columns(*sys.observable_eigenpairs())):
        at = sector[:, None], rep
        full[at] = _exact_states(None, start[at], ForcingSignal.zero(),
                                 fine_grid, rep.shape[1],
                                 eigenpairs=eigenpairs).swapaxes(1, 2)

    def gap(stride: int) -> float:
        red = _reduced_states(fold, start, parts, None, fine_grid[::stride])
        return float(np.max(np.linalg.norm(full[..., ::stride] - red,
                                           axis=(0, 1))))

    coarse, fine = gap(2), gap(1)
    if fine > 0:
        order = float(np.log2(coarse / fine))
    else:
        order = float("inf") if coarse > 0 else 0.0
    return {
        "t_max": t_max,
        "steps": steps,
        "sup_diff_coarse": coarse,
        "sup_diff_fine": fine,
        "order": order,
    }


@dataclass(frozen=True)
class NoGainResult:
    """Outcome of the dissipation quadratic-form check over random signals."""

    min_value: float
    values: np.ndarray
    quad_error_bound: float

    @property
    def passed(self) -> bool:
        return self.min_value >= -self.quad_error_bound


def _bump_profile(times: np.ndarray, a: float, b: float) -> np.ndarray:
    """C^1 compactly supported polynomial bump on (a, b), peak height 1.

    Each factor is scaled by the half-width before squaring, so the
    profile neither overflows nor underflows at any finite span.
    """
    c = (b - a) / 2
    t = np.clip(times, a, b)  # so a factor is 0 outside (a, b)
    return (((t - a) / c) * ((b - t) / c)) ** 2


def no_gain_check(kernel: ResponseKernel, trials: int, times: np.ndarray,
                  seed: int) -> NoGainResult:
    """Minimum of Re  iint_{0 <= tau <= t <= T} conj(v(t)) a(tau) v(t-tau)
    over test signals.

    Signals are polynomial bumps on random subintervals of the grid times
    random complex vectors, deterministic per seed.  A bump is at least a
    quarter of the span wide, so on a grid of at least 5 steps it holds a
    grid point (one cut off at either end holds that end point); shorter
    grids are rejected, where a bump between grid points would read 0 and
    pass unchecked.

    For a signal p(t) u the integrand separates in the kernel modes,
    g[i, j] = p_i p_{i-j} r_j with r_j = sum_m q_m cos(w_m tau_j) and
    q = |M^dag u|^2.  The double integral is the trapezoid over the
    triangle 0 <= tau <= t <= T, where g is smooth also for a bump cut off
    at t = 0: the square rule's weights w_i w_j, halved on the diagonal
    tau = t.  Its square part is sum_j w_j r_j c_j with the weighted
    autocorrelation c_j = sum_i w_i p_i p_{i-j}, one ``np.correlate`` over
    the bump's support; the diagonal takes away
    (1/2) p_0 sum_i w_i^2 p_i r_i, which is zero unless the bump is cut
    off at t = 0.

    The error bound is the composite-trapezoid estimate
    (h^2/12) (T^2/2) (G_tt + G_tautau) over the triangle's area, with the
    sup norms of the second derivatives of g bounded in closed form,
    G_tt = (2 |p| |p''| + 2 |p'|^2) |r| and
    G_tautau = |p| (|p''| |r| + 2 |p'| |r'| + |p| |r''|).  For the bump of
    half-width c, |p| = 1, |p'| = 8 / (3 sqrt(3) c) and |p''| = 8 / c^2;
    |r| <= sum q_m, |r'| <= sum q_m |w_m| and |r''| <= sum q_m w_m^2.
    So the bound falls as h^2 on every trial.  The products are formed
    from h / c and h w first; a value or bound that still is not finite
    raises ``ValueError``.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    times = np.asarray(times, dtype=float)
    h = _uniform_step(times)
    span = times[-1] - times[0]
    nt = len(times)
    if nt < 6:  # from 5 steps on, h < span / 4 and every bump holds a point
        raise ValueError(f"no-gain check needs at least 5 steps, "
                         f"got {nt - 1}")
    d = kernel.dim
    cos_modes = np.cos(np.outer(times - times[0], kernel.eigvals))
    step_freqs = h * np.abs(kernel.eigvals)  # h |w|
    rng = np.random.default_rng(seed)

    weights = np.full(nt, h)
    weights[0] = weights[-1] = h / 2

    values, bounds = np.zeros((2, trials))
    # a span too wide for floats overflows here; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(trials):
            lo, hi = np.sort(rng.uniform(times[0], times[-1], size=2))
            if hi - lo < span / 4:  # keep a few dozen points under the bump
                mid = (lo + hi) / 2
                lo, hi = mid - span / 8, mid + span / 8
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            u /= np.linalg.norm(u)
            profile = _bump_profile(times, lo, hi)
            a, b = np.flatnonzero(profile)[[0, -1]] + [0, 1]  # the support
            q = np.abs(kernel.coupling_modes.conj().T @ u) ** 2
            r = cos_modes @ q
            p = profile[a:b]
            # c_j for j < b - a
            c = np.correlate(weights[a:b] * p, p, "full")[b - a - 1:]
            # the square's sum, less half its diagonal tau = t (p_0 p_i r_i)
            values[trial] = ((weights[:b - a] * r[:b - a]) @ c
                             - profile[0] / 2 * ((weights ** 2 * profile) @ r))

            k = h / ((hi - lo) / 2)  # h / c
            k1, k2 = 8 / (3 * math.sqrt(3)) * k, 8 * k * k  # h |p'|, h^2 |p''|
            # h^2 (G_tt + G_tautau)
            curvature = ((3 * k2 + 2 * k1 * k1) * q.sum()
                         + 2 * k1 * (q @ step_freqs) + q @ step_freqs ** 2)
            bounds[trial] = span * (span * curvature) / 24
    if not np.isfinite([values, bounds]).all():
        raise ValueError(f"no-gain form is not finite on the grid of {nt - 1} "
                         f"steps over [{times[0]:g}, {times[-1]:g}]")
    return NoGainResult(min_value=float(np.min(values)), values=values,
                        quad_error_bound=float(bounds.max()))


# --- CSV export ------------------------------------------------------------

def _write_csv(path: str, times: np.ndarray, values: np.ndarray,
               names: list[str]) -> None:
    """Columns ``time``, then ``re_<name>`` and ``im_<name>`` for each
    column of the complex (n_times, m) ``values``; floats are written by
    ``repr``, one row at a time.
    """
    values = np.ascontiguousarray(values, dtype=complex)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *(f"{part}_{name}" for name in names
                                   for part in ("re", "im"))])
        # a complex row viewed as floats is its re, im pairs interleaved
        writer.writerows([t, *row.view(np.float64).tolist()]
                         for t, row in zip(times.tolist(), values))


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Columns: time, then ``re_i``, ``im_i`` per state component."""
    _write_csv(path, traj.times, traj.states,
               [str(i) for i in range(traj.states.shape[1])])


def kernel_to_csv(kernel: ResponseKernel, times: np.ndarray, path: str) -> None:
    """Columns: time, then ``re_i_j``, ``im_i_j`` per entry, row-major."""
    times = np.asarray(times, dtype=float)
    d = kernel.dim
    _write_csv(path, times, kernel.on_grid(times).reshape(len(times), d * d),
               [f"{i}_{j}" for i in range(d) for j in range(d)])
