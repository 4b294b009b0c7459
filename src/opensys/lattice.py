"""Discrete Laplacian lattice with a cube subsystem as the observable part.

The ambient operator is the nearest-neighbor second-difference Laplacian
on a finite box of the integer lattice (zero/Dirichlet truncation outside
the box).  The observable space is the set of functions supported on a
cube of side N inside the box; the coupling links only the surface sites
of the cube to their exterior neighbors, so the coupling rank is bounded
by the number of surface sites, N^3 - (N-2)^3 = 6N^2 - 12N + 8 in three
dimensions, and the spectral multiplicity of the coupled core by twice
that.  A ``dims`` knob generalizes to 1-d and 2-d analogues for cheap
high-coverage testing.

A lattice system file holds the spec, not the matrices: the header
``d1``, ``d2``, ``tol`` and a ``lattice`` block (:func:`spec_to_dict`),
from which loading builds the system (:func:`spec_from_dict`).  A system
built from a spec keeps it, and gives the eigenpairs of its Omega in
closed form (:func:`omega_eigenpairs`), with no ``eigh``, or the
eigenvalues and the cube's rows of the eigenvectors alone
(:func:`observable_eigenpairs`), with no n x n matrix, each eigenvector
with the reflection sector its parities select.  The delayed-response
kernel of every system takes its blocks one reflection sector at a time
(:func:`sector_modes`); a system of matrices is one sector.

The infinite-lattice statements (infinite multiplicity of the ambient
operator, infinitely many decoupled hidden modes) are only checked here
in weakened, box-size-robust forms: the multiplicity bound of the coupled
core is independent of the box size, and the decoupled hidden part is
reported to be nonempty.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .subspaces import DEFAULT_TOL
from .systems import BlockSystem, is_json_number, read_header
from . import decomposition as dc


@dataclass(frozen=True)
class LatticeSpec:
    """Box of ``box`` sites per axis with an observable cube of side ``cube``.

    ``offset`` is the low corner of the cube; the cube is *interior* when
    it keeps a margin of at least one site on every axis, which is the
    regime in which the surface-count formula describes the coupling.
    ``tol`` must be positive and finite, as the system's.
    """

    box: int
    cube: int
    offset: tuple[int, ...]
    dims: int = 3
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2, or 3, got {self.dims}")
        if self.cube < 1 or self.box < self.cube:
            raise ValueError(
                f"need 1 <= cube <= box, got cube={self.cube} box={self.box}"
            )
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        offset = tuple(operator.index(o) for o in self.offset)
        if len(offset) != self.dims:
            raise ValueError(
                f"offset {offset} has wrong length for dims={self.dims}"
            )
        for o in offset:
            if o < 0 or o + self.cube > self.box:
                raise ValueError(f"cube at offset {offset} leaves the box")
        object.__setattr__(self, "offset", offset)

    @property
    def interior(self) -> bool:
        """Margin of at least one site between cube and box boundary."""
        return all(o >= 1 and o + self.cube <= self.box - 1
                   for o in self.offset)

    @classmethod
    def centered(cls, box: int, cube: int, dims: int = 3,
                 tol: float = DEFAULT_TOL) -> "LatticeSpec":
        off = (box - cube) // 2
        return cls(box=box, cube=cube, offset=(off,) * dims, dims=dims, tol=tol)


def surface_count(n: int, dims: int = 3) -> int:
    """Number of surface sites of a side-n cube: n^dims - (n-2)^dims.

    For dims=3 and n >= 2 this is 6n^2 - 12n + 8.  n = 1 is the special
    single-site cube, all of which is surface.
    """
    if n <= 0:
        raise ValueError(f"cube side must be positive, got {n}")
    if n == 1:
        return 1
    return n ** dims - (n - 2) ** dims


def multiplicity_bound(n: int, dims: int = 3) -> int:
    """Bound on the coupled-core multiplicity: twice the surface count.

    For dims=3 and n >= 2 this is 12n^2 - 24n + 16.
    """
    return 2 * surface_count(n, dims)


def _cube_first(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """The coordinates of the box's sites, shape (dims, n), in lexicographic
    order; the site order of the system, the cube's sites first (each part
    lexicographic); and the cube's site count."""
    coords = np.indices((spec.box,) * spec.dims).reshape(spec.dims, -1)
    low = np.array(spec.offset)[:, None]
    in_cube = np.all((coords >= low) & (coords < low + spec.cube), axis=0)
    order = np.concatenate([np.flatnonzero(in_cube), np.flatnonzero(~in_cube)])
    return coords, order, int(np.count_nonzero(in_cube))


def build_lattice_system(spec: LatticeSpec) -> BlockSystem:
    """Assemble the box Laplacian split into cube and exterior blocks.

    Sites of the cube are ordered first (lexicographically), then the
    exterior sites; the stencil places -2*dims on the diagonal and +1 on
    in-box nearest neighbors, so the operator is exactly symmetric with
    integer entries.  Sites are numbered by index arithmetic: along axis
    j the +1 neighbor of a site is ``box**(dims-1-j)`` further in
    lexicographic order, and each pair is written straight into its
    permuted position of the one n x n matrix.  The system keeps
    ``spec``, so that it gives the eigenpairs of Omega in closed form
    (:func:`omega_eigenpairs`) when they are asked for.
    """
    coords, order, d1 = _cube_first(spec)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    omega = np.zeros((order.size, order.size))
    np.fill_diagonal(omega, -2.0 * spec.dims)
    for j in range(spec.dims):
        site = np.flatnonzero(coords[j] < spec.box - 1)
        here = position[site]
        there = position[site + spec.box ** (spec.dims - 1 - j)]
        omega[here, there] = omega[there, here] = 1.0
    return BlockSystem(
        omega1=omega[:d1, :d1],
        omega2=omega[d1:, d1:],
        gamma=omega[:d1, d1:],
        tol=spec.tol,
        lattice=spec,
    )


def _kron_eigenpairs(spec: LatticeSpec, rows: list[slice], order: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues, ascending, the matching columns of the Kronecker
    product of the rows ``rows[j]`` of axis j's DST-I matrix, taken in the
    row order ``order``, and their flat indices (k_1 - 1, ..., k_dims - 1)
    (:func:`_eigen_order`)."""
    m = spec.box + 1
    k = np.arange(1, m)
    # the argument reduced modulo 2 pi exactly, in integers
    sine = np.sqrt(2.0 / m) * np.sin(np.pi * (np.outer(k, k) % (2 * m)) / m)
    values, columns = _eigen_order(spec)
    vectors = functools.reduce(np.kron, [sine[r] for r in rows])
    return values, vectors[np.ix_(order, columns)], columns


def _eigen_order(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The box Laplacian's eigenvalues, ascending, and the flat indices
    (k_1 - 1, ..., k_dims - 1) of their DST-I columns in that order."""
    axis = 2.0 * np.cos(np.pi * np.arange(1, spec.box + 1) / (spec.box + 1)) \
        - 2.0
    values = functools.reduce(np.add.outer, [axis] * spec.dims).ravel()
    columns = np.argsort(values, kind="stable")
    return values[columns], columns


def omega_eigenpairs(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors of the box
    Laplacian of ``spec``, in closed form: no ``eigh``.

    With m = box + 1, the second difference on the box sites of one axis
    has the eigenvalues -2 + 2 cos(pi k / m), k = 1..box, and as its
    eigenvectors the columns of the orthogonal DST-I matrix
    S[x, k] = sqrt(2 / m) sin(pi (x + 1) k / m).  The box Laplacian is
    the Kronecker sum of ``dims`` of these, so its eigenvalues are the
    sums -2 dims + 2 sum_j cos(pi k_j / m) and its eigenvectors the
    Kronecker products of the S (Strang, *SIAM Review* 41, 1999).  The
    rows come in the site order of :func:`build_lattice_system`, the
    cube first, and the columns in ascending order of the eigenvalues.
    """
    return _kron_eigenpairs(spec, [slice(None)] * spec.dims,
                            _cube_first(spec)[1])[:2]


def observable_eigenpairs(spec: LatticeSpec
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues of :func:`omega_eigenpairs`, the first d1 rows of
    its eigenvectors, those of the cube, and the reflection sector of each
    eigenvector (:class:`Fold`).  The rows are built alone: the cube's
    sites come first and in lexicographic order, so their rows are the
    Kronecker product of the ``cube x box`` slices of the axes' DST-I
    matrices at the cube's offset.  It holds d1 x n entries and no n x n
    matrix.  Axis j's DST-I column k is even under the axis's mirror for
    odd k and odd for even k, so sector sigma has bit i set where k is
    even on the i-th centred axis."""
    cube = [slice(o, o + spec.cube) for o in spec.offset]
    values, rows, columns = _kron_eigenpairs(
        spec, cube, np.arange(spec.cube ** spec.dims))
    axes = np.flatnonzero(2 * np.array(spec.offset) == spec.box - spec.cube)
    k = columns[:, None] // spec.box ** (spec.dims - 1 - axes) % spec.box + 1
    return values, rows, (1 - k % 2) @ 2 ** np.arange(len(axes))


@dataclass(frozen=True)
class Fold:
    """The mirror fold of the cube's sites, or of the rest of the box's.

    An axis is centred when 2 offset + cube = box; the reflections pi_k,
    k in {0, 1}^a, of the a centred axes then commute with Omega and map
    each block onto itself.  The representatives b are the part's sites
    with 2 x_j <= box - 1 on every centred axis, and |S_b| is 2 to the
    number of those axes whose mid-plane 2 x_j = box - 1 holds b.  Sector
    sigma, with the character chi_sigma(k) = (-1)^(sigma . k), has the
    orthonormal basis e_(sigma, b) = sum_k chi_sigma(k) e_(pi_k b) /
    sqrt(2^a |S_b|) over the b on no mid-plane of an axis where sigma is
    odd (Fassler & Stiefel, *Group Theoretical Methods and Their
    Applications*, 1992).  ``images[k, b]`` is the part's index of
    pi_k b, ``sign[sigma, k]`` is chi_sigma(k), ``stab[b]`` is |S_b| and
    ``keep[sigma, b]`` tells whether sector sigma holds b.  Every sum of
    the fold runs over k, within one sector, so no entry between two
    sectors is formed; on the integer stencil the sums are exact.
    """

    images: np.ndarray
    sign: np.ndarray
    stab: np.ndarray
    keep: np.ndarray

    @classmethod
    @functools.lru_cache(maxsize=16)
    def of(cls, spec: LatticeSpec | None, cube: bool, size: int) -> "Fold":
        """The fold of the cube (``cube``) or of the rest of the box of
        ``spec``; with no spec, the identity of ``size`` sites, one
        sector.  A spec centred on no axis folds to the identity too.
        The last few folds are kept, so callers share them and must not
        write to their arrays."""
        if spec is None:
            return cls(np.arange(size)[None], np.ones((1, 1)),
                       np.ones(size, int), np.ones((1, size), bool))
        coords, order, d1 = _cube_first(spec)
        sites = order[:d1] if cube else order[d1:]
        position = np.empty_like(order)
        position[sites] = np.arange(sites.size)
        axes = np.flatnonzero(2 * np.array(spec.offset) == spec.box - spec.cube)
        x = coords[axes][:, sites]
        reps = np.flatnonzero(np.all(2 * x <= spec.box - 1, axis=0))
        x = x[:, reps]
        bits = np.arange(2 ** len(axes))[:, None] >> np.arange(len(axes)) & 1
        stride = spec.box ** (spec.dims - 1 - axes)
        mid = (2 * x == spec.box - 1).astype(int)
        return cls(position[sites[reps] + bits @ ((spec.box - 1 - 2 * x)
                                                  * stride[:, None])],
                   (-1.0) ** (bits @ bits.T), 2 ** mid.sum(axis=0),
                   bits @ mid == 0)

    def signed(self, x: np.ndarray) -> np.ndarray:
        """sum_k chi_sigma(k) x[k] over the leading axis of ``x``: one
        real product with the characters, the real and imaginary parts
        side by side, and none for the one sector of the identity."""
        if len(x) == 1:
            return x
        y = np.ascontiguousarray(x).reshape(len(x), -1)
        return (self.sign @ y.view(np.float64)).view(x.dtype).reshape(x.shape)

    @functools.cached_property
    def scale(self) -> np.ndarray:
        """sqrt(2^a |S_b|), the norm of sum_k e_(pi_k b), for each b."""
        return np.sqrt(len(self.sign) * self.stab)

    @functools.cached_property
    def groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each sector size g > 0, ascending: the sectors (m,) that
        hold g representatives, and those (m, g)."""
        sizes = self.keep.sum(axis=1)
        return [(sector, np.nonzero(self.keep[sector])[1].reshape(-1, size))
                for size in np.unique(sizes[sizes > 0])
                for sector in [np.flatnonzero(sizes == size)]]

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """The (sectors, R, ...) coordinates <e_(sigma, b), x> of ``x``,
        whose first axis runs over the part's sites."""
        return self.signed(x[self.images]) \
            / self.scale.reshape(-1, *[1] * (x.ndim - 1))

    def sites(self, coords: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`coordinates`, for coordinates that are zero
        where ``keep`` is False: x[pi_k b] = sum_sigma chi_sigma(k)
        sqrt(|S_b| / 2^a) x_(sigma, b).  A site on a mid-plane is pi_k b
        for several k, which all give it the same value."""
        out = np.empty((self.images.max(initial=-1) + 1, *coords.shape[2:]),
                       coords.dtype)
        out[self.images] = self.signed(coords) * (self.scale / len(
            self.sign)).reshape(-1, *[1] * (coords.ndim - 2))
        return out

    def blocks(self, op: np.ndarray) -> list[np.ndarray]:
        """For each of :attr:`groups`, the (m, g, g) blocks
        <e_(sigma, a), op e_(sigma, b)> = sum_k chi_sigma(k) op[a, pi_k b]
        / sqrt(|S_a| |S_b|) of an operator on the part that commutes with
        the reflections."""
        folded = self.signed(op[self.images[0][:, None], self.images[:, None, :]])
        folded /= np.sqrt(self.stab[:, None] * self.stab)  # a fresh array
        return [folded[sector[:, None, None], rep[:, :, None], rep[:, None, :]]
                for sector, rep in self.groups]

    def columns(self, values: np.ndarray, x: np.ndarray, labels: np.ndarray):
        """For each of :attr:`groups`: the values (m, p) of the columns of
        ``x`` that ``labels`` puts in each of its sectors, and those columns
        in the sector's coordinates, (m, g, p); a sector with fewer than p
        columns is padded with value 0 and zero columns.  No column is
        taken into another sector, so a column labelled with a sector it
        does not lie in keeps only its part in that sector."""
        order = np.concatenate([np.argsort(labels, kind="stable"), [-1]])
        counts = np.bincount(labels, minlength=len(self.sign))
        starts = np.cumsum(counts) - counts
        x = np.concatenate([x, np.zeros((len(x), 1))], axis=1)
        values = np.concatenate([values, [0.0]])
        for sector, rep in self.groups:
            slot = np.arange(counts[sector].max())
            cols = order[np.where(slot < counts[sector, None],
                                  slot + starts[sector, None], -1)]
            folded = np.einsum("sk,ksgp->sgp", self.sign[sector],
                               x[self.images[:, rep, None], cols[:, None]])
            yield values[cols], folded / self.scale[rep, None]


def sector_modes(sys: BlockSystem, hidden: bool
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues w of Omega2, the coupling columns Gamma U2 of its
    eigenvectors (of Omega1 and Gamma^dag U1 when ``hidden``) and the
    reflection sector of each, taken one sector of the :class:`Fold` at
    a time, with no d2 x d2 matrix: the one route of the kernel for every
    system.

    Sectors of one size take one batched ``eigh`` of their folded
    blocks; the values come sector by sector, ascending in each.  A
    system of matrices, and a spec centred on no axis, has the identity
    fold: the one sector 0 is the block, taken by one ``eigh``, whose
    values and columns are those of a plain ``eigh`` of the block.
    """
    block, coupling = ((sys.omega1, sys.gamma.conj()) if hidden
                       else (sys.omega2, sys.gamma.T))  # coupling rows: sites
    fold = Fold.of(sys.lattice, hidden, len(block))
    columns = fold.coordinates(coupling)
    # the sectors hold one mode a site, written in place group by group
    values, sectors = np.empty(len(block)), np.empty(len(block), int)
    modes = np.empty((coupling.shape[1], len(block)),
                     np.result_type(columns, block))
    end = 0
    for (sector, rep), folded in zip(fold.groups, fold.blocks(block)):
        w, v = np.linalg.eigh(folded)
        start, end = end, end + w.size
        values[start:end], sectors[start:end] = w.ravel(), sector.repeat(w.shape[1])
        modes[:, start:end].reshape(len(modes), *w.shape)[...] = (
            columns[sector[:, None], rep].transpose(0, 2, 1) @ v).transpose(1, 0, 2)
    return values, modes, sectors


# --- system files ------------------------------------------------------------

#: The fields of a file's ``lattice`` block that fix the spec.
SPEC_KEYS = ("box", "cube", "offset", "dims")


def spec_to_dict(spec: LatticeSpec) -> dict:
    """The system file of a lattice: its header and its spec, no matrices.

    ``d1`` and ``d2`` are the site counts of the cube and of the rest of
    the box.  ``surface_count`` and ``multiplicity_bound`` follow from the
    spec; they are written for readers of the file and not read back.
    """
    d1 = spec.cube ** spec.dims
    return {
        "d1": d1,
        "d2": spec.box ** spec.dims - d1,
        "tol": spec.tol,
        "lattice": {
            "box": spec.box,
            "cube": spec.cube,
            "offset": list(spec.offset),
            "dims": spec.dims,
            "surface_count": surface_count(spec.cube, spec.dims),
            "multiplicity_bound": multiplicity_bound(spec.cube, spec.dims),
        },
    }


def spec_from_dict(data: dict) -> LatticeSpec:
    """Inverse of :func:`spec_to_dict`, validated, not coerced.

    The header is read as for any system file.  ``box``, ``cube``,
    ``dims`` and every ``offset`` entry must be JSON integers, not
    floats or booleans, and ``d1`` and ``d2`` must be the site counts
    that the spec gives.  Every fault is a ValueError that names its key.
    """
    try:
        d1, d2, tol = read_header(data)
        block = data["lattice"]
        if not isinstance(block, dict):
            raise ValueError(f"lattice must be an object, got {block!r}")
        missing = [key for key in SPEC_KEYS if key not in block]
        if missing:
            raise ValueError(f"lattice block has no {missing[0]!r}")
        box, cube, offset, dims = (block[key] for key in SPEC_KEYS)
        if not isinstance(offset, list):
            raise ValueError(f"lattice offset must be a list, got {offset!r}")
        for key, value in (("box", box), ("cube", cube), ("dims", dims),
                           *(("offset", o) for o in offset)):
            if not is_json_number(value, int):
                raise ValueError(f"lattice {key} must be an integer, "
                                 f"got {value!r}")
        spec = LatticeSpec(box, cube, tuple(offset), dims, tol)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed system data: {exc}") from exc
    want = spec_to_dict(spec)
    for key, value in (("d1", d1), ("d2", d2)):
        if value != want[key]:
            raise ValueError(f"malformed system data: {key} = {value}, but "
                             f"the lattice spec gives {want[key]}")
    return spec


@dataclass(frozen=True)
class LatticeReport:
    """Decomposition and multiplicity evidence for one lattice configuration."""

    spec: LatticeSpec
    dims_report: dict[str, int]
    rank_gamma: int
    surface: int
    rank_within_surface: bool
    multiplicity_omega_c: int
    bound: int
    bound_satisfied: bool
    theorem: dc.TheoremReport

    def to_dict(self) -> dict:
        return {
            "box": self.spec.box,
            "cube": self.spec.cube,
            "offset": list(self.spec.offset),
            "lattice_dims": self.spec.dims,
            "subspace_dims": self.dims_report,
            "rank_gamma": self.rank_gamma,
            "surface_count": self.surface,
            "rank_within_surface": self.rank_within_surface,
            "multiplicity_omega_c": self.multiplicity_omega_c,
            "multiplicity_bound": self.bound,
            "bound_satisfied": self.bound_satisfied,
            "theorem": self.theorem.to_dict(),
        }


def verify_example(spec: LatticeSpec) -> LatticeReport:
    """Build the lattice system and check the example's dimension claims.

    Asserted facts: the coupling rank does not exceed the surface count,
    and the coupled-core multiplicity does not exceed twice the surface
    count (independent of the box size).  The decoupled hidden dimension
    is reported as evidence of hidden degrees of freedom the cube cannot
    detect; at finite truncation it is an observation, not a theorem.
    """
    if not spec.interior:
        raise ValueError("verify_example requires an interior cube (margin >= 1)")
    sys = build_lattice_system(spec)
    dec = dc.decompose(sys)
    theorem = dc.verify_theorem(sys, dec)
    rank = dec.ran_gamma.dim
    surface = surface_count(spec.cube, spec.dims)
    bound = multiplicity_bound(spec.cube, spec.dims)
    mult = theorem.multiplicity_omega_c
    return LatticeReport(
        spec=spec,
        dims_report=dec.dims,
        rank_gamma=rank,
        surface=surface,
        rank_within_surface=rank <= surface,
        multiplicity_omega_c=mult,
        bound=bound,
        bound_satisfied=mult <= bound,
        theorem=theorem,
    )
