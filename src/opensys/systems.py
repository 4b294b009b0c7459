"""Data model for conservative systems split into observable and hidden parts.

A :class:`BlockSystem` holds the triple (Omega1, Omega2, Gamma): the
Hermitian frequency operators of the observable and hidden blocks and the
coupling operator mapping hidden to observable variables.  The full
frequency operator is assembled as

    Omega = [[Omega1, Gamma  ],
             [Gamma^dag, Omega2]]

Systems serialize to compact one-line JSON.  Each matrix is one ASCII
string: the base64 of its row-major entries as little-endian float64
bytes, as they lie in memory, so a real matrix gives one double an
entry and a complex one its re, im pair in place.  The double count
gives the dtype back, so the round trip is bit-exact and dtype-exact.
Files that store a matrix as a list of numbers, one an entry or an
[re, im] pair an entry, still load.  A lattice file holds no matrices:
its header and its spec (:func:`opensys.lattice.spec_to_dict`), from
which loading builds the system.
"""

from __future__ import annotations

import base64
import json
import os
import secrets
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .subspaces import (
    DEFAULT_TOL,
    DimensionMismatchError,
    as_field,
    check_hermitian,
)

if TYPE_CHECKING:
    from .lattice import LatticeSpec


@dataclass(frozen=True)
class BlockSystem:
    """Conservative system (Omega1, Omega2, Gamma) with rank tolerance.

    The tolerance must be positive and finite and every entry finite: a
    NaN would pass every later comparison.  Hermiticity of the diagonal
    blocks is validated on construction and then enforced exactly by
    symmetrization, so downstream eigensolvers always receive exactly
    Hermitian input.  The three blocks share one
    dtype: float64 when all are real, complex128 otherwise.  Each is a
    copy the system owns, so writing to the caller's arrays leaves it
    unchanged and a block never keeps a larger matrix alive.
    ``lattice`` is the :class:`~opensys.lattice.LatticeSpec` that
    :func:`~opensys.lattice.build_lattice_system` built the blocks from,
    and None for a system of matrices.
    """

    omega1: np.ndarray
    omega2: np.ndarray
    gamma: np.ndarray
    tol: float = DEFAULT_TOL
    lattice: LatticeSpec | None = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        for name in ("omega1", "omega2", "gamma"):
            if not np.isfinite(as_field(getattr(self, name))).all():
                raise ValueError(f"{name} has an entry that is not finite")
        o1 = check_hermitian(self.omega1, self.tol, "omega1")
        o2 = check_hermitian(self.omega2, self.tol, "omega2")
        g = as_field(self.gamma)
        if g.ndim != 2 or g.shape != (o1.shape[0], o2.shape[0]):
            raise DimensionMismatchError(
                f"gamma shape {g.shape} incompatible with blocks "
                f"{o1.shape[0]}x{o2.shape[0]}"
            )
        dtype = np.result_type(o1, o2, g)
        object.__setattr__(self, "omega1", o1.astype(dtype, copy=False))
        object.__setattr__(self, "omega2", o2.astype(dtype, copy=False))
        object.__setattr__(self, "gamma", g.astype(dtype))

    @property
    def d1(self) -> int:
        return self.omega1.shape[0]

    @property
    def d2(self) -> int:
        return self.omega2.shape[0]

    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues, ascending, and orthonormal eigenvectors of the full
        Omega: in closed form for a lattice built from its spec
        (:func:`opensys.lattice.omega_eigenpairs`), else one ``eigh`` of
        the assembled matrix, which is exactly Hermitian."""
        if self.lattice is None:
            return np.linalg.eigh(assemble_full(self).omega)
        from .lattice import omega_eigenpairs  # lattice imports this module
        return omega_eigenpairs(self.lattice)

    def observable_eigenpairs(self
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The eigenvalues of :meth:`eigenpairs`, the first d1 rows of its
        eigenvectors and the reflection sector of each eigenvector: built
        alone in closed form for a lattice built from its spec, with no
        n x n matrix, and the sectors its DST parities select
        (:func:`opensys.lattice.observable_eigenpairs`); else rows of the
        one ``eigh``, all in sector 0."""
        if self.lattice is None:
            values, vectors = self.eigenpairs()
            return values, vectors[:self.d1], np.zeros(len(values), int)
        from .lattice import observable_eigenpairs
        return observable_eigenpairs(self.lattice)


@dataclass(frozen=True)
class FullOperator:
    """Assembled Hermitian frequency operator with its block split (d1, d2)."""

    omega: np.ndarray
    split: tuple[int, int]

    def __post_init__(self):
        omega = as_field(self.omega)
        d1, d2 = self.split
        if omega.shape != (d1 + d2, d1 + d2):
            raise DimensionMismatchError(
                f"operator shape {omega.shape} != split {self.split}"
            )
        object.__setattr__(self, "omega", omega)

    @property
    def dim(self) -> int:
        return self.omega.shape[0]


def assemble_full(sys: BlockSystem) -> FullOperator:
    """Assemble [[Omega1, Gamma], [Gamma^dag, Omega2]] by direct placement."""
    d1, d2 = sys.d1, sys.d2
    omega = np.zeros((d1 + d2, d1 + d2), dtype=sys.gamma.dtype)
    omega[:d1, :d1] = sys.omega1
    omega[d1:, d1:] = sys.omega2
    omega[:d1, d1:] = sys.gamma
    omega[d1:, :d1] = sys.gamma.conj().T
    return FullOperator(omega, (d1, d2))


def random_system(d1: int, d2: int, coupling_rank: int, seed: int,
                  tol: float = DEFAULT_TOL) -> BlockSystem:
    """Deterministic pseudo-random system with coupling of exact rank.

    The Hermitian blocks are GOE-style with entries scaled by 1/sqrt(dim)
    so the spectral norm is O(1) independent of dimension (frequency units
    normalized); the coupling is a sum of ``coupling_rank`` outer products
    of normalized random vectors.  The same seed reproduces the system
    bit-for-bit.
    """
    if not 0 <= coupling_rank <= min(d1, d2):
        raise ValueError(
            f"coupling rank {coupling_rank} outside [0, {min(d1, d2)}]"
        )
    rng = np.random.default_rng(seed)

    def hermitian(d: int) -> np.ndarray:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (g + g.conj().T) / (2.0 * np.sqrt(max(d, 1)))

    omega1 = hermitian(d1)
    omega2 = hermitian(d2)
    gamma = np.zeros((d1, d2), dtype=complex)
    for _ in range(coupling_rank):
        u = rng.standard_normal(d1) + 1j * rng.standard_normal(d1)
        v = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
        gamma += np.outer(u / np.linalg.norm(u), (v / np.linalg.norm(v)).conj())
    return BlockSystem(omega1, omega2, gamma, tol)


# --- serialization ---------------------------------------------------------

def encode_matrix(m: np.ndarray) -> str:
    """The row-major entries of ``m`` as base64 of ``"<f8"`` bytes.

    A float64 matrix gives one double an entry; a complex128 one gives
    each entry's re, im pair in place.  The text does not depend on the
    byte order of ``m``.
    """
    flat = as_field(m).ravel().view(np.float64).astype("<f8", copy=False)
    return base64.b64encode(flat).decode("ascii")


def decode_matrix(data: str | list, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`encode_matrix`; the double count gives the dtype.

    ``rows * cols`` doubles decode as float64, ``2 * rows * cols`` as
    complex128.  A string must be strict base64 of whole doubles.  A list
    of numbers, the layout of older files, is read in row-major order, so
    one number an entry decodes as float64 and one [re, im] pair an entry
    as complex128.  A list must be flat or of shape (rows, cols, 2).
    """
    if isinstance(data, str):
        flat = np.frombuffer(base64.b64decode(data, validate=True), "<f8")
    else:
        flat = np.asarray(data)
        if flat.dtype.kind not in "iuf":
            raise ValueError(f"matrix entries must be numbers, got {flat.dtype}")
        if flat.ndim != 1 and flat.shape != (*shape, 2):
            raise ValueError(f"{shape[0]}x{shape[1]} matrix must be a flat "
                             f"list or pairs, got nesting {flat.shape}")
    flat = flat.astype(np.float64, copy=False).ravel()
    count = shape[0] * shape[1]
    if flat.size == count:
        return flat.reshape(shape)
    if flat.size == 2 * count:
        return flat.view(np.complex128).reshape(shape)
    raise ValueError(f"{shape[0]}x{shape[1]} matrix has {flat.size} numbers, "
                     f"expected {count} (real) or {2 * count} (complex)")


def system_to_dict(sys: BlockSystem) -> dict:
    return {
        "d1": sys.d1,
        "d2": sys.d2,
        "tol": sys.tol,
        "omega1": encode_matrix(sys.omega1),
        "omega2": encode_matrix(sys.omega2),
        "gamma": encode_matrix(sys.gamma),
    }


def is_json_number(value, kinds) -> bool:
    """Whether ``value`` is of ``kinds``; JSON ``true``/``false`` is not."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def read_header(data: dict) -> tuple[int, int, float]:
    """The ``d1``, ``d2`` and ``tol`` of a system file, validated, not
    coerced: ``d1`` and ``d2`` integers >= 0, ``tol`` a number."""
    d1, d2, tol = data["d1"], data["d2"], data["tol"]
    for key, value in (("d1", d1), ("d2", d2)):
        if not is_json_number(value, int) or value < 0:
            raise ValueError(f"{key} must be an integer >= 0, got {value!r}")
    if not is_json_number(tol, (int, float)):
        raise ValueError(f"tol must be a number, got {tol!r}")
    return d1, d2, float(tol)


def system_from_dict(data: dict) -> BlockSystem:
    """The system a file holds: its matrices, or else its lattice spec.

    Data with a ``lattice`` block and none of the three matrices is the
    spec of a lattice, from which the system is built; a lattice file
    that holds its matrices loads from them.
    """
    if isinstance(data, dict) and "lattice" in data and \
            data.keys().isdisjoint(("omega1", "omega2", "gamma")):
        # lattice imports this module, so it is imported at call time
        from .lattice import build_lattice_system, spec_from_dict
        return build_lattice_system(spec_from_dict(data))
    try:
        d1, d2, tol = read_header(data)
        omega1 = decode_matrix(data["omega1"], (d1, d1))
        omega2 = decode_matrix(data["omega2"], (d2, d2))
        gamma = decode_matrix(data["gamma"], (d1, d2))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed system data: {exc}") from exc
    return BlockSystem(omega1, omega2, gamma, tol)


def write_json_atomic(data: dict, path: str) -> None:
    """Write one-line JSON to a temp file, then rename it over ``path``.

    Readers never see a torn file.  ``json.dumps`` without indentation
    runs CPython's C encoder.  The temp file is created as a plain
    ``open(path, "w")`` would create ``path``, so the result gets the
    same permissions.
    """
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(json.dumps(data, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_system(sys: BlockSystem, path: str) -> None:
    write_json_atomic(system_to_dict(sys), path)


def load_system(path: str) -> BlockSystem:
    with open(path) as fh:
        data = json.load(fh)
    return system_from_dict(data)
