import base64
import json
import os
import struct

import numpy as np
import pytest

from opensys.lattice import LatticeSpec, build_lattice_system
from opensys.subspaces import DimensionMismatchError, SymmetryError, numeric_rank
from opensys.systems import (
    BlockSystem,
    assemble_full,
    decode_matrix,
    encode_matrix,
    load_system,
    random_system,
    save_system,
    system_from_dict,
    system_to_dict,
    write_json_atomic,
)


def test_assemble_minimal_swap():
    sys = BlockSystem(np.array([[0.0]]), np.array([[0.0]]), np.array([[1.0]]))
    full = assemble_full(sys)
    assert np.array_equal(full.omega, np.array([[0, 1], [1, 0]], dtype=complex))
    assert full.split == (1, 1)


def test_assemble_zero_coupling_is_block_diagonal():
    sys = random_system(3, 4, 0, seed=2)
    full = assemble_full(sys).omega
    assert np.array_equal(full[:3, 3:], np.zeros((3, 4)))
    assert np.array_equal(full[:3, :3], sys.omega1)
    assert np.array_equal(full[3:, 3:], sys.omega2)


def test_assemble_direct_placement():
    sys = BlockSystem(np.array([[2.0]]), np.diag([1.0, 3.0]),
                      np.array([[1.0, 0.0]]))
    full = assemble_full(sys).omega
    assert full[0, 1] == full[1, 0] == 1.0
    assert full[0, 2] == full[2, 0] == 0.0
    assert full[0, 0] == 2.0


def test_block_extraction_roundtrip():
    sys = random_system(4, 6, 2, seed=9)
    full = assemble_full(sys).omega
    d1 = sys.d1
    assert np.array_equal(full[:d1, :d1], sys.omega1)
    assert np.array_equal(full[d1:, d1:], sys.omega2)
    assert np.array_equal(full[:d1, d1:], sys.gamma)


def decoupled_parts(sys: BlockSystem) -> tuple[np.ndarray, np.ndarray]:
    """The pair (block-diagonal part, pure-coupling part) of the full operator.

    Returns diag(Omega1, Omega2) and [[0, Gamma], [Gamma^dag, 0]]; their sum
    is exactly the assembled full operator (pure placement, no arithmetic).
    An oracle for the decomposition tests.
    """
    d1, d2 = sys.d1, sys.d2
    n = d1 + d2
    omega_ring = np.zeros((n, n), dtype=sys.gamma.dtype)
    omega_ring[:d1, :d1] = sys.omega1
    omega_ring[d1:, d1:] = sys.omega2
    gamma_ring = np.zeros_like(omega_ring)
    gamma_ring[:d1, d1:] = sys.gamma
    gamma_ring[d1:, :d1] = sys.gamma.conj().T
    return omega_ring, gamma_ring


def test_decoupled_parts_sum_exactly():
    sys = random_system(3, 5, 2, seed=4)
    omega_ring, gamma_ring = decoupled_parts(sys)
    full = assemble_full(sys).omega
    # pure placement: the identity holds with zero floating error
    assert np.array_equal(full - omega_ring - gamma_ring,
                          np.zeros_like(full))


def test_decoupled_parts_zero_coupling():
    sys = random_system(2, 3, 0, seed=1)
    omega_ring, gamma_ring = decoupled_parts(sys)
    assert np.array_equal(gamma_ring, np.zeros_like(gamma_ring))
    assert np.array_equal(omega_ring, assemble_full(sys).omega)


def test_decoupled_parts_pure_swap():
    sys = BlockSystem(np.array([[0.0]]), np.array([[0.0]]), np.array([[1.0]]))
    omega_ring, gamma_ring = decoupled_parts(sys)
    assert np.array_equal(gamma_ring, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(omega_ring, np.zeros((2, 2)))


class TestRandomSystem:
    def test_zero_rank_means_zero_coupling(self):
        sys = random_system(3, 5, 0, seed=7)
        assert np.array_equal(sys.gamma, np.zeros((3, 5)))

    def test_requested_rank_from_singular_values(self):
        sys = random_system(3, 5, 2, seed=7)
        assert numeric_rank(sys.gamma, sys.tol) == 2

    def test_determinism(self):
        a = random_system(4, 4, 2, seed=13)
        b = random_system(4, 4, 2, seed=13)
        assert np.array_equal(a.omega1, b.omega1)
        assert np.array_equal(a.omega2, b.omega2)
        assert np.array_equal(a.gamma, b.gamma)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_system(2, 3, 4, seed=0)

    def test_blocks_exactly_hermitian(self):
        sys = random_system(5, 6, 3, seed=21)
        assert np.array_equal(sys.omega1, sys.omega1.conj().T)
        assert np.array_equal(sys.omega2, sys.omega2.conj().T)


@pytest.mark.parametrize("layout", ["separate", "slices"])
def test_system_owns_its_blocks(layout):
    """Overwriting the arrays a system was built from leaves it unchanged."""
    rng = np.random.default_rng(3)
    omega = rng.standard_normal((5, 5))
    omega = omega + omega.T
    if layout == "separate":
        sources = [omega[:2, :2].copy(), omega[2:, 2:].copy(),
                   np.ascontiguousarray(omega[:2, 2:])]
    else:
        sources = [omega[:2, :2], omega[2:, 2:], omega[:2, 2:]]
    sys = BlockSystem(*sources)
    before = [m.copy() for m in (sys.omega1, sys.omega2, sys.gamma)]
    for m in (omega, *sources):
        m[...] = 7.0
    for kept, m in zip(before, (sys.omega1, sys.omega2, sys.gamma)):
        assert np.array_equal(kept, m)


def test_lattice_gamma_keeps_no_full_operator():
    sys = build_lattice_system(LatticeSpec.centered(6, 2, 3))
    assert sys.gamma.base is None


def test_non_hermitian_block_rejected():
    with pytest.raises(SymmetryError):
        BlockSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2),
                    np.zeros((2, 2)))


def test_gamma_shape_validated():
    with pytest.raises(DimensionMismatchError):
        BlockSystem(np.eye(2), np.eye(3), np.zeros((3, 2)))


def test_near_hermitian_symmetrized():
    a = np.eye(2) + 1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]])
    sys = BlockSystem(a, np.eye(2), np.zeros((2, 2)), tol=1e-10)
    assert np.array_equal(sys.omega1, sys.omega1.conj().T)


def test_serialization_roundtrip_bit_exact(tmp_path):
    sys = random_system(3, 5, 2, seed=33)
    path = tmp_path / "sys.json"
    save_system(sys, str(path))
    loaded = load_system(str(path))
    assert np.array_equal(loaded.omega1, sys.omega1)
    assert np.array_equal(loaded.omega2, sys.omega2)
    assert np.array_equal(loaded.gamma, sys.gamma)
    assert loaded.tol == sys.tol


def test_serialization_roundtrip_empty_blocks():
    sys = BlockSystem(np.zeros((0, 0)), np.eye(2), np.zeros((0, 2)))
    again = system_from_dict(system_to_dict(sys))
    assert again.d1 == 0 and again.d2 == 2


def test_malformed_data_rejected():
    with pytest.raises(ValueError):
        system_from_dict({"d1": 2, "d2": 2})
    with pytest.raises(ValueError):
        system_from_dict({"d1": 2, "d2": 2, "tol": 1e-10,
                          "omega1": [[[0, 0]]], "omega2": [], "gamma": []})


def test_encoding_matches_per_entry_pairs():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = complex(-0.0, 5e-324)
    per_entry = [x for z in m.ravel() for x in (float(z.real), float(z.imag))]
    text = encode_matrix(m)
    assert base64.b64decode(text) == struct.pack(f"<{len(per_entry)}d",
                                                 *per_entry)
    for data in (json.loads(json.dumps(text)), per_entry):
        decoded = decode_matrix(data, m.shape)
        assert decoded.dtype == np.complex128
        assert decoded.tobytes() == m.tobytes()  # -0.0 and 5e-324 bit-exact
        assert np.signbit(decoded[0, 0].real)
    real = m.real
    assert base64.b64decode(encode_matrix(real)) == \
        struct.pack("<12d", *[float(x) for x in real.ravel()])


def test_decode_rejects_wrong_shape():
    data = encode_matrix(np.arange(6.0).reshape(2, 3))
    assert decode_matrix(data, (2, 3)).shape == (2, 3)
    for count in (5, 7):
        with pytest.raises(ValueError, match=f"2x3 matrix has {count} numbers, "
                                             r"expected 6 \(real\) or 12"):
            decode_matrix([0.0] * count, (2, 3))
    with pytest.raises(ValueError, match="has 3 numbers"):
        decode_matrix([1.0, 0.0, 0.0], (1, 1))


def test_decode_rejects_non_numbers():
    with pytest.raises(ValueError):
        decode_matrix([[["1.0", "0.0"]]], (1, 1))
    with pytest.raises(ValueError):
        decode_matrix([[[None, 0.0]]], (1, 1))


def test_real_blocks_stored_as_float64():
    sys = BlockSystem(np.eye(2, dtype=np.float32),
                      np.diag(np.array([1, 2, 3], dtype=np.longdouble)),
                      np.ones((2, 3), dtype=int))
    assert {m.dtype for m in (sys.omega1, sys.omega2, sys.gamma)} == \
        {np.dtype(np.float64)}
    assert assemble_full(sys).omega.dtype == np.float64
    assert all(m.dtype == np.float64 for m in decoupled_parts(sys))


def test_one_complex_block_makes_the_system_complex():
    sys = BlockSystem(np.eye(2), np.eye(3), np.ones((2, 3), dtype=np.complex64))
    assert {m.dtype for m in (sys.omega1, sys.omega2, sys.gamma)} == \
        {np.dtype(np.complex128)}


def test_string_matrix_rejected():
    for block in ([["a", "b"], ["b", "a"]], [["1.0", "0"], ["0", "1.0"]]):
        with pytest.raises(ValueError):
            BlockSystem(np.array(block), np.eye(2), np.zeros((2, 2)))


def test_real_system_roundtrip_bit_exact_float64(tmp_path):
    sys = build_lattice_system(LatticeSpec.centered(4, 2, dims=2))
    sys = BlockSystem(sys.omega1 / 3, sys.omega2 * np.pi, -sys.gamma / 7)
    path = tmp_path / "lat.json"
    save_system(sys, str(path))
    loaded = load_system(str(path))
    for name in ("omega1", "omega2", "gamma"):
        assert getattr(loaded, name).dtype == np.float64
        assert np.array_equal(getattr(loaded, name), getattr(sys, name))


def test_negative_zero_imaginary_part_decodes_complex():
    m = np.array([[complex(1.0, 0.0), complex(2.0, -0.0)]])
    data = json.loads(json.dumps(encode_matrix(m)))
    assert len(base64.b64decode(data)) == 4 * 8
    decoded = decode_matrix(data, (1, 2))
    assert decoded.dtype == np.complex128
    assert decoded.tobytes() == m.tobytes()
    assert np.signbit(decoded[0, 1].imag) and not np.signbit(decoded[0, 0].imag)
    zero = np.zeros((1, 2), dtype=complex)
    assert decode_matrix(encode_matrix(zero), (1, 2)).dtype == np.complex128


def test_pair_layout_loads_value_exact_as_complex(tmp_path):
    """A file of one [re, im] pair an entry, the earlier layout, still loads."""
    data = {"d1": 1, "d2": 2, "tol": 1e-10,
            "omega1": [[[0.5, 0.0]]],
            "omega2": [[[1.0, 0.0], [0.25, -0.5]],
                       [[0.25, 0.5], [-2.0, 0.0]]],
            "gamma": [[[3.0, 0.0], [-0.0, 5e-324]]]}
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(data))
    sys = load_system(str(path))
    assert {m.dtype for m in (sys.omega1, sys.omega2, sys.gamma)} == \
        {np.dtype(np.complex128)}
    assert np.array_equal(sys.omega1, [[0.5]])
    assert np.array_equal(sys.omega2, [[1.0, 0.25 - 0.5j], [0.25 + 0.5j, -2.0]])
    assert sys.gamma.tobytes() == \
        np.array([[3.0, complex(-0.0, 5e-324)]]).tobytes()


@pytest.mark.parametrize("real", [True, False])
def test_flat_list_layout_loads_value_exact(real, tmp_path):
    """A file of one flat list of numbers a matrix, the earlier layout,
    still loads with the dtype its length gives."""
    sys = random_system(2, 3, 1, seed=4)
    if real:
        sys = BlockSystem(sys.omega1.real, sys.omega2.real, sys.gamma.real)
    data = {"d1": 2, "d2": 3, "tol": sys.tol}
    for name in ("omega1", "omega2", "gamma"):
        data[name] = getattr(sys, name).ravel().view(np.float64).tolist()
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(data))
    loaded = load_system(str(path))
    for name in ("omega1", "omega2", "gamma"):
        assert getattr(loaded, name).dtype == getattr(sys, name).dtype
        assert getattr(loaded, name).tobytes() == getattr(sys, name).tobytes()


@pytest.mark.parametrize("m", [np.arange(6.0).reshape(2, 3),
                               np.arange(6.0).reshape(2, 3) * (1 - 2j)],
                         ids=["real", "complex"])
def test_encoding_ignores_byte_order(m):
    swapped = m.astype(m.dtype.newbyteorder(">"))
    assert np.array_equal(swapped, m)
    assert encode_matrix(swapped) == encode_matrix(m)


def _payload(doubles: int, extra_bytes: int = 0) -> str:
    return base64.b64encode(bytes(8 * doubles + extra_bytes)).decode("ascii")


#: Matrix texts that are not a 2x3 matrix, and what each error says.
BAD_PAYLOADS = {
    "non-alphabet": (_payload(6)[:-4] + "AA.A", "base64"),
    "whitespace": (_payload(3) + "\n" + _payload(3), "base64"),
    "partial-double": (_payload(6, 4), "multiple of element size"),
    "wrong-count": (_payload(7), "2x3 matrix has 7 numbers"),
}


@pytest.mark.parametrize("kind", BAD_PAYLOADS)
def test_decode_rejects_bad_text(kind):
    text, message = BAD_PAYLOADS[kind]
    with pytest.raises(ValueError, match=message):
        decode_matrix(text, (2, 3))


def _imaginary_zero_system():
    sys = random_system(3, 4, 2, seed=8)
    return BlockSystem(sys.omega1.real + 0j, sys.omega2.real + 0j,
                       sys.gamma.real + 0j)


@pytest.mark.parametrize("make", [
    lambda: random_system(3, 5, 2, seed=33),
    lambda: build_lattice_system(LatticeSpec.centered(6, 2, 3)),
    lambda: BlockSystem(np.zeros((0, 0)), np.eye(2), np.zeros((0, 2))),
    _imaginary_zero_system,
], ids=["random", "lattice", "empty-block", "imag-zero"])
def test_roundtrip_bit_and_dtype_exact(make, tmp_path):
    sys = make()
    path = tmp_path / "sys.json"
    save_system(sys, str(path))
    loaded = load_system(str(path))
    for name in ("omega1", "omega2", "gamma"):
        before, after = getattr(sys, name), getattr(loaded, name)
        assert after.dtype == before.dtype
        assert after.shape == before.shape
        assert after.tobytes() == before.tobytes()
    assert loaded.tol == sys.tol


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        BlockSystem(np.eye(2), np.eye(2), np.zeros((2, 2)), tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["omega1", "omega2", "gamma"])
def test_entry_must_be_finite(name, bad):
    blocks = {"omega1": np.eye(2), "omega2": np.eye(2),
              "gamma": np.zeros((2, 2))}
    blocks[name][1, 1] = bad
    with pytest.raises(ValueError, match=f"{name} has an entry that is not "
                                         "finite"):
        BlockSystem(**blocks)


def test_json_writer_compact_one_line(tmp_path):
    data = {"b": [[[1.5, -0.0], [2.0, 1e-300]]], "a": {"x": 1, "y": "z"}}
    path = tmp_path / "out.json"
    write_json_atomic(data, str(path))
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == data
    assert list(tmp_path.iterdir()) == [path]  # no temp file left behind


def test_json_writer_gives_plain_open_permissions(tmp_path):
    plain = tmp_path / "plain.json"
    with open(plain, "w") as fh:
        fh.write("{}")
    written = tmp_path / "written.json"
    write_json_atomic({}, str(written))
    assert os.stat(written).st_mode == os.stat(plain).st_mode
