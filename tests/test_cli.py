import json

import numpy as np
import pytest

from opensys import cli, decomposition, dynamics, lattice, subspaces
from opensys.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from opensys.lattice import LatticeSpec, build_lattice_system, spec_to_dict
from opensys.systems import (
    assemble_full,
    encode_matrix,
    load_system,
    save_system,
    system_to_dict,
)
from test_decomposition import (
    _with_h2c,
    coupled_plus_decoupled,
    near_tie_system,
)
from test_systems import BAD_PAYLOADS


@pytest.fixture
def sys_file(tmp_path):
    path = tmp_path / "sys.json"
    assert main(["gen-random", "--d1", "4", "--d2", "6", "--rank", "2",
                 "--seed", "7", "--output", str(path)]) == EXIT_OK
    return path


def test_gen_random_roundtrip(sys_file):
    sys = load_system(str(sys_file))
    assert sys.d1 == 4 and sys.d2 == 6


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-random", "--d1", "3", "--d2", "3", "--rank", "1", "--seed", "5"]
    main(args + ["--output", str(a)])
    main(args + ["--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_decompose_zero_coupling(tmp_path, capsys):
    path = tmp_path / "s.json"
    main(["gen-random", "--d1", "3", "--d2", "5", "--rank", "0",
          "--seed", "1", "--output", str(path)])
    out = tmp_path / "dec.json"
    code = main(["decompose", "--input", str(path), "--tol", "1e-10",
                 "--output", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["dims"] == {"h1d": 3, "h1c": 0, "h2c": 0, "h2d": 5}
    assert "h1d=3" in capsys.readouterr().out


def test_verify_theorem_passes(sys_file, capsys):
    code = main(["verify-theorem", "--input", str(sys_file)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "multiplicity(core)" in out


def test_kernel_export(sys_file, tmp_path):
    out = tmp_path / "k.csv"
    code = main(["kernel", "--input", str(sys_file), "--output", str(out),
                 "--t-max", "5", "--steps", "50"])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 52  # header + 51 points


def test_simulate_and_compare(sys_file, tmp_path, capsys):
    full_csv = tmp_path / "full.csv"
    red_csv = tmp_path / "red.csv"
    assert main(["simulate-full", "--input", str(sys_file), "--output",
                 str(full_csv), "--steps", "200"]) == EXIT_OK
    assert main(["simulate-reduced", "--input", str(sys_file), "--output",
                 str(red_csv), "--steps", "200"]) == EXIT_OK
    out = tmp_path / "cmp.json"
    assert main(["compare", "--input", str(sys_file), "--steps", "400",
                 "--output", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    assert 1.5 <= result["order"] <= 2.5
    assert "convergence order" in capsys.readouterr().out


def test_kernel_export_rank_zero_writes_zeros(tmp_path):
    """With Gamma = 0 the kernel keeps no mode, and both sides' CSVs hold
    the grid and a zero for every entry."""
    path, out = tmp_path / "rank0.json", tmp_path / "k.csv"
    assert main(["gen-random", "--d1", "3", "--d2", "5", "--rank", "0",
                 "--output", str(path)]) == EXIT_OK
    for side, dim in (("observable", 3), ("hidden", 5)):
        assert main(["kernel", "--input", str(path), "--side", side,
                     "--output", str(out), "--t-max", "5",
                     "--steps", "50"]) == EXIT_OK
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (51, 1 + 2 * dim * dim)
        assert np.array_equal(data[:, 0], np.linspace(0.0, 5.0, 51))
        assert not np.any(data[:, 1:])


def _count_factorizations(monkeypatch):
    """Record the shape of every eigh and each call of the closed-form
    n x n eigenvectors."""
    shapes, closed_form = [], []

    def counted(a, *args, _eigh=np.linalg.eigh, **kwargs):
        shapes.append(np.shape(a))
        return _eigh(a, *args, **kwargs)

    def omega_eigenpairs(spec, _pairs=lattice.omega_eigenpairs):
        closed_form.append(spec)
        return _pairs(spec)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(lattice, "omega_eigenpairs", omega_eigenpairs)
    return shapes, closed_form


def test_compare_lattice_reads_observable_rows(tmp_path, monkeypatch):
    """compare on a lattice spec file builds its reference from the cube's
    rows of the closed form: no n x n eigenvectors.  eigh runs once, for
    the kernel: on the eight 26 x 26 reflection sectors of Omega2 when the
    cube is centred, on the whole 208 x 208 Omega2 at offset (1, 3, 1),
    which is centred on no axis."""
    for offset, want in ((None, (8, 26, 26)), ("1,3,1", (1, 208, 208))):
        path = tmp_path / f"lat-{offset}.json"
        assert main(["gen-lattice", "--box", "6", "--cube", "2",
                     "--output", str(path)]
                    + (["--offset", offset] if offset else [])) == EXIT_OK
        shapes, closed_form = _count_factorizations(monkeypatch)
        assert main(["compare", "--input", str(path), "--t-max", "2.5",
                     "--steps", "100"]) == EXIT_OK
        monkeypatch.undo()
        assert closed_form == [] and shapes == [want]


def test_simulate_full_lattice_takes_closed_form(tmp_path, monkeypatch):
    """simulate-full on a lattice spec file runs no eigh, and its states
    are those of the eigh route to 1e-10 relative."""
    path, out = tmp_path / "lat.json", tmp_path / "full.csv"
    assert main(["gen-lattice", "--box", "6", "--cube", "2",
                 "--output", str(path)]) == EXIT_OK
    shapes, closed_form = _count_factorizations(monkeypatch)
    assert main(["simulate-full", "--input", str(path), "--output", str(out),
                 "--t-max", "2.5", "--steps", "200", "--seed", "3"]) == EXIT_OK
    monkeypatch.undo()
    assert shapes == [] and len(closed_form) == 1
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    states = data[:, 1::2] + 1j * data[:, 2::2]
    sys = load_system(path)
    v1 = cli._initial_observable(sys, 3)
    want = dynamics.propagate_full(
        assemble_full(sys), np.concatenate([v1, np.zeros(sys.d2)]),
        dynamics.ForcingSignal.zero(), dynamics.make_grid(2.5, 200)).states
    assert np.max(np.abs(states - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.fixture
def empty_observable_file(tmp_path):
    path = tmp_path / "d1_0.json"
    assert main(["gen-random", "--d1", "0", "--d2", "3", "--rank", "0",
                 "--output", str(path)]) == EXIT_OK
    return path


def test_compare_empty_observable(empty_observable_file, tmp_path, capsys):
    """d1 = 0 observes nothing: zero gaps and order, not a traceback."""
    out = tmp_path / "cmp.json"
    assert main(["compare", "--input", str(empty_observable_file),
                 "--steps", "100", "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "sup-norm full-vs-reduced: 0.000e+00 at 100 steps, 0.000e+00 at "
        "200 steps\nempirical convergence order: 0.00\n")
    result = json.loads(out.read_text())
    assert result["sup_diff_coarse"] == result["sup_diff_fine"] == 0.0


def test_simulate_reduced_empty_observable(empty_observable_file, tmp_path):
    out = tmp_path / "red.csv"
    assert main(["simulate-reduced", "--input", str(empty_observable_file),
                 "--output", str(out), "--steps", "10"]) == EXIT_OK
    assert out.read_text().splitlines() == ["time"] + [
        repr(t) for t in np.linspace(0.0, 10.0, 11).tolist()]


def test_no_gain(sys_file):
    assert main(["no-gain", "--input", str(sys_file), "--trials", "5",
                 "--steps", "150", "--t-max", "10"]) == EXIT_OK


def test_gen_lattice_metadata(tmp_path):
    path = tmp_path / "lat.json"
    code = main(["gen-lattice", "--dims", "1", "--box", "8", "--cube", "2",
                 "--output", str(path)])
    assert code == EXIT_OK
    data = json.loads(path.read_text())
    assert data["lattice"]["surface_count"] == 2
    assert data["lattice"]["multiplicity_bound"] == 4
    sys = load_system(str(path))  # consumable as a plain system file
    assert sys.d1 == 2 and sys.d2 == 6


def test_lattice_file_is_compact(tmp_path):
    path = tmp_path / "lat.json"
    assert main(["gen-lattice", "--box", "6", "--cube", "2",
                 "--output", str(path)]) == EXIT_OK
    assert path.stat().st_size < 1_000


def _assert_same_blocks(sys, want):
    for name in ("omega1", "omega2", "gamma"):
        block = getattr(sys, name)
        assert block.dtype == np.float64
        assert block.tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("flags, spec", [
    (["--dims", "1", "--box", "8", "--cube", "2"],
     LatticeSpec.centered(8, 2, dims=1)),
    (["--dims", "2", "--box", "7", "--cube", "3", "--offset", "1,3"],
     LatticeSpec(7, 3, (1, 3), dims=2)),
    (["--box", "5", "--cube", "2"], LatticeSpec.centered(5, 2)),
    (["--box", "6", "--cube", "2", "--offset", "1,3,1"],
     LatticeSpec(6, 2, (1, 3, 1))),
], ids=["1d-box8-cube2", "2d-box7-cube3-at-1-3", "3d-box5-cube2",
        "3d-box6-cube2-at-1-3-1"])
def test_lattice_file_holds_its_spec(tmp_path, flags, spec):
    """The file holds the header and the spec, no matrix; loading builds
    the blocks bit for bit as the library does."""
    path = tmp_path / "lat.json"
    assert main(["gen-lattice", *flags, "--output", str(path)]) == EXIT_OK
    data = json.loads(path.read_text())
    assert data.keys() == {"d1", "d2", "tol", "lattice"}
    assert (data["d1"], data["d2"]) == \
        (spec.cube ** spec.dims, spec.box ** spec.dims - spec.cube ** spec.dims)
    _assert_same_blocks(load_system(str(path)), build_lattice_system(spec))


def test_lattice_file_with_matrices_still_loads(tmp_path, capsys):
    """A lattice file that holds its three matrices, the layout gen-lattice
    wrote before it wrote the spec alone, loads from them.  It factors
    Omega by eigh, the spec file by the closed form, so the two give the
    same dims and block residuals that differ in roundoff only."""
    spec = LatticeSpec(6, 2, (1, 3, 1))
    want = build_lattice_system(spec)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(system_to_dict(want)
                               | {"lattice": spec_to_dict(spec)["lattice"]}))
    _assert_same_blocks(load_system(str(path)), want)
    spec_path = tmp_path / "spec.json"
    assert main(["gen-lattice", "--box", "6", "--cube", "2", "--offset",
                 "1,3,1", "--output", str(spec_path)]) == EXIT_OK
    capsys.readouterr()
    dims = []
    for source in (path, spec_path):
        assert main(["decompose", "--input", str(source)]) == EXIT_OK
        dims_line, residual_line = capsys.readouterr().out.splitlines()
        dims.append(dims_line)
        relative = float(residual_line.split("(")[1].split()[0])
        assert relative <= 1e-13
    assert dims[0] == dims[1]


_DROP = object()


@pytest.mark.parametrize("key, value, message", [
    ("d1", 9, "d1 = 9, but the lattice spec gives 8"),
    ("d2", 207, "d2 = 207, but the lattice spec gives 208"),
    ("tol", -1.0, "tol must be positive and finite, got -1.0"),
    ("tol", float("nan"), "tol must be positive and finite, got nan"),
    ("lattice", 5, "lattice must be an object, got 5"),
    ("lattice.box", _DROP, "lattice block has no 'box'"),
    ("lattice.offset", _DROP, "lattice block has no 'offset'"),
    ("lattice.box", 6.0, "lattice box must be an integer, got 6.0"),
    ("lattice.cube", True, "lattice cube must be an integer, got True"),
    ("lattice.dims", 3.0, "lattice dims must be an integer, got 3.0"),
    ("lattice.offset", [2, 1.5, 2],
     "lattice offset must be an integer, got 1.5"),
    ("lattice.offset", 2, "lattice offset must be a list, got 2"),
    ("lattice.offset", [2, 2], "offset (2, 2) has wrong length for dims=3"),
    ("lattice.offset", [5, 2, 2], "cube at offset (5, 2, 2) leaves the box"),
    ("lattice.cube", 7, "need 1 <= cube <= box, got cube=7 box=6"),
], ids=["d1-disagrees", "d2-disagrees", "negative-tol", "nan-tol",
        "block-not-object", "no-box", "no-offset", "float-box", "bool-cube",
        "float-dims", "float-offset", "offset-not-list", "short-offset",
        "cube-leaves-box", "cube-exceeds-box"])
def test_bad_lattice_spec_is_usage_error(tmp_path, capsys, key, value,
                                         message):
    """A spec is validated, not coerced; each fault names its key."""
    path = tmp_path / "lat.json"
    assert main(["gen-lattice", "--box", "6", "--cube", "2",
                 "--output", str(path)]) == EXIT_OK
    data = json.loads(path.read_text())
    *outer, name = key.split(".")
    target = data[outer[0]] if outer else data
    if value is _DROP:
        del target[name]
    else:
        target[name] = value
    path.write_text(json.dumps(data))
    assert main(["decompose", "--input", str(path)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_gen_lattice_bad_tol_is_usage_error(tmp_path, capsys, tol):
    path = tmp_path / "lat.json"
    assert main(["gen-lattice", "--box", "6", "--cube", "2", f"--tol={tol}",
                 "--output", str(path)]) == EXIT_USAGE
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    """A lattice too large for the dense route exits 2 with one error line,
    not a traceback; the allocation is simulated, never attempted."""
    path = tmp_path / "lat.json"
    assert main(["gen-lattice", "--box", "100", "--cube", "4",
                 "--output", str(path)]) == EXIT_OK

    def too_large(spec):
        raise MemoryError("Unable to allocate 7.28 TiB")
    monkeypatch.setattr(lattice, "build_lattice_system", too_large)
    assert main(["decompose", "--input", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: decompose: out of memory: Unable to allocate 7.28 TiB\n")


def test_lattice_then_verify(tmp_path):
    path = tmp_path / "lat.json"
    main(["gen-lattice", "--dims", "2", "--box", "5", "--cube", "2",
          "--output", str(path)])
    assert main(["verify-theorem", "--input", str(path)]) == EXIT_OK


def test_malformed_input_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d1": 2}')
    assert main(["decompose", "--input", str(bad)]) == EXIT_USAGE
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{]")
    assert main(["decompose", "--input", str(notjson)]) == EXIT_USAGE


def test_non_hermitian_input_is_usage_error(tmp_path, sys_file):
    data = json.loads(sys_file.read_text())
    omega1 = load_system(str(sys_file)).omega1
    omega1.real[0, 1] = 5.0
    data["omega1"] = encode_matrix(omega1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["decompose", "--input", str(bad)]) == EXIT_USAGE


def test_string_matrix_is_usage_error(tmp_path, sys_file):
    data = json.loads(sys_file.read_text())
    data["omega1"] = [[["a", "0"]] * 4] * 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["decompose", "--input", str(bad)]) == EXIT_USAGE


@pytest.mark.parametrize("key, value, message", [
    ("d1", 1.7, "d1 must be an integer >= 0, got 1.7"),
    ("d1", True, "d1 must be an integer >= 0, got True"),
    ("d2", "6", "d2 must be an integer >= 0, got '6'"),
    ("d1", -1, "d1 must be an integer >= 0, got -1"),
    ("tol", "1e-10", "tol must be a number, got '1e-10'"),
    ("tol", False, "tol must be a number, got False"),
])
def test_bad_header_is_usage_error(tmp_path, sys_file, capsys, key, value,
                                   message):
    data = json.loads(sys_file.read_text())
    data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["decompose", "--input", str(bad)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", BAD_PAYLOADS)
def test_bad_matrix_text_is_usage_error(tmp_path, capsys, kind):
    path = tmp_path / "s.json"
    assert main(["gen-random", "--d1", "2", "--d2", "3", "--rank", "1",
                 "--output", str(path)]) == EXIT_OK
    data = json.loads(path.read_text())
    text, message = BAD_PAYLOADS[kind]
    data["gamma"] = text
    path.write_text(json.dumps(data))
    assert main(["decompose", "--input", str(path)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value, shape", [
    ("omega1", 0.5, "()"),
    ("gamma", [[[1], [2]]], "(1, 2, 1)"),
], ids=["bare-number", "one-element-pairs"])
def test_bad_matrix_nesting_is_usage_error(tmp_path, capsys, key, value,
                                           shape):
    """A list matrix is flat or one [re, im] pair an entry; a number count
    that fits is not enough."""
    path = tmp_path / "s.json"
    assert main(["gen-random", "--d1", "1", "--d2", "2", "--rank", "1",
                 "--output", str(path)]) == EXIT_OK
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))
    assert main(["decompose", "--input", str(path)]) == EXIT_USAGE
    assert f"got nesting {shape}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose", "verify-theorem"])
def test_pipeline_never_calls_complement(sys_file, monkeypatch, command):
    """decompose reads its parts off the spectrum cuts: no command calls
    complement, so none can raise ContainmentError."""
    def fail(*args):
        raise AssertionError("complement called")

    monkeypatch.setattr(subspaces, "complement", fail)
    assert not hasattr(decomposition, "complement")
    assert main([command, "--input", str(sys_file)]) == EXIT_OK


@pytest.mark.parametrize("command", ["decompose", "verify-theorem"])
def test_decomposition_failure_is_verification_error(sys_file, monkeypatch,
                                                     capsys, command):
    def fail(*args):
        raise decomposition.DecompositionError(
            "H2c from closure(H1)", "||leak||_F", 0.75, 0.5)

    monkeypatch.setattr(decomposition, "_split_block", fail)
    assert main([command, "--input", str(sys_file)]) == EXIT_VERIFICATION
    err = capsys.readouterr().err
    assert err.startswith(f"verification failure in {command}: "
                          "H2c from closure(H1): ||leak||_F = 7.500e-01")


def test_verify_theorem_rotated_h2c_fails(tmp_path, monkeypatch, capsys):
    """Negative control: one h2c column turned by 1e-6 toward h2d."""
    path = tmp_path / "s.json"
    save_system(coupled_plus_decoupled(), str(path))
    decompose = decomposition.decompose

    def rotated(sys):
        dec = decompose(sys)
        h2c = dec.h2c.matrix.copy()
        h2c[:, 0] = np.cos(1e-6) * h2c[:, 0] \
            + np.sin(1e-6) * dec.h2d.matrix[:, 0]
        return _with_h2c(dec, h2c)

    assert main(["verify-theorem", "--input", str(path)]) == EXIT_OK
    monkeypatch.setattr(decomposition, "decompose", rotated)
    capsys.readouterr()
    assert main(["verify-theorem", "--input", str(path)]) == EXIT_VERIFICATION
    fail = capsys.readouterr().out.splitlines()[-1]
    assert fail.startswith("FAIL: max distance 1.000e+00 > limit 1e-08 ")
    assert "(h1c+h2c vs closure(h2c))" in fail
    assert fail.endswith("; core not reconstructible")


def test_verify_theorem_fail_names_bound(tmp_path, monkeypatch, capsys):
    """A multiplicity over its bound is named, with the distance limit
    100 * tol."""
    path = tmp_path / "s.json"
    save_system(coupled_plus_decoupled(), str(path))
    over_bound = decomposition.TheoremReport(
        orbit_equalities=[("a vs b", 2e-12), ("c vs d", 3e-12)],
        multiplicity_omega_c=3, bound=2, bound_satisfied=False,
        reconstructible_core=True, dims={}, tol=1e-10)
    monkeypatch.setattr(decomposition, "verify_theorem",
                        lambda sys: over_bound)
    assert main(["verify-theorem", "--input", str(path)]) == EXIT_VERIFICATION
    assert capsys.readouterr().out.splitlines()[-1] == (
        "FAIL: max distance 3.000e-12 <= limit 1e-08 (c vs d); "
        "multiplicity 3 > bound 2")


def test_missing_file_is_usage_error(tmp_path):
    assert main(["decompose", "--input", str(tmp_path / "nope.json")]) \
        == EXIT_USAGE


def test_directory_input_is_usage_error(tmp_path, capsys):
    assert main(["decompose", "--input", str(tmp_path)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_directory_output_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["gen-random", "--d1", "2", "--d2", "3", "--rank", "1",
                 "--output", str(out)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(out.iterdir()) == []


def test_non_finite_tolerance_is_usage_error(sys_file, capsys):
    assert main(["decompose", "--input", str(sys_file),
                 "--tol", "nan"]) == EXIT_USAGE
    assert "tol must be positive and finite, got nan" in capsys.readouterr().err


def test_distance_tol_is_not_an_option(sys_file, capsys):
    """The distance limit is 100 * tol; only --tol moves it."""
    assert main(["verify-theorem", "--input", str(sys_file),
                 "--distance-tol", "1e-8"]) == EXIT_USAGE
    assert "unrecognized arguments: --distance-tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "no-gain", "simulate-reduced"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_t_max_is_usage_error(sys_file, tmp_path, capsys, command,
                                         value):
    argv = [command, "--input", str(sys_file), "--t-max", value]
    if command == "simulate-reduced":
        argv += ["--output", str(tmp_path / "red.csv")]
    assert main(argv) == EXIT_USAGE
    assert f"t_max must be positive and finite, got {value}" \
        in capsys.readouterr().err


def test_no_gain_short_grid_is_usage_error(sys_file, capsys):
    assert main(["no-gain", "--input", str(sys_file), "--steps", "2"]) \
        == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "no-gain check needs at least 5 steps, got 2" in err
    assert out == ""


def test_no_gain_tiny_span_is_finite(sys_file, capsys):
    """The bump is scaled before squaring, so it does not underflow to
    0 / 0 at t_max = 1e-300."""
    assert main(["no-gain", "--input", str(sys_file), "--t-max", "1e-300",
                 "--trials", "5"]) == EXIT_OK
    numbers = [float(line.split(": ")[1])
               for line in capsys.readouterr().out.splitlines()]
    assert len(numbers) == 2 and all(np.isfinite(numbers))


def test_no_gain_huge_span_is_usage_error(sys_file, capsys):
    """At t_max = 1e300 the form overflows: an error naming the grid, not
    a failed certificate."""
    assert main(["no-gain", "--input", str(sys_file), "--t-max", "1e300",
                 "--trials", "5"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "no-gain form is not finite on the grid of 2000 steps over " \
           "[0, 1e+300]" in err
    assert out == ""


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_no_gain_trials_below_one_is_usage_error(sys_file, capsys, trials):
    assert main(["no-gain", "--input", str(sys_file), "--steps", "50",
                 "--trials", trials]) == EXIT_USAGE
    assert f"trials must be at least 1, got {trials}" \
        in capsys.readouterr().err


def test_non_finite_entry_is_usage_error(tmp_path, sys_file, capsys):
    data = json.loads(sys_file.read_text())
    gamma = load_system(str(sys_file)).gamma
    gamma.real[0, 0] = np.nan
    data["gamma"] = encode_matrix(gamma)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify-theorem", "--input", str(bad)]) == EXIT_USAGE
    assert "gamma has an entry that is not finite" in capsys.readouterr().err


def test_command_is_found_when_it_runs(sys_file, monkeypatch):
    """The parser is built once; a cmd_* function replaced after the first
    call, by a wrapper or a test, is the one that runs."""
    assert main(["decompose", "--input", str(sys_file)]) == EXIT_OK
    calls = []

    def patched(args):
        calls.append(args.input)
        return EXIT_VERIFICATION

    monkeypatch.setattr(cli, "cmd_decompose", patched)
    assert main(["decompose", "--input", str(sys_file)]) == EXIT_VERIFICATION
    assert calls == [str(sys_file)]


def test_bad_flags_are_usage_error():
    assert main(["decompose"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


def test_env_var_tolerance(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OPENSYS_TOL", "1e-9")
    path = tmp_path / "s.json"
    main(["gen-random", "--d1", "2", "--d2", "2", "--rank", "1",
          "--seed", "0", "--output", str(path)])
    assert load_system(str(path)).tol == 1e-9


@pytest.mark.parametrize("value", ["abc", ""])
def test_env_var_tolerance_not_a_number_is_named(sys_file, monkeypatch,
                                                 capsys, value):
    monkeypatch.setenv("OPENSYS_TOL", value)
    assert main(["decompose", "--input", str(sys_file)]) == EXIT_USAGE
    assert capsys.readouterr().err.strip() == \
        f"error: OPENSYS_TOL must be a number, got {value!r}"


def test_verify_theorem_multiplicity_follows_tol(tmp_path, capsys):
    """Two core eigenvalues 1e-7 apart are one double eigenvalue at
    --tol 1e-6, as they are one cluster of the split."""
    path = tmp_path / "tie.json"
    save_system(near_tie_system(1e-7, 1e-10), str(path))
    assert main(["verify-theorem", "--input", str(path)]) == EXIT_OK
    assert "multiplicity(core) = 1 " in capsys.readouterr().out
    assert main(["verify-theorem", "--input", str(path), "--tol",
                 "1e-6"]) == EXIT_OK
    assert "multiplicity(core) = 2 " in capsys.readouterr().out


def _decompose_tol(path, capsys, *flags):
    assert main(["decompose", "--input", str(path), *flags]) == EXIT_OK
    return capsys.readouterr().out.split("tol=")[1].split()[0]


def test_tolerance_precedence(tmp_path, monkeypatch, capsys):
    """--tol, then OPENSYS_TOL, then the file's tol, for a file read back."""
    path = tmp_path / "s.json"
    main(["gen-random", "--d1", "2", "--d2", "3", "--rank", "1",
          "--seed", "0", "--tol", "1e-10", "--output", str(path)])
    monkeypatch.delenv("OPENSYS_TOL", raising=False)
    assert _decompose_tol(path, capsys) == "1e-10"
    monkeypatch.setenv("OPENSYS_TOL", "1e-6")
    assert _decompose_tol(path, capsys) == "1e-06"
    assert _decompose_tol(path, capsys, "--tol", "1e-8") == "1e-08"


def test_tol_override_keeps_closed_form(tmp_path, capsys, monkeypatch):
    """decompose --tol 1e-6 on a lattice spec file keeps the closed-form
    eigenpairs of Omega: eigh factors Omega1 and Omega2 only."""
    path = tmp_path / "lat.json"
    assert main(["gen-lattice", "--box", "6", "--cube", "2",
                 "--output", str(path)]) == EXIT_OK
    shapes = []

    def counted(a, *args, _eigh=np.linalg.eigh, **kwargs):
        shapes.append(np.shape(a))
        return _eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert _decompose_tol(path, capsys, "--tol", "1e-6") == "1e-06"
    assert sorted(shapes) == [(8, 8), (208, 208)]


@pytest.mark.parametrize("flags, env, message", [
    (["--tol", "inf"], None, "--tol must be positive and finite, got inf"),
    (["--tol=-1e-9"], None, "--tol must be positive and finite, got -1e-09"),
    ([], "nan", "OPENSYS_TOL must be positive and finite, got nan"),
    ([], "0", "OPENSYS_TOL must be positive and finite, got 0.0"),
], ids=["tol-inf", "tol-negative", "env-nan", "env-zero"])
def test_bad_tolerance_names_its_source(sys_file, capsys, monkeypatch,
                                        flags, env, message):
    if env is None:
        monkeypatch.delenv("OPENSYS_TOL", raising=False)
    else:
        monkeypatch.setenv("OPENSYS_TOL", env)
    assert main(["decompose", "--input", str(sys_file), *flags]) == EXIT_USAGE
    assert capsys.readouterr().err.strip() == f"error: {message}"
