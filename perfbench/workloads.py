"""The benchmark's workloads: inputs from a seed, one round of operations,
and the checks that every output must pass.

Every workload calls opensys through public functions only: the CLI
(``opensys.cli.main`` run in-process) or library calls looked up as
module attributes, so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os

import numpy as np

from opensys import cli
from opensys import decomposition as dc
from opensys import dynamics as dyn
from opensys import lattice as lat
from opensys import systems

from harness import Op

# Pinned acceptance tolerances of tests/test_acceptance.py; never looser.
DISTANCE_TOL = 1e-8
BLOCK_TOL = 1e-9
REDUCTION_SUP_TOL = 1e-3
ORDER_BAND = (1.7, 2.3)


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cli_op(name: str, argv: list[str], check) -> Op:
    return Op(name, functools.partial(cli.main, argv), check, argv[0])


class LatticeCertify:
    """``gen-lattice -> decompose -> verify-theorem`` on one lattice box.

    The 3-d box 6, cube 2 lattice (n=216), with the cube one site off
    the centre.  A round takes about 1 s, so a run holds dozens of
    rounds, each timed next to the reference computation; the flagship
    box 8, cube 3 takes 14 s a round and is run by hand.

    The seed picks, per axis, one of the two mirror-image placements in
    AXIS_OFFSETS; all of them are the same problem up to a permutation
    of sites, so the work does not depend on the seed.  The reference
    values the checks compare against are built in set-up, from the
    library directly.
    """

    #: (dims, box, cube) of the lattice.
    CASE = (3, 6, 2)
    #: The cube's offset along each axis, one of a mirror-image pair.
    AXIS_OFFSETS = (1, 3)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        dims, box, cube = self.CASE
        offset = tuple(int(rng.choice(self.AXIS_OFFSETS))
                       for _ in range(dims))
        self.spec = spec = lat.LatticeSpec(box, cube, offset, dims)
        self.workdir = workdir
        sys = lat.build_lattice_system(spec)
        self.expected = {
            "d1": sys.d1, "d2": sys.d2,
            "rank_gamma": int(np.linalg.matrix_rank(sys.gamma)),
            "surface": lat.surface_count(spec.cube, spec.dims),
            "bound": lat.multiplicity_bound(spec.cube, spec.dims),
        }

    def round_ops(self) -> list[Op]:
        spec = self.spec
        system, dec, ver = (os.path.join(self.workdir, name) for name in
                            ("lattice.json", "decompose.json", "verify.json"))
        label = f"{spec.dims}d box {spec.box} cube {spec.cube} " \
                f"offset {','.join(map(str, spec.offset))}"
        return [
            _cli_op(f"gen-lattice {label}",
                    ["gen-lattice", "--box", str(spec.box), "--cube",
                     str(spec.cube), "--dims", str(spec.dims), "--offset",
                     ",".join(map(str, spec.offset)), "--output", system],
                    functools.partial(self._check_system, system)),
            _cli_op(f"decompose {label}",
                    ["decompose", "--input", system, "--output", dec],
                    functools.partial(self._check_decompose, dec)),
            _cli_op(f"verify-theorem {label}",
                    ["verify-theorem", "--input", system, "--output", ver],
                    functools.partial(self._check_verify, dec, ver)),
        ]

    def _check_system(self, path, _exit_code) -> str | None:
        want = self.expected
        data = _read(path)
        meta = data["lattice"]
        if (data["d1"], data["d2"]) != (want["d1"], want["d2"]):
            return f"system dims {data['d1']}+{data['d2']}"
        if (meta["surface_count"], meta["multiplicity_bound"]) != \
                (want["surface"], want["bound"]):
            return f"lattice metadata {meta}"
        return None

    def _check_decompose(self, path, _exit_code) -> str | None:
        want = self.expected
        report = _read(path)
        dims = report["dims"]
        if dims["h1d"] + dims["h1c"] != want["d1"] or \
                dims["h2c"] + dims["h2d"] != want["d2"]:
            return f"dims {dims} do not split {want['d1']}+{want['d2']}"
        if not report["block_residual_relative"] <= BLOCK_TOL:
            return f"block residual {report['block_residual_relative']:.3e}"
        return None

    def _check_verify(self, dec_path, path, _exit_code) -> str | None:
        want = self.expected
        data = _read(path)
        data["orbit_equalities"] = [tuple(e) for e in data["orbit_equalities"]]
        report = dc.TheoremReport(**data)
        dims = report.dims
        if os.path.exists(dec_path) and _read(dec_path)["dims"] != dims:
            return f"verify dims {dims} differ from decompose dims"
        rank = want["rank_gamma"]
        if rank > want["surface"]:
            return f"rank(Gamma) {rank} > surface count {want['surface']}"
        if not report.max_distance <= DISTANCE_TOL:
            return f"projector distance {report.max_distance:.3e}"
        if not report.passed(DISTANCE_TOL):
            return "TheoremReport.passed() is False"
        if report.bound != min(2 * rank, dims["h1c"], dims["h2c"]):
            return f"bound {report.bound} != min(2 rank, h1c, h2c)"
        if not report.multiplicity_omega_c <= min(report.bound, want["bound"]):
            return f"multiplicity {report.multiplicity_omega_c} > bound"
        return None


class LatticeFlagship(LatticeCertify):
    """The flagship 3-d box 8, cube 3 lattice (n=512), with the cube at
    one of the placements nearest the centre; run by hand, because a
    run would hold only three of its 14 s rounds."""

    CASE = (3, 8, 3)
    AXIS_OFFSETS = (2, 3)


class LatticeDefects(LatticeCertify):
    """The 2-d box 24, cube 6 lattice, on which ``decompose`` fails with a
    ContainmentError at this version; run by hand to record that failure.
    It is not in BENCHMARK.json because its operations fail."""

    CASE = (2, 24, 6)
    AXIS_OFFSETS = (9,)


class RandomSweep:
    """200 random systems, d1=12, d2=20, 40 of each coupling rank 0-4.

    A round is the next batch of 20 systems, four of each rank, so a run
    holds dozens of rounds of equal work and goes through the 200
    systems in ten rounds.  The seed draws the systems and their order
    within each batch.  The number of systems of each rank is fixed
    because a rank-0 system costs a quarter of the others, so a drawn
    mix would make the work depend on the seed.

    Each operation is one system: a JSON round trip in memory through
    ``system_to_dict``/``system_from_dict``, then ``decompose``,
    ``verify_block_form`` and ``verify_theorem``.
    """

    SYSTEMS, BATCH = 200, 20
    D1, D2, MAX_RANK = 12, 20, 4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        ranks = np.arange(self.MAX_RANK + 1)
        per_batch = np.repeat(ranks, self.BATCH // len(ranks))
        ranks = np.concatenate([rng.permutation(per_batch) for _ in
                                range(self.SYSTEMS // self.BATCH)])
        self.cases = [
            (int(rank), systems.random_system(self.D1, self.D2, int(rank),
                                              seed=int(rng.integers(2 ** 31))))
            for rank in ranks]
        self.next = 0

    def round_ops(self) -> list[Op]:
        first, self.next = self.next, (self.next + self.BATCH) % self.SYSTEMS
        return [Op(f"system {i} rank {rank}",
                   functools.partial(self._run, sys),
                   functools.partial(self._check, rank, sys))
                for i, (rank, sys) in
                enumerate(self.cases[first:first + self.BATCH], first)]

    @staticmethod
    def _run(sys):
        text = json.dumps(systems.system_to_dict(sys))
        loaded = systems.system_from_dict(json.loads(text))
        dec = dc.decompose(loaded)
        residual = dc.verify_block_form(loaded, dec)
        report = dc.verify_theorem(loaded, dec)
        return loaded, dec, residual, report

    @staticmethod
    def _check(rank, sys, result) -> str | None:
        loaded, dec, residual, report = result
        for name in ("omega1", "omega2", "gamma"):
            if not np.array_equal(getattr(loaded, name), getattr(sys, name)):
                return f"JSON round trip changed {name}"
        dims = dec.dims
        if dims["h1d"] + dims["h1c"] != sys.d1 or \
                dims["h2c"] + dims["h2d"] != sys.d2:
            return f"dims {dims}"
        omega_norm = np.linalg.norm(systems.assemble_full(sys).omega, 2)
        if not residual <= BLOCK_TOL * max(omega_norm, 1e-300):
            return f"block residual {residual / omega_norm:.3e} relative"
        if not report.max_distance <= DISTANCE_TOL:
            return f"projector distance {report.max_distance:.3e}"
        if not report.passed(DISTANCE_TOL):
            return "TheoremReport.passed() is False"
        if not report.multiplicity_omega_c <= report.bound <= 2 * rank:
            return (f"multiplicity {report.multiplicity_omega_c}, bound "
                    f"{report.bound}, coupling rank {rank}")
        return None


class OpenDynamics:
    """Reduced versus full propagation, and the no-gain check.

    ``compare`` on a random d1=4, d2=8, rank-2 system at 1000 steps over
    [0, 10], and on the 3-d box 6, cube 2 lattice (d1=8, d2=208) at 500
    steps over [0, 2.5], the same step as the random one, so both stay
    within the acceptance suite's error tolerance; then ``no-gain`` on
    the random system at 1000 steps.  A round takes about 1.2 s, so a
    run holds dozens of rounds.
    """

    TRIALS = 2

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        path = functools.partial(os.path.join, workdir)
        self.random_path, self.lattice_path = path("random.json"), \
            path("lattice.json")
        systems.save_system(
            systems.random_system(4, 8, 2, seed=int(rng.integers(2 ** 31))),
            self.random_path)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["gen-lattice", "--box", "6", "--cube", "2",
                               "--output", self.lattice_path])
        if status != 0:
            raise RuntimeError(f"gen-lattice exited with {status}")
        self.seeds = [str(int(s)) for s in rng.integers(2 ** 31, size=3)]
        self.out = [path("compare_random.json"), path("compare_lattice.json"),
                    path("no_gain.json")]

    def round_ops(self) -> list[Op]:
        compare_random, compare_lattice, no_gain = self.out
        return [
            _cli_op("compare random d1=4 d2=8 steps 1000",
                    ["compare", "--input", self.random_path, "--t-max", "10",
                     "--steps", "1000", "--seed", self.seeds[0],
                     "--output", compare_random],
                    functools.partial(self._check_compare, compare_random,
                                      1000)),
            _cli_op("compare lattice box 6 cube 2 steps 500",
                    ["compare", "--input", self.lattice_path, "--t-max",
                     "2.5", "--steps", "500", "--seed", self.seeds[1],
                     "--output", compare_lattice],
                    functools.partial(self._check_compare, compare_lattice,
                                      500)),
            _cli_op("no-gain random d1=4 steps 1000",
                    ["no-gain", "--input", self.random_path, "--t-max", "10",
                     "--steps", "1000", "--trials", str(self.TRIALS),
                     "--seed", self.seeds[2], "--output", no_gain],
                    functools.partial(self._check_no_gain, no_gain)),
        ]

    @staticmethod
    def _check_compare(path, steps, _exit_code) -> str | None:
        result = _read(path)
        coarse, fine = result["sup_diff_coarse"], result["sup_diff_fine"]
        if result["steps"] != steps:
            return f"ran {result['steps']} steps"
        if not coarse <= REDUCTION_SUP_TOL:
            return f"reduced vs full gap {coarse:.3e}"
        if fine > 1e-12 and not ORDER_BAND[0] <= result["order"] <= \
                ORDER_BAND[1]:
            return f"convergence order {result['order']:.3f}"
        return None

    def _check_no_gain(self, path, _exit_code) -> str | None:
        result = _read(path)
        if len(result["values"]) != self.TRIALS:
            return f"{len(result['values'])} trial values"
        verdict = dyn.NoGainResult(result["min_value"],
                                   np.array(result["values"]),
                                   result["quad_error_bound"])
        if not verdict.passed:
            return (f"min quadratic form {verdict.min_value:.3e} below "
                    f"-{verdict.quad_error_bound:.3e}")
        return None


#: Workloads by name; BENCHMARK.json lists those compared between
#: versions, the others are run by hand.
WORKLOADS = {
    "lattice-certify": LatticeCertify,
    "random-sweep": RandomSweep,
    "open-dynamics": OpenDynamics,
    "lattice-flagship": LatticeFlagship,
    "lattice-defects": LatticeDefects,
}
