"""Command-line pipeline: generate, decompose, simulate, verify, report.

Exit codes: 0 on success, 1 when a verification assertion exceeds its
tolerance (the offending quantity is printed), 2 on input or usage errors.
Every command takes its tolerance from --tol, else from the OPENSYS_TOL
environment variable, else from the input system file's ``tol`` (for the
gen-* commands, which read no file, 1e-10).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys as _sys

import numpy as np

from . import decomposition as dc
from . import dynamics as dyn
from . import lattice as lat
from .subspaces import DEFAULT_TOL
from .systems import (
    assemble_full,
    load_system,
    random_system,
    save_system,
    write_json_atomic,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


def _resolve_tol(tol: float | None, file_tol: float = DEFAULT_TOL) -> float:
    """--tol, else OPENSYS_TOL, else the system file's tol, which loading
    has checked.  A value that is not a positive finite number is a
    ValueError that names where it came from."""
    if tol is not None:
        source = "--tol"
    elif "OPENSYS_TOL" in os.environ:
        source, text = "OPENSYS_TOL", os.environ["OPENSYS_TOL"]
        try:
            tol = float(text)
        except ValueError:
            raise ValueError(f"{source} must be a number, got {text!r}") \
                from None
    else:
        return file_tol
    if not 0 < tol < np.inf:
        raise ValueError(f"{source} must be positive and finite, got {tol}")
    return tol


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None,
                   help="relative tolerance (default: OPENSYS_TOL, else the "
                        "input file's tol, else 1e-10)")


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=2000)


def _load(path: str, tol: float | None):
    sys = load_system(path)
    tol = _resolve_tol(tol, sys.tol)
    # replace keeps a lattice's spec, and with it the closed form of Omega
    return sys if tol == sys.tol else dataclasses.replace(sys, tol=tol)


def _initial_observable(sys, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sys.d1) + 1j * rng.standard_normal(sys.d1)
    return v / np.linalg.norm(v)


def cmd_gen_random(args) -> int:
    tol = _resolve_tol(args.tol)
    sys = random_system(args.d1, args.d2, args.rank, args.seed, tol)
    save_system(sys, args.output)
    print(f"wrote random system d1={args.d1} d2={args.d2} "
          f"rank={args.rank} seed={args.seed} tol={tol:g} -> {args.output}")
    return EXIT_OK


def cmd_gen_lattice(args) -> int:
    tol = _resolve_tol(args.tol)
    if args.offset is None:
        spec = lat.LatticeSpec.centered(args.box, args.cube, args.dims, tol)
    else:
        offset = tuple(int(x) for x in args.offset.split(","))
        spec = lat.LatticeSpec(args.box, args.cube, offset, args.dims, tol)
    data = lat.spec_to_dict(spec)
    write_json_atomic(data, args.output)
    print(f"wrote lattice system dims={spec.dims} box={spec.box} "
          f"cube={spec.cube} offset={spec.offset} "
          f"(d={data['d1'] + data['d2']}) -> {args.output}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    sys = _load(args.input, args.tol)
    dec = dc.decompose(sys)
    residual = dc.verify_block_form(sys, dec)
    # the 2-norm of Hermitian Omega, from the spectrum decompose computed
    scale = max(float(np.max(np.abs(dec.spectrum.values), initial=0.0)), 1.0)
    report = dec.to_dict()
    report["block_residual"] = residual
    report["block_residual_relative"] = residual / scale
    if args.output:
        write_json_atomic(report, args.output)
    dims = dec.dims
    print(f"dims: h1d={dims['h1d']} h1c={dims['h1c']} "
          f"h2c={dims['h2c']} h2d={dims['h2d']}  tol={sys.tol:g}")
    print(f"block residual: {residual:.3e} ({residual / scale:.3e} relative)")
    if residual > dc.CONSISTENCY_FACTOR * sys.tol * scale:
        print("FAIL: block-zero pattern violated")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    sys = _load(args.input, args.tol)
    report = dc.verify_theorem(sys)
    for name, dist in report.orbit_equalities:
        print(f"{name}: {dist:.3e}")
    print(f"multiplicity(core) = {report.multiplicity_omega_c}  "
          f"bound = {report.bound}  satisfied = {report.bound_satisfied}")
    print(f"reconstructible core: {report.reconstructible_core}")
    print(f"dims: {report.dims}  tol = {sys.tol:g}")
    if args.output:
        write_json_atomic(report.to_dict(), args.output)
    if not report.passed():
        name, worst = max(report.orbit_equalities, key=lambda pair: pair[1])
        limit = report.distance_limit()
        reasons = [f"max distance {worst:.3e} "
                   f"{'>' if worst > limit else '<='} limit {limit:g} ({name})"]
        if not report.bound_satisfied:
            reasons.append(f"multiplicity {report.multiplicity_omega_c} > "
                           f"bound {report.bound}")
        if not report.reconstructible_core:
            reasons.append("core not reconstructible")
        print("FAIL: " + "; ".join(reasons))
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_kernel(args) -> int:
    sys = _load(args.input, args.tol)
    kernel = dyn.make_kernel(sys, args.side)
    grid = dyn.make_grid(args.t_max, args.steps)
    dyn.kernel_to_csv(kernel, grid, args.output)
    print(f"wrote {args.side} kernel ({kernel.dim}x{kernel.dim}) "
          f"on [0, {args.t_max}] -> {args.output}")
    return EXIT_OK


def cmd_simulate_full(args) -> int:
    sys = _load(args.input, args.tol)
    full = assemble_full(sys)
    v1 = _initial_observable(sys, args.seed)
    v0 = np.concatenate([v1, np.zeros(sys.d2, dtype=complex)])
    grid = dyn.make_grid(args.t_max, args.steps)
    traj = dyn.propagate_full(full, v0, dyn.ForcingSignal.zero(), grid,
                              eigenpairs=sys.eigenpairs())
    dyn.trajectory_to_csv(traj, args.output)
    norms = traj.norms()
    drift = float(np.max(np.abs(norms - norms[0])))
    print(f"propagated full system (d={full.dim}), norm drift {drift:.3e} "
          f"-> {args.output}")
    return EXIT_OK


def cmd_simulate_reduced(args) -> int:
    sys = _load(args.input, args.tol)
    v1 = _initial_observable(sys, args.seed)
    grid = dyn.make_grid(args.t_max, args.steps)
    traj = dyn.propagate_reduced(
        sys, v1, dyn.ForcingSignal.zero(dyn.OBSERVABLE), grid)
    dyn.trajectory_to_csv(traj, args.output)
    print(f"propagated reduced system (d1={sys.d1}) -> {args.output}")
    return EXIT_OK


def cmd_compare(args) -> int:
    sys = _load(args.input, args.tol)
    v1 = _initial_observable(sys, args.seed)
    result = dyn.reduction_discrepancy(sys, v1, args.t_max, args.steps)
    print(f"sup-norm full-vs-reduced: {result['sup_diff_coarse']:.3e} "
          f"at {args.steps} steps, {result['sup_diff_fine']:.3e} at "
          f"{2 * args.steps} steps")
    print(f"empirical convergence order: {result['order']:.2f}")
    if args.output:
        write_json_atomic(result, args.output)
    return EXIT_OK


def cmd_no_gain(args) -> int:
    sys = _load(args.input, args.tol)
    kernel = dyn.make_kernel(sys, args.side)
    grid = dyn.make_grid(args.t_max, args.steps)
    result = dyn.no_gain_check(kernel, args.trials, grid, args.seed)
    print(f"min quadratic form over {args.trials} trials: "
          f"{result.min_value:.3e}")
    print(f"quadrature error bound: {result.quad_error_bound:.3e}")
    if args.output:
        write_json_atomic(
            {"min_value": result.min_value,
             "quad_error_bound": result.quad_error_bound,
             "values": list(result.values)},
            args.output,
        )
    if not result.passed:
        print("FAIL: no-gain condition violated beyond quadrature bound")
        return EXIT_VERIFICATION
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once: ``main`` finds the
    command's ``cmd_*`` function by name when it runs it."""
    parser = argparse.ArgumentParser(
        prog="opensys",
        description="Decompose conservative systems into coupled/decoupled "
                    "parts and cross-validate reduced open dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-random", help="generate a pseudo-random system")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    _add_tol(p)

    p = sub.add_parser("gen-lattice",
                       help="write the lattice example's spec; the system "
                            "is built from it on load")
    p.add_argument("--box", type=int, required=True,
                   help="sites per axis of the ambient box")
    p.add_argument("--cube", type=int, required=True,
                   help="sites per axis of the observable cube")
    p.add_argument("--offset", default=None,
                   help="comma-separated low corner (default: centered)")
    p.add_argument("--dims", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--output", required=True)
    _add_tol(p)

    p = sub.add_parser("decompose", help="four-way decomposition + block check")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    _add_tol(p)

    p = sub.add_parser("verify-theorem",
                       help="orbit equalities, multiplicity bound, core")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    _add_tol(p)

    p = sub.add_parser("kernel", help="export a delayed-response kernel to CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--side", choices=("observable", "hidden"),
                   default="observable")
    p.add_argument("--output", required=True)
    _add_grid(p)
    _add_tol(p)

    p = sub.add_parser("simulate-full", help="propagate the full system")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random observable initial state")
    _add_grid(p)
    _add_tol(p)

    p = sub.add_parser("simulate-reduced", help="propagate the reduced system")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_grid(p)
    _add_tol(p)

    p = sub.add_parser("compare",
                       help="full vs reduced discrepancy and convergence order")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_grid(p)
    _add_tol(p)

    p = sub.add_parser("no-gain", help="dissipation quadratic-form check")
    p.add_argument("--input", required=True)
    p.add_argument("--side", choices=("observable", "hidden"),
                   default="observable")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    _add_grid(p)
    _add_tol(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except dc.DecompositionError as exc:
        # a failed certificate mid-pipeline, not bad input
        print(f"verification failure in {args.command}: {exc}",
              file=_sys.stderr)
        return EXIT_VERIFICATION
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a system too large for the dense route, such as a huge lattice
        print(f"error: {args.command}: out of memory: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
