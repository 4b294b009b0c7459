"""Benchmark of opensys: time, memory and failures of certified verdicts.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lattice-certify --seed 1 \
        --seconds 40 --trace 0

Each run is one process with a single closed-loop caller.  Set-up (a
fresh import of opensys plus input generation from the seed) runs once
before the rounds of the workload, which run for about ``--seconds``
seconds; every output is checked.  Without tracing, a slice of the
fixed reference computation of ``reference.py`` runs after every
operation, and set-up runs again, into a spare directory, after every
round.  ``round_per_ref`` is the median ratio of a round's time to the
time of the reference slices between its operations; ``setup_s`` is the
median ratio of a set-up to the mean slice of the round before it, in
seconds of a host that runs a slice in ``reference.SLICE_S``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from traced rounds.  The last line of standard output is
the result as JSON; the full record, with the
per-operation outcomes and the spans, goes to ``.perfbench_run/`` in the
checkout.  ``--self-check`` checks the benchmark's own span arithmetic
and failure accounting.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="only check the benchmark's own arithmetic")
    args = p.parse_args(argv)
    if not args.self_check and not args.workload:
        p.error("--workload is required")
    return args


def limit_blas_threads() -> None:
    """Run BLAS on one thread, at or below the CPUs this process may use.

    On a 2-CPU machine a second OpenBLAS thread made no workload faster,
    burned 40% more CPU time and doubled the round-to-round spread.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in-process."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                out[os.path.basename(lib)] = getattr(handle, symbol)()
                break
    return out


def machine_stamp() -> dict:
    import platform

    import numpy
    import scipy

    import opensys

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "mem_gb": round(os.sysconf("SC_PAGE_SIZE")
                        * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 1),
        "blas": blas_name,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "opensys": opensys.__version__,
    }


def opensys_modules() -> dict:
    """The imported opensys modules, and the workloads module that
    imports them, by name."""
    return {name: module for name, module in sys.modules.items()
            if name in ("opensys", "workloads")
            or name.startswith("opensys.")}


def setup(name: str, seed: int, workdir: str):
    """Import opensys afresh and generate the workload's inputs into an
    empty ``workdir``; return the workload and the workloads module.

    The opensys modules and the workloads module that imports them are
    dropped from ``sys.modules`` first, so that work done at import time
    is timed in every repeat.  numpy and scipy stay imported: their
    import time does not depend on opensys.
    """
    for module in opensys_modules():
        del sys.modules[module]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    import workloads

    return workloads.WORKLOADS[name](seed, workdir), workloads


def declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and the per-layer metrics, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "opensys", "__init__.py")):
        print(f"error: no opensys sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    units = declared_units()[args.trace]
    import resource

    start = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - start
    import harness
    import reference
    import selfcheck
    import tracing

    if args.self_check:
        problems = selfcheck.run()
        print("\n".join(problems) or "self-check passed")
        return 1 if problems else 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(RUN_DIR, f"work-{args.workload}-{os.getpid()}")
    spare = f"{workdir}-spare"
    setup_times = []

    def timed_setup(directory):
        start = time.perf_counter()
        made = setup(args.workload, args.seed, directory)
        setup_times.append(time.perf_counter() - start)
        return made

    def spare_setup():
        # opensys imports some names inside functions; the running
        # workload must find its own modules there, not the spare's
        running = opensys_modules()
        timed_setup(spare)
        for module in opensys_modules():
            del sys.modules[module]
        sys.modules.update(running)

    try:
        workload, workloads = timed_setup(workdir)
        problems = selfcheck.run()
        tracer = tracing.Tracer() if args.trace else None
        # the tracer patches the modules imported when a round starts,
        # so spare set-ups run only without it
        untraced = tracer is None
        outcomes, rounds = harness.run_rounds(
            workload.round_ops, args.seconds, tracer,
            harness.CliErrors(workloads.cli),
            reference=reference.Reference() if untraced else None,
            between=spare_setup if untraced else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)

    if args.trace:
        traced = [t for t, kind, _ in rounds if kind == "spans"]
        plain = [t for t, kind, _ in rounds if kind == "plain"]
        metrics = tracer.metrics(len(traced), sum(traced))
        metrics["trace.overhead_s"] = statistics.median(traced) - \
            statistics.median(plain)
    else:
        metrics = harness.end_to_end(rounds, outcomes, setup_times[1:],
                                     reference.SLICE_S)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ "
              f"from BENCHMARK.json", file=sys.stderr)
        return 3

    n_failed = sum(harness.failed(o) for o in outcomes)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "stamp": machine_stamp(),
        "import_s": import_s,
        "setup_times": setup_times,
        "rounds": [{"s": t, "kind": kind, "reference_s": ref}
                   for t, kind, ref in rounds],
        "self_check": problems,
        "outcomes": outcomes,
        "fail_ratio": n_failed / len(outcomes),
        "latency": harness.latency(outcomes),
        "throughput": harness.throughput(outcomes, rounds),
        "metrics": metrics,
    }
    if tracer is not None:
        record["spans"] = [s.to_dict() for s in tracer.spans]
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(
        RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for o in outcomes:
        if harness.failed(o):
            print(f"failed op {o['op']} ({o['name']}): exit {o['exit_code']}, "
                  f"{o['error'] or o['check']}")
    for problem in problems:
        print(f"self-check: {problem}")
    print(json.dumps({"stamp": record["stamp"], "rounds": len(rounds),
                      "fail_ratio": record["fail_ratio"], "record": path}))
    print(json.dumps({
        # a raised error or a nonzero exit is an uncertified verdict too
        "correct": not problems and n_failed == 0,
        "attempted": len(outcomes),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
