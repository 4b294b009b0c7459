"""The benchmark's workloads, its cross-check script and the experiment
scripts call opensys from outside ``src/``; one round of each workload and
a short run of each script must still work, or the benchmark and the
studies break."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BENCHMARKED = [w["name"] for w in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports harness
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", BENCHMARKED)
def test_workload_round_passes_its_checks(name, workloads, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    ops = workload.round_ops()
    assert ops
    for op in ops:
        result = op.run()
        if op.command is not None:
            assert result == 0, f"{op.name} exited {result}"
        assert op.check(result) is None, op.name


@pytest.mark.parametrize("argv", [
    ["scripts/reduction_convergence.py", "--levels", "2"],
    ["scripts/lattice_multiplicity_scan.py", "--dims", "1", "--boxes", "6",
     "10"],
    ["scripts/lattice_multiplicity_scan.py", "--dims", "3", "--boxes", "6",
     "7"],
    ["scripts/code_lines.py"],
    # passes the zero forcing to propagate_reduced positionally
    ["perfbench/crosscheck.py"],
    ["scripts/reduction_convergence.py", "--lattice", "5", "1", "--levels",
     "2"],
    # eight sectors of one cube site each
    ["scripts/reduction_convergence.py", "--lattice", "6", "2", "--levels",
     "2"],
])
def test_script_runs(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / argv[0]), *argv[1:]],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr
