"""The benchmark's tracer wraps opensys functions that it names as strings;
each of them must exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from opensys.dynamics import propagate_reduced

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}"
               for module, names in tracing.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert tracing.LAYER_FUNCTIONS and not missing


def test_propagate_reduced_times_is_fourth():
    """The tracer's ``_annotate`` reads propagate_reduced's grid as its
    fourth positional argument."""
    names = list(inspect.signature(propagate_reduced).parameters)
    assert names[:4] == ["sys", "v1_0", "f1", "times"]
