"""Span tracing of the opensys layers from outside the package.

A :class:`Tracer` replaces each traced function by a wrapper under every
name it is looked up by: the defining module and every ``opensys`` module
that imported it by name (``opensys.decomposition`` imports ``orbit``,
``complement`` and the other ``subspaces`` functions that way).  The
dense factorizations ``numpy.linalg.eigh``, ``eigvalsh`` and ``svd`` are
counted, not spanned; ``svd`` is also replaced inside numpy's own module
so that ``norm(x, 2)`` is counted too.

A tracer works in one of two modes, set per round.  In ``spans`` mode
it records spans and counts factorizations; this is the round whose
times are reported.  In ``probe`` mode it records no spans and only
takes the measurements that cost time: ``tracemalloc`` peaks of the
``dynamics`` calls and hashes of the ``eigh`` inputs.

Spans stay in memory (name, start, end, parent, operation id) and are
written out by the caller when the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

#: Traced functions, by defining module.
LAYER_FUNCTIONS = {
    "opensys.subspaces": ("orbit", "orthonormalize", "complement",
                          "projector_distance", "numeric_rank"),
    "opensys.decomposition": ("decompose", "verify_theorem",
                              "verify_block_form", "multiplicity"),
    "opensys.systems": ("system_to_dict", "write_json_atomic",
                        "system_from_dict", "load_system"),
    "opensys.lattice": ("build_lattice_system",),
    "opensys.dynamics": ("make_kernel", "propagate_full", "propagate_reduced",
                         "no_gain_check"),
}

#: Spans of the ``systems`` layer that encode to, or decode from, JSON.
ENCODE = ("systems.system_to_dict", "systems.write_json_atomic")
DECODE = ("systems.system_from_dict", "systems.load_system")

#: The CLI commands the workloads drive, each traced as ``cli.<command>``.
CLI_COMMANDS = ("gen-lattice", "decompose", "verify-theorem", "compare",
                "no-gain")

LINALG = ("eigh", "eigvalsh", "svd")
VERIFY = "decomposition.verify_theorem"
MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        out = {"name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "op": self.op}
        if self.error:
            out["error"] = self.error
        if self.info:
            out.update(self.info)
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


class Tracer:
    """Records spans and counts, or probes, while ``active``; inert
    otherwise.  ``mode`` is ``"spans"`` or ``"probe"``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.alloc_peak: dict[str, float] = {}
        self.active = False
        self.mode = "spans"
        self.op = None
        self.round = 0
        self._stack: list[int] = []
        self._verify_depth = 0
        self._eigh_inputs: set = set()
        self._mem: list[list[int]] = []  # per open dynamics call: [base, peak]
        self._patched: list[tuple] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if name == VERIFY:
            self._verify_depth += 1
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        if span.name == VERIFY:
            self._verify_depth -= 1

    # -- allocation peaks of dynamics calls ----------------------------------
    def _mem_enter(self) -> None:
        if not self._mem:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self, name: str) -> None:
        base, peak = self._mem.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        used = (peak - base) / MB
        self.alloc_peak[name] = max(self.alloc_peak.get(name, 0.0), used)

    # -- wrappers -----------------------------------------------------------
    def wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.mode == "probe":
                if layer != "dynamics":
                    return fn(*args, **kwargs)
                tracer._mem_enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._mem_exit(name)
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
                tracer._annotate(name, span, args, kwargs)

        return traced

    def _annotate(self, name, span, args, kwargs) -> None:
        """Record step counts and JSON file sizes from a call's arguments."""
        if name == "dynamics.propagate_reduced":
            times = args[3] if len(args) > 3 else kwargs["times"]
            span.info = {"steps": len(times) - 1}
        elif name in ("systems.write_json_atomic", "systems.load_system"):
            position = 1 if name == "systems.write_json_atomic" else 0
            path = args[position] if len(args) > position else kwargs["path"]
            if os.path.exists(path):
                self.counts["systems.json_bytes"] += os.path.getsize(path)

    def count_linalg(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if tracer.active and tracer.mode == "spans":
                tracer.counts[f"linalg.{name}.calls"] += 1
                if tracer._verify_depth:
                    tracer.counts["linalg.in_verify"] += 1
            elif tracer.active and name == "eigh":
                tracer.counts["probe.eigh.calls"] += 1
                digest = hashlib.blake2b(np.ascontiguousarray(a).tobytes(),
                                         digest_size=16).digest()
                tracer._eigh_inputs.add((tracer.round, digest))
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every traced name; :meth:`uninstall` restores them."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "opensys" or n.startswith("opensys.")]
        for modname, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(modname)
            layer = modname.split(".")[-1]
            for fname in names:
                original = getattr(home, fname)
                self._replace(modules, original,
                              self.wrap(f"{layer}.{fname}", original))
        linalg_modules = [np.linalg]
        inner = getattr(np.linalg, "_linalg", None) or \
            getattr(np.linalg, "linalg", None)
        if inner is not None:
            linalg_modules.append(inner)
        for fname in LINALG:
            original = getattr(np.linalg, fname)
            self._replace(linalg_modules, original,
                          self.count_linalg(fname, original))

    def _replace(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- metrics ------------------------------------------------------------
    def metrics(self, rounds: int, traced_s: float) -> dict[str, float]:
        """Per-layer metrics per span round; ``traced_s`` is their time.

        Counts and times are divided by ``rounds``; ratios and allocation
        peaks are over all rounds of their mode.  The ``trace.*`` metric
        here is the share of ``traced_s`` that the outermost layer spans
        cover, those that no other span encloses but a ``cli.*`` one.
        """
        rounds = max(rounds, 1)
        calls: Counter = Counter()
        failed: Counter = Counter()
        self_s: Counter = Counter()
        incl: Counter = Counter()
        exit_codes: Counter = Counter()
        steps = top = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span.name] += 1
            self_s[span.name] += own
            incl[span.name] += span.duration
            failed[span.name] += span.error is not None
            outer = None if span.parent is None else self.spans[span.parent]
            if not span.name.startswith("cli.") and \
                    (outer is None or outer.name.startswith("cli.")):
                top += span.duration
            info = span.info or {}
            steps += info.get("steps", 0)
            exit_codes[span.name] = max(exit_codes[span.name],
                                        info.get("exit_code", 0))

        out: dict[str, float] = {}
        for fname in LAYER_FUNCTIONS["opensys.subspaces"]:
            key = f"subspaces.{fname}"
            out[f"{key}.calls"] = calls[key] / rounds
            out[f"{key}.self_s"] = self_s[key] / rounds
        out["subspaces.complement.failed"] = \
            failed["subspaces.complement"] / rounds
        for fname in LINALG:
            out[f"linalg.{fname}.calls"] = \
                self.counts[f"linalg.{fname}.calls"] / rounds
        probed = self.counts["probe.eigh.calls"]
        out["linalg.eigh.distinct_ratio"] = \
            len(self._eigh_inputs) / probed if probed else 0.0
        out["linalg.factorizations_per_verify"] = \
            self.counts["linalg.in_verify"] / calls[VERIFY] \
            if calls[VERIFY] else 0.0
        for fname in LAYER_FUNCTIONS["opensys.decomposition"]:
            key = f"decomposition.{fname}"
            out[f"{key}.calls"] = calls[key] / rounds
            out[f"{key}.self_s"] = self_s[key] / rounds
            out[f"{key}.failed"] = failed[key] / rounds
        out["systems.encode.s"] = sum(self_s[k] for k in ENCODE) / rounds
        out["systems.decode.s"] = sum(self_s[k] for k in DECODE) / rounds
        out["systems.json_bytes"] = self.counts["systems.json_bytes"] / rounds
        out["lattice.build_lattice_system.s"] = \
            incl["lattice.build_lattice_system"] / rounds
        for fname in LAYER_FUNCTIONS["opensys.dynamics"]:
            key = f"dynamics.{fname}"
            out[f"{key}.calls"] = calls[key] / rounds
            out[f"{key}.self_s"] = self_s[key] / rounds
            out[f"{key}.alloc_peak_mb"] = self.alloc_peak.get(key, 0.0)
        out["dynamics.propagate_reduced.steps"] = steps / rounds
        for command in CLI_COMMANDS:
            key = f"cli.{command}"
            out[f"{key}.s"] = incl[key] / rounds
            out[f"{key}.exit_code"] = exit_codes[key]
        out["trace.top_level_share"] = top / traced_s if traced_s > 0 else 0.0
        return out
