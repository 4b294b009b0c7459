"""Checks of the benchmark's own arithmetic on tiny synthetic inputs:
span self times with nested and overlapping children, the share of time
the outermost layer spans cover, allocation peaks of nested calls, the
failure accounting of the runner and its round-to-reference ratio."""

from __future__ import annotations

import types

import numpy as np

from harness import CliErrors, Op, end_to_end, execute, failed, run_rounds
from tracing import Span, Tracer, self_times

MB = 1024 * 1024


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def check_spans() -> list[str]:
    problems = []
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    c = tracer.open("c")
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    got = self_times(tracer.spans)
    if not all(map(_close, got, [4.0, 2.0, 3.0, 1.0])):
        problems.append(f"nested self times {got} != [4, 2, 3, 1]")
    if [s.parent for s in tracer.spans] != [None, 0, 0, 2]:
        problems.append("span parents are wrong")

    spans = [Span("p", 0.0, None, 0)]
    for lo, hi in ((2.0, 5.0), (4.0, 7.0), (9.0, 12.0)):
        spans.append(Span("c", lo, 0, 0))
        spans[-1].end = hi
    spans[0].end = 10.0
    got = self_times(spans)[0]
    if not _close(got, 4.0):
        problems.append(f"self time with overlapping children {got} != 4")

    tracer = Tracer()
    for name, lo, hi, parent in (("cli.x", 0.0, 10.0, None),
                                 ("decomposition.decompose", 2.0, 6.0, 0),
                                 ("subspaces.orbit", 3.0, 5.0, 1),
                                 ("systems.load_system", 7.0, 8.0, None)):
        tracer.spans.append(Span(name, lo, parent, 0))
        tracer.spans[-1].end = hi
    got = tracer.metrics(1, 20.0)["trace.top_level_share"]
    if not _close(got, 0.25):
        problems.append(f"outermost layer spans cover {got} != 0.25")
    return problems


def check_alloc_peaks() -> list[str]:
    tracer = Tracer()

    def inner():
        return float(np.ones(8 * MB // 8).sum())

    def outer():
        keep = np.ones(2 * MB // 8)
        return traced_inner() + keep[0]

    traced_inner = tracer.wrap("dynamics.inner", inner)
    traced_outer = tracer.wrap("dynamics.outer", outer)
    tracer.mode = "probe"
    tracer.active = True
    traced_outer()
    tracer.active = False
    peaks = tracer.alloc_peak
    if tracer.spans:
        return ["a probe round recorded spans"]
    if not 7.9 <= peaks["dynamics.inner"] < 9.0 or \
            not 9.9 <= peaks["dynamics.outer"] < 11.0:
        return [f"allocation peaks {peaks} not about inner 8 MB, outer 10 MB"]
    return []


def check_failure_accounting() -> list[str]:
    problems = []
    fake = types.ModuleType("fake_cli")

    def cmd_bad(_args):
        raise KeyError("missing")

    def main(argv):
        try:
            return fake.cmd_bad(argv)
        except KeyError:
            return 2

    fake.cmd_bad = cmd_bad
    errors = CliErrors(fake)

    def boom():
        raise ValueError("boom")

    ops = [
        Op("ok", lambda: 1, lambda r: None),
        Op("raises", boom, lambda r: None),
        Op("wrong", lambda: 1, lambda r: "wrong output"),
        Op("cli", lambda: main([]), lambda r: None, command="bad"),
    ]
    between = []
    outcomes, rounds = run_rounds(lambda: ops, 0.0, cli_errors=errors,
                                  reference=lambda: 0.5,
                                  between=lambda: between.append(1))
    if len(rounds) != 3 or len(outcomes) != 12 or len(between) != 3:
        problems.append(f"{len(rounds)} rounds, {len(outcomes)} outcomes, "
                        f"{len(between)} calls between rounds")
    if [ref for _, _, ref in rounds] != [2.0] * 3:
        problems.append(f"reference times per round {rounds}")
    if [failed(o) for o in outcomes[:4]] != [False, True, True, True]:
        problems.append("failed operations miscounted")
    if not outcomes[1]["error"].startswith("ValueError: boom"):
        problems.append(f"raised error recorded as {outcomes[1]['error']}")
    if outcomes[2]["check"] != "fail: wrong output":
        problems.append(f"check verdict recorded as {outcomes[2]['check']}")
    cli = outcomes[3]
    if cli["exit_code"] != 2 or not cli["error"].startswith("KeyError"):
        problems.append(f"CLI outcome recorded as {cli}")

    tracer = Tracer()
    outcome = execute(ops[3], 0, 0, tracer, errors)
    span = tracer.spans[0]
    if span.name != "cli.bad" or span.info != {"exit_code": 2} or \
            not failed(outcome):
        problems.append("CLI span or outcome under tracing is wrong")
    return problems


def check_reference_ratio() -> list[str]:
    rounds = [(2.0, "plain", 1.0), (9.0, "plain", 3.0), (8.0, "plain", 2.0),
              (1.0, "spans", 0.0)]
    outcomes = [{"round": r} for r in (0, 0, 1, 1, 1, 2, 3)]
    # mean slices 0.5, 1, 2; set-ups after them 1, 4, 2 and 9
    got = end_to_end(rounds, outcomes, [1.0, 4.0, 2.0, 9.0], 0.1)
    if not _close(got["round_per_ref"], 3.0):
        return [f"median round-to-reference ratio {got} != 3"]
    if not _close(got["setup_s"], 0.2):
        return [f"set-up in seconds of the reference host {got} != 0.2"]
    return []


def run() -> list[str]:
    return check_spans() + check_alloc_peaks() + \
        check_failure_accounting() + check_reference_ratio()
