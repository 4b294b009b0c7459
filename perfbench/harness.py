"""Closed-loop runner: one caller, one operation at a time, rounds of work.

A workload hands out the operations of one round.  The runner times each
operation, records its outcome (exit code, exception, output check) and
keeps going when one fails.  Output checks run outside the timed
section.  With a tracer, rounds cycle through TRACED_CYCLE, so one
process measures the untraced time, the time with spans, and, in probe
rounds whose time is not reported, allocation peaks and input hashes.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import statistics
import time
from dataclasses import dataclass
from typing import Callable

#: Kinds of round with a tracer, in order: untraced, spans, probe.
TRACED_CYCLE = ("plain", "spans", "probe")
#: At least this many rounds run, so a traced run has one of each kind.
MIN_ROUNDS = len(TRACED_CYCLE)
#: No round starts once the next would end after this many seconds, so
#: that a run ends within three minutes however long its rounds are.
ROUND_LIMIT_S = 150.0


@dataclass
class Op:
    """One operation: ``run`` does the work, ``check`` judges its result.

    ``check`` returns None when the output is correct, else the reason.
    ``command`` names the CLI command when ``run`` calls ``cli.main``;
    ``run`` then returns its exit code.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    command: str | None = None


class CliErrors:
    """Keeps the exception a CLI command raised before ``cli.main`` maps
    it to an exit code, so the outcome record can name its class."""

    def __init__(self, cli_module):
        self.last: BaseException | None = None
        for name, fn in list(vars(cli_module).items()):
            if name.startswith("cmd_") and callable(fn):
                setattr(cli_module, name, self._wrap(fn))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def caught(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.last = exc
                raise
        return caught


def execute(op: Op, op_id: int, round_no: int, tracer=None,
            cli_errors: CliErrors | None = None) -> dict:
    """Run one operation and return its outcome record."""
    if cli_errors is not None:
        cli_errors.last = None
    span = None
    captured = io.StringIO()
    error = None
    result = None
    if tracer is not None:
        tracer.op = op_id
        tracer.active = True
        if op.command and tracer.mode == "spans":
            span = tracer.open(f"cli.{op.command}")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            result = op.run()
    except Exception as exc:  # a failing operation is recorded, not fatal
        error = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        if span is not None:
            tracer.close(span)
            # an exception escaping cli.main would exit the process with 1
            span.info = {"exit_code": result if isinstance(result, int) else 1}
            if error is not None:
                span.error = type(error).__name__
        tracer.active = False

    exit_code = result if op.command and error is None else None
    if op.command and exit_code != 0 and error is None:
        error = cli_errors.last if cli_errors is not None else None
        if error is None:
            error = RuntimeError(captured.getvalue().strip()[-300:])
    if error is None:
        try:
            verdict = op.check(result)
        except Exception as exc:  # output too malformed to check
            verdict = f"check raised {type(exc).__name__}: {exc}"
        check = "pass" if verdict is None else f"fail: {verdict}"
    else:
        check = "not run"
    return {
        "op": op_id,
        "round": round_no,
        "kind": "plain" if tracer is None else tracer.mode,
        "name": op.name,
        "s": elapsed,
        "exit_code": exit_code,
        "error": None if error is None else
        f"{type(error).__name__}: {error}",
        "check": check,
    }


def failed(outcome: dict) -> bool:
    return outcome["error"] is not None or outcome["check"] != "pass"


def run_rounds(round_ops: Callable[[], list[Op]], seconds: float,
               tracer=None, cli_errors: CliErrors | None = None,
               reference: Callable[[], float] | None = None,
               between: Callable[[], None] | None = None
               ) -> tuple[list[dict], list[tuple]]:
    """Run rounds until the next one would end after ``seconds``.

    Returns the outcome records and one ``(seconds, kind, reference_s)``
    triple per round, where a round's time is the sum of its operations'
    times.  ``reference``, if given, runs after every operation of an
    untraced round, outside its time, and returns its own time;
    ``reference_s`` is their sum, or 0.  ``between``, if given, runs
    after every round, outside its time.  At least MIN_ROUNDS rounds run
    unless ROUND_LIMIT_S seconds have passed.
    """
    outcomes: list[dict] = []
    rounds: list[tuple] = []
    start = time.perf_counter()
    while True:
        kind = "plain" if tracer is None else \
            TRACED_CYCLE[len(rounds) % len(TRACED_CYCLE)]
        active = tracer if kind != "plain" else None
        if active is not None:
            tracer.round = len(rounds)
            tracer.mode = kind
            tracer.install()
        total = reference_s = 0.0
        try:
            for op in round_ops():
                outcome = execute(op, len(outcomes), len(rounds), active,
                                  cli_errors)
                outcomes.append(outcome)
                total += outcome["s"]
                if reference is not None and active is None:
                    reference_s += reference()
        finally:
            if active is not None:
                tracer.uninstall()
        rounds.append((total, kind, reference_s))
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if elapsed + total > ROUND_LIMIT_S:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + total > seconds:
            break
    return outcomes, rounds


def end_to_end(rounds: list[tuple], outcomes: list[dict],
               setups: list[float], slice_s: float) -> dict:
    """The end-to-end times, each scaled by the reference slices run
    between the operations of an untraced round.

    round_per_ref: the median over rounds of a round's time divided by
    the time of its slices.  setup_s: the median over rounds of the
    set-up run right after a round, ``setups[i]`` after round ``i``,
    divided by the round's mean slice, in seconds of a host on which a
    slice takes ``slice_s``.
    """
    ops = collections.Counter(o["round"] for o in outcomes)
    plain = [(i, t, ref) for i, (t, kind, ref) in enumerate(rounds)
             if kind == "plain" and ref > 0]
    return {
        "round_per_ref": statistics.median(t / ref for _, t, ref in plain),
        "setup_s": slice_s * statistics.median(
            setups[i] * ops[i] / ref for i, _, ref in plain),
    }


def throughput(outcomes: list[dict], rounds: list[tuple]) -> dict:
    """Median untraced round and successful operations per second over
    all untraced rounds; kept in the run record, as both move with the
    load of the host."""
    plain = [t for t, kind, _ in rounds if kind == "plain"]
    ok = sum(not failed(o) for o in outcomes if o["kind"] == "plain")
    return {"round_median_s": statistics.median(plain),
            "ops_per_s": ok / sum(plain)}


def latency(outcomes: list[dict]) -> dict:
    """Median and 95th percentile of untraced operation times, and the
    number of samples; meaningful only with many like operations."""
    times = [o["s"] for o in outcomes if o["kind"] == "plain"]
    cuts = statistics.quantiles(times, n=20, method="inclusive") \
        if len(times) > 1 else times * 19
    return {"op_p50_s": statistics.median(times), "op_p95_s": cuts[18],
            "samples": len(times)}
