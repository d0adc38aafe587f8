"""Running one operation: timing, speed probe, output capture, digests and
checks."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from workloads import CliOp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

# Probe time at the nominal speed the reported times are scaled to. It is
# the probe's time on a quiet 2-vCPU x86-64 Linux host under Python 3.11.
PROBE_NOMINAL_S = 0.0025


def require_sources() -> None:
    """Refuse to run without the program: a checkout missing ``src/crkit``
    or ``corpus/`` cannot be measured."""
    missing = [p for p in (os.path.join(SRC, "crkit", "__init__.py"), os.path.join(ROOT, "corpus"))
               if not os.path.exists(p)]
    if missing:
        raise SystemExit(f"bench: missing {', '.join(os.path.relpath(p, ROOT) for p in missing)}")


def import_crkit():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import crkit
    import crkit.cli  # noqa: F401  (not imported by the package itself)

    return crkit


_PROBE_INPUT = {(i, j): (Fraction(i + 1, j + 2), Fraction(j - i, i + 3))
                for i in range(6) for j in range(6 - i)}


def _probe_once() -> float:
    out: dict = {}
    start = time.perf_counter()
    for e1, (r1, i1) in _PROBE_INPUT.items():
        for e2, (r2, i2) in _PROBE_INPUT.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            if e[0] + e[1] <= 6:
                r, i = out.get(e, (0, 0))
                out[e] = (r + r1 * r2 - i1 * i2, i + r1 * i2 + i1 * r2)
    return time.perf_counter() - start


def speed_probe() -> float:
    """Seconds for a fixed truncated product of Fraction-pair polynomials,
    the kind of work crkit's kernel does, best of two.

    A shared 2-vCPU host was seen to change speed by up to 2x over seconds;
    CPU time followed wall time, so the slowdown is inside the core. Timings are scaled by PROBE_NOMINAL_S over the probe
    time around each operation, which cancels that drift. The probe runs
    no crkit code, so the program under test cannot move it, and the
    collector is off while it runs so the program's heap cannot either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_probe_once(), _probe_once())
    finally:
        if enabled:
            gc.enable()


@dataclass
class Outcome:
    """What one execution of an operation produced."""

    op_id: str
    command: str
    seconds: float  # as measured
    digest: str
    failed: str | None = None  # why the operation counts as failed
    wrong: str | None = None  # why the output is incorrect
    scaled: float = 0.0  # seconds at the nominal probe speed


def digest_parts(parts: list[tuple[str, bytes]]) -> str:
    """sha256 over named byte strings, each length-prefixed."""
    h = hashlib.sha256()
    for name, data in parts:
        h.update(f"{name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def _collect(paths) -> list[tuple[str, bytes]]:
    """Read and remove what an operation wrote, so the next run of the same
    operation writes into a clean place."""
    parts = []
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                with open(os.path.join(path, name), "rb") as handle:
                    parts.append((f"{path}/{name}", handle.read()))
            shutil.rmtree(path)
        elif os.path.exists(path):
            with open(path, "rb") as handle:
                parts.append((path, handle.read()))
            os.remove(path)
        else:
            parts.append((path, b"<absent>"))
    return parts


@dataclass
class CliRun:
    seconds: float
    code: object
    stdout: str
    stderr: str
    files: list[tuple[str, bytes]]


def execute_cli(op: CliOp, crkit) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    main = crkit.cli.main  # looked up per call, so installed wrappers apply
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception as exc:  # the operation raised: a failure, not a crash of the run
        code = type(exc).__name__
    seconds = time.perf_counter() - start
    return CliRun(seconds, code, out.getvalue(), err.getvalue(), _collect(op.outputs))


def judge_cli(op: CliOp, run: CliRun) -> Outcome:
    """Digest the run and hold it against the operation's known verdict."""
    parts = [("exit", str(run.code).encode()), ("stdout", run.stdout.encode()),
             ("stderr", run.stderr.encode())]
    outcome = Outcome(op.id, op.command, run.seconds, digest_parts(parts + run.files))
    reason = f"exit {run.code}: {run.stderr.strip().splitlines()[0] if run.stderr.strip() else ''}"
    if not isinstance(run.code, int) or run.code == 2:
        outcome.failed = reason
    elif op.expect_exit is None and run.code != 0:
        # no known verdict: a nonzero exit refuses the input or leaves it unanswered
        outcome.failed = reason
    if op.expect_exit is not None and run.code != op.expect_exit:
        outcome.wrong = f"exit {run.code}, the known verdict is exit {op.expect_exit}"
    lines = set(run.stdout.splitlines())
    for line in op.expect_lines:
        if line not in lines:
            outcome.wrong = f"stdout lacks the known verdict line {line!r}"
    if op.expect_same_as is not None:
        with open(op.expect_same_as, "rb") as handle:
            if [data for _, data in run.files] != [handle.read()]:
                outcome.wrong = f"output differs from {op.expect_same_as}"
    if outcome.wrong and not outcome.failed:
        outcome.failed = outcome.wrong
    return outcome


def result_digest(value) -> str:
    """Digest of a solver result from its exact terms."""
    components = value.components if hasattr(value, "components") else (value,)
    parts = []
    for index, series in enumerate(components):
        terms = sorted((e, c.re, c.im) for e, c in series.terms.items())
        parts.append((f"c{index} {series.nvars} {series.order}", repr(terms).encode()))
    return digest_parts(parts)


def run_solver(op, crkit) -> tuple[Outcome, object]:
    solver = getattr(crkit, op.command)  # looked up per call, so installed wrappers apply
    start = time.perf_counter()
    try:
        value = solver(*op.args)
    except Exception as exc:  # a solver refusing or crashing counts as failed
        seconds = time.perf_counter() - start
        name = type(exc).__name__
        return Outcome(op.id, op.command, seconds, name, failed=f"{name}: {exc}"), None
    seconds = time.perf_counter() - start
    return Outcome(op.id, op.command, seconds, result_digest(value)), value


class Checker:
    """Compares outcomes with the stored reference and with each other.

    CLI digests must equal the seed-commit reference (``reference`` None
    records instead of comparing). Solver results are verified
    independently the first time an operation runs; later runs of it,
    traced or not, must reproduce the first digest.
    """

    def __init__(self, workload: str, reference: dict | None):
        self.reference = None if reference is None else reference["outputs"].get(workload, {})
        self.first: dict[str, str] = {}

    def check(self, op, outcome: Outcome, value=None) -> None:
        if isinstance(op, CliOp) and self.reference is not None:
            expected = self.reference.get(op.id)
            if expected is None:
                outcome.wrong = outcome.wrong or "no reference digest for this operation"
            elif outcome.digest != expected:
                outcome.wrong = outcome.wrong or "output digest differs from the reference"
        if op.id not in self.first:
            self.first[op.id] = outcome.digest
            message = op.check(value) if value is not None else None
            if message:
                outcome.wrong = message
        elif self.first[op.id] != outcome.digest:
            outcome.wrong = outcome.wrong or "output differs from the first run of this operation"
        if outcome.wrong and not outcome.failed:
            outcome.failed = outcome.wrong


def run_pass(ops, crkit, checker: Checker) -> list[Outcome]:
    """Run every operation once, with a speed probe between operations.

    Each operation starts from a collected heap, so the collector's work
    left over from one operation is not charged to whichever comes next
    (the seed changes the order).
    """
    outcomes = []
    before = speed_probe()
    for op in ops:
        gc.collect()
        if isinstance(op, CliOp):
            outcome = judge_cli(op, execute_cli(op, crkit))
            value = None
        else:
            outcome, value = run_solver(op, crkit)
        after = speed_probe()
        outcome.scaled = outcome.seconds * PROBE_NOMINAL_S * 2 / (before + after)
        before = after
        checker.check(op, outcome, value)
        outcomes.append(outcome)
    return outcomes


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def input_digests(workdir: str) -> dict[str, str]:
    indir = os.path.join(workdir, "in")
    out = {}
    for name in sorted(os.listdir(indir)):
        with open(os.path.join(indir, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


@contextlib.contextmanager
def workdir_for(tag: str):
    """A fresh directory under ``.bench_work`` in the checkout, entered for
    the duration and removed afterwards."""
    path = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)
