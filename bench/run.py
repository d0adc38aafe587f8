"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload corpus_order8 --seed 1 --seconds 10 --trace 0

Run from any directory of a checkout; inputs are written under
``.bench_work/`` and removed afterwards. The load model is a closed loop:
one client, one operation at a time, one process, no threads. The run
repeats the workload's fixed operation list until ``--seconds`` have
passed (at least once), checks every output, prints each metric by name
with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced passes and reports the per-layer
ones. Times are scaled to a nominal machine speed with the speed probe in
harness.py; the raw wall time is printed next to the scaled one. Exit
status 1 means an output was wrong (digest or verdict mismatch) or the
checkout lacks the program; 2 means bad arguments.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import harness
import tracing
import workloads

SETUP_REPEATS = 21
CLI_COMMANDS = ("analyze", "normalize", "check-map", "reflect")
P90_MIN_SAMPLES = 100  # p90 only with at least ten samples beyond it
# End-to-end metrics gated by BENCHMARK.json. The others are printed only:
# op_ms_p90 and the per-command medians are absent on some workloads, and
# failed_share reads 0 on most (the result line carries it as attempted/failed).
GATED = ("wall_s", "op_ms_p50", "peak_rss_mb", "setup_s")


# Child process for setup_s: it probes its own speed with a loop that
# imports nothing, so the measured import still loads everything crkit
# needs, and scales its import time like every other time.
SETUP_CHILD = """
import time
def probe():
    start = time.perf_counter()
    table = {{}}
    for i in range(20000):
        key = i % 97
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start
before = min(probe(), probe())
start = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import crkit, crkit.cli
seconds = time.perf_counter() - start
after = min(probe(), probe())
print(seconds * {nominal!r} * 2 / (before + after))
"""
# The child probe's time at the speed where the harness probe takes
# PROBE_NOMINAL_S; the two were timed side by side.
CHILD_PROBE_NOMINAL_S = 0.0021


def measure_setup() -> float:
    """Median time for a fresh interpreter to import crkit and its CLI, the
    set-up every CLI invocation pays before its first operation. The child
    times its own imports, which leaves out process creation. One
    unmeasured run first writes the bytecode caches."""
    code = SETUP_CHILD.format(src=harness.SRC, nominal=CHILD_PROBE_NOMINAL_S)
    command = [sys.executable, "-c", code]
    subprocess.run(command, check=True, cwd=harness.ROOT, capture_output=True)
    times = [float(subprocess.run(command, check=True, cwd=harness.ROOT, capture_output=True,
                                  text=True).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def scaled_wall(outcomes) -> float:
    """Time to finish the operation list: the sum of the timed calls, which
    leaves out probing, output hashing and checking."""
    return sum(o.scaled for o in outcomes)


def check_inputs(workload: str, workdir: str, reference: dict) -> list[str]:
    expected = reference["inputs"].get(workload)
    if expected is None:
        return []
    got = harness.input_digests(workdir)
    return [f"generated input {name} differs from the reference"
            for name in sorted(set(expected) | set(got)) if expected.get(name) != got.get(name)]


def end_to_end(passes, setup_s) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample note)."""
    outcomes = [o for p in passes for o in p]
    ms = [o.scaled * 1000 for o in outcomes]
    failed = sum(1 for o in outcomes if o.failed)
    # each operation's median over the passes, so that the figure does not
    # hinge on one sample where operations of different cost meet
    per_op = [statistics.median(p[i].scaled * 1000 for p in passes) for i in range(len(passes[0]))]
    out = {
        "wall_s": (statistics.median(scaled_wall(p) for p in passes), "s",
                   f"median of {len(passes)} passes; "
                   f"raw {statistics.median(sum(o.seconds for o in p) for p in passes):.4g} s"),
        "op_ms_p50": (statistics.median(per_op), "ms",
                      f"median over {len(per_op)} operations of each one's median over {len(passes)} passes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "whole run"),
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh interpreters"),
        "failed_share": (failed / len(outcomes), "ratio", f"{failed} of {len(outcomes)}"),
    }
    if len(ms) >= P90_MIN_SAMPLES:
        out["op_ms_p90"] = (statistics.quantiles(ms, n=10)[8], "ms", f"{len(ms)} samples")
    for command in CLI_COMMANDS:
        samples = [o.scaled * 1000 for o in outcomes if o.command == command]
        if samples:
            key = command.replace("-", "_") + "_ms_p50"
            out[key] = (statistics.median(samples), "ms", f"{len(samples)} samples")
    return out


def per_layer(plain, traced, layer_passes) -> dict[str, tuple[float, str]]:
    out = {}
    for name, (unit, _) in tracing.PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = (statistics.median(scaled_wall(p) for p in traced)
                     / statistics.median(scaled_wall(p) for p in plain))
        elif unit == "s":
            # span times scaled by their pass's own probe factor
            value = statistics.median(
                metrics[name] * scaled_wall(p) / sum(o.seconds for o in p)
                for metrics, p in zip(layer_passes, traced))
        else:  # counts and ratios repeat exactly; take the first traced pass
            value = layer_passes[0][name]
        out[name] = (value, unit)
    return out


def run(args) -> int:
    harness.require_sources()
    reference = harness.load_reference()
    setup_s = None if args.trace else measure_setup()
    crkit = harness.import_crkit()
    problems: list[str] = []
    with harness.workdir_for(f"{args.workload}-{args.seed}") as workdir:
        ops = workloads.build(args.workload, args.seed, workdir, crkit)
        problems += check_inputs(args.workload, workdir, reference)
        checker = harness.Checker(args.workload, reference)
        plain, traced, layer_passes = [], [], []
        start = time.perf_counter()
        if args.trace:
            tracer = tracing.Tracer(crkit)
            while not traced or time.perf_counter() - start < args.seconds:
                plain.append(harness.run_pass(ops, crkit, checker))
                tracer.reset()
                tracer.install()
                try:
                    traced.append(harness.run_pass(ops, crkit, checker))
                finally:
                    tracer.remove()
                layer_passes.append(tracer.metrics())
        else:
            while not plain or time.perf_counter() - start < args.seconds:
                plain.append(harness.run_pass(ops, crkit, checker))

    outcomes = [o for p in plain + traced for o in p]
    problems += [f"{o.op_id}: {o.wrong}" for o in outcomes if o.wrong]
    failed = [o for o in outcomes if o.failed]
    print(f"workload {args.workload} seed {args.seed}: {len(plain) + len(traced)} passes of "
          f"{len(ops)} operations, {len(failed)} of {len(outcomes)} failed")
    print(f"  why: {workloads.WHY[args.workload]}")
    if args.trace:
        report = per_layer(plain, traced, layer_passes)
        for name, (value, unit) in report.items():
            print(f"  {name:42s} {value:.6g} {unit}")
        print(f"  (per pass; {len(traced)} traced and {len(plain)} untraced passes)")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()}
    else:
        report = end_to_end(plain, setup_s)
        for name, (value, unit, note) in report.items():
            print(f"  {name:16s} {value:.6g} {unit} ({note})")
        metrics = {name: {"value": report[name][0], "unit": report[name][1]} for name in GATED}
    for op_id, reason in dict((o.op_id, o.failed) for o in failed if not o.wrong).items():
        print(f"  failed: {op_id}: {reason}")
    for problem in dict.fromkeys(problems):
        print(f"  WRONG: {problem}")
    print(json.dumps({"correct": not problems, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
