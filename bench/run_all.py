"""Run every workload untraced once and traced twice, in fresh processes.

    python3 bench/run_all.py [--seed 1] [--seconds 10] [--out results.json]

Prints every metric by name with its unit and sample count, and records
the git sha, Python version, CPU count and load average at the start and
the end. Exits 1 if any output is wrong (digest or verdict mismatch), if a
run fails, or if a count metric differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import harness
import tracing
import workloads

RUN = os.path.join(harness.HERE, "run.py")


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def default_seconds() -> int:
    try:
        with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            return json.load(handle)["run_seconds"]
    except (OSError, KeyError, ValueError):
        return 10


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--out", help="write every result and the environment record here as JSON")
    args = parser.parse_args(argv)

    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_start": loadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": {},
    }
    print(f"git {record['git_sha']}; python {record['python']}; nproc {record['nproc']}; "
          f"loadavg {record['loadavg_start']}")
    problems = []
    for workload in workloads.WORKLOADS:
        runs = {}
        for label, trace in (("untraced", 0), ("traced_1", 1), ("traced_2", 1)):
            code, result = run_one(workload, args.seed, args.seconds, trace)
            runs[label] = {"exit": code, "result": result}
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{workload} {label}: exit {code}, result {'missing' if result is None else 'wrong'}")
        first, second = (runs[k]["result"] for k in ("traced_1", "traced_2"))
        if first and second:
            for name, (unit, _) in tracing.PER_LAYER.items():
                if unit == "s" or name == "trace.overhead_ratio":
                    continue
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload}: count {name} differs between traced runs: {a} vs {b}")
        record["runs"][workload] = runs
    record["loadavg_end"] = loadavg()
    print(f"loadavg at the end {record['loadavg_end']}")
    record["problems"] = problems
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("all outputs correct; traced counts repeat exactly" if not problems else
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
