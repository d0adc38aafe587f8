"""Tests of the benchmark itself, standard library only:

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import solver_cases  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import GATED  # noqa: E402

crkit = harness.import_crkit()


def describe(op):
    """Everything an operation feeds the program, in comparable form."""
    if isinstance(op, workloads.CliOp):
        return op.id, op.argv
    args = tuple(harness.result_digest(a) if hasattr(a, "terms") or hasattr(a, "components") else a
                 for a in op.args)
    return op.id, op.command, args


def generated(name: str, seed: int):
    with harness.workdir_for(f"test-{name}-{seed}") as workdir:
        ops = workloads.build(name, seed, workdir, crkit)
        return [describe(op) for op in ops], harness.input_digests(workdir)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                ops, files = generated(name, 7)
                self.assertEqual(generated(name, 7), (ops, files))
                other_ops, other_files = generated(name, 8)
                self.assertNotEqual(other_ops, ops)
                if name == "formal_solvers":
                    self.assertNotEqual({op[2] for op in other_ops}, {op[2] for op in ops})
                else:  # fixed documents, run in a seeded order
                    self.assertEqual(other_files, files)
                    self.assertEqual(sorted(other_ops), sorted(ops))

    def test_dense_family_is_real_and_accepted(self):
        for cls in workloads.DENSE_CLASSES:
            for index in range(cls.count):
                rho = workloads.dense_rho(cls, index, crkit)
                self.assertIsNone(crkit.reality_defect(rho, cls.n))
                self.assertEqual(crkit.from_defining(rho, cls.n).order, cls.order)


class OutputCheckTest(unittest.TestCase):
    def test_digest_catches_one_mutated_byte(self):
        reference = harness.load_reference()
        with harness.workdir_for("test-digest") as workdir:
            ops = {op.id: op for op in workloads.build("corpus_order8", 1, workdir, crkit)}
            op = ops["normalize/perturbed_sphere/doc"]
            run = harness.execute_cli(op, crkit)
            checker = harness.Checker("corpus_order8", reference)
            outcome = harness.judge_cli(op, run)
            checker.check(op, outcome)
            self.assertIsNone(outcome.wrong)
            (path, data), = run.files
            for position in (0, len(run.stdout) // 2, len(run.stdout) - 1):
                stdout = run.stdout[:position] + chr(ord(run.stdout[position]) ^ 1) + run.stdout[position + 1:]
                mutated = harness.CliRun(run.seconds, run.code, stdout, run.stderr, run.files)
                outcome = harness.judge_cli(op, mutated)
                harness.Checker("corpus_order8", reference).check(op, outcome)
                self.assertIn("digest", outcome.wrong)
            for position in (0, len(data) // 2, len(data) - 1):
                flipped = data[:position] + bytes([data[position] ^ 1]) + data[position + 1:]
                mutated = harness.CliRun(run.seconds, run.code, run.stdout, run.stderr, [(path, flipped)])
                outcome = harness.judge_cli(op, mutated)
                harness.Checker("corpus_order8", reference).check(op, outcome)
                self.assertIsNotNone(outcome.wrong)

    def test_independent_solver_checks_catch_a_wrong_result(self):
        with harness.workdir_for("test-solvers") as workdir:
            ops = workloads.build("formal_solvers", 3, workdir, crkit)
        seen = set()
        for op in ops:
            if op.command in seen and op.id != "newton_extend/sqrt":
                continue
            seen.add(op.command)
            result = getattr(crkit, op.command)(*op.args)
            self.assertIsNone(op.check(result), op.id)
            first = result.components[0] if hasattr(result, "components") else result
            bump = crkit.TruncatedSeries.monomial(first.nvars, first.order, (1,) + (0,) * (first.nvars - 1))
            if hasattr(result, "components"):
                wrong = crkit.SeriesMap((first + bump,) + result.components[1:])
            else:
                wrong = first + bump
            self.assertIsNotNone(op.check(wrong), op.id)

    def test_sqrt_oracle(self):
        from fractions import Fraction

        self.assertEqual(solver_cases.sqrt_oracle(4),
                         [Fraction(1), Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16), Fraction(-5, 128)])
        self.assertEqual(solver_cases.sqrt_oracle(10)[10], Fraction(-2431, 262144))


def crkit_namespace() -> dict:
    """Every attribute of every crkit module and of every class they define."""
    out = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "crkit" or module_name.startswith("crkit.")):
            continue
        for attr, value in vars(module).items():
            out[(module_name, attr)] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for cls_attr, cls_value in vars(value).items():
                    out[(module_name, attr, cls_attr)] = cls_value
    return out


class TracerTest(unittest.TestCase):
    def test_install_and_remove_leave_crkit_as_it_was(self):
        before = crkit_namespace()
        tracer = tracing.Tracer(crkit)
        tracer.install()
        try:
            self.assertIsNot(sys.modules["crkit.hypersurface"].compose, before[("crkit.series", "compose")])
            self.assertIsNot(crkit.GaussRational.__mul__, before[("crkit.rational", "GaussRational", "__mul__")])
        finally:
            tracer.remove()
        after = crkit_namespace()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_traced_outputs_and_counts_repeat(self):
        reference = harness.load_reference()
        with harness.workdir_for("test-trace") as workdir:
            ops = workloads.build("corpus_order8", 1, workdir, crkit)
            checker = harness.Checker("corpus_order8", reference)
            plain = harness.run_pass(ops, crkit, checker)
            tracer = tracing.Tracer(crkit)
            counts = []
            for _ in range(2):
                tracer.reset()
                tracer.install()
                try:
                    traced = harness.run_pass(ops, crkit, checker)
                finally:
                    tracer.remove()
                metrics = tracer.metrics()
                counts.append({k: v for k, v in metrics.items() if tracing.PER_LAYER[k][0] != "s"})
                self.assertEqual([o.digest for o in traced], [o.digest for o in plain])
                self.assertFalse([o.wrong for o in traced if o.wrong])
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(set(metrics), set(tracing.PER_LAYER) - {"trace.overhead_ratio"})
        self.assertGreater(counts[0]["series.mul.calls"], 0)
        self.assertGreater(counts[0]["rank.minors_tried"], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            bench = json.load(handle)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"] for m in bench["end_to_end"]}, set(GATED))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         tracing.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
