"""Self-tests for the benchmark's generator and output checks.

    python3 -m unittest discover -s bench -p 'test_*.py'

The checks must reject a perturbed value, a dropped row, a nonzero exit
and a traceback, and must accept the provenance lines a report may add.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import unittest
from pathlib import Path

import checks
import run
import workloads


def _work_dir(name: str) -> Path:
    path = run.WORK_ROOT / f"test-{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class GeneratorTests(unittest.TestCase):
    def _files(self, seed: int) -> bytes:
        kernels = workloads.generate_kernels(random.Random(f"{seed}:test"), 800)
        return (workloads.kernels_csv(kernels) + workloads.kernels_json(kernels, "p")).encode()

    def test_same_seed_same_bytes(self):
        self.assertEqual(self._files(1), self._files(1))

    def test_seeds_differ(self):
        self.assertNotEqual(self._files(1), self._files(2))

    def test_plans_are_deterministic_per_seed(self):
        work = _work_dir("plan")
        try:
            first = workloads.build_cold_mix(5, work)
            data = (work / "small.csv").read_bytes() + (work / "small.json").read_bytes()
            second = workloads.build_cold_mix(5, work)
            self.assertEqual([i.args for i in first.invocations], [i.args for i in second.invocations])
            self.assertEqual(data, (work / "small.csv").read_bytes() + (work / "small.json").read_bytes())
            other = workloads.build_cold_mix(6, work)
            self.assertNotEqual([i.args for i in first.invocations], [i.args for i in other.invocations])
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_bundled_kernels_and_estimated_share(self):
        kernels = workloads.generate_kernels(random.Random("share"), 800)
        names = {k.name for k in kernels}
        self.assertEqual(len(names), 800)
        self.assertTrue({row[0] for row in checks.BUNDLED_KERNELS} <= names)
        self.assertEqual(sum(k.estimated for k in kernels), 600)


class CheckTests(unittest.TestCase):
    """Checks run against real outputs of one cold_mix pass on the current code."""

    @classmethod
    def setUpClass(cls):
        cls.work = _work_dir("checks")
        cls.plan = workloads.build_cold_mix(7, cls.work)
        cls.runner = run.Runner(cls.plan, cls.work)
        cls.runner.run_pass("run")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def _output(self, label: str) -> tuple[workloads.Invocation, str]:
        for i, inv in enumerate(self.plan.invocations):
            if inv.label == label:
                path = inv.output or self.work / f"{i:02d}.stdout"
                return inv, path.read_text(encoding="utf-8")
        raise KeyError(label)

    def _check(self, inv: workloads.Invocation, text: str) -> list[str]:
        path = self.work / "altered.out"
        path.write_text(text, encoding="utf-8")
        return inv.check(path)

    def test_current_code_passes(self):
        self.assertEqual(self.runner.failures, [])
        self.assertEqual(self.runner.attempted, len(self.plan.invocations))

    def test_perturbed_cdc_fails(self):
        inv, text = self._output("sweep-csv")
        lines = text.splitlines(keepends=True)
        series, parameter, value = lines[3].rstrip("\n").rsplit(",", 2)
        lines[3] = f"{series},{parameter},{float(value) * (1 + 1e-6)!r}\n"
        self.assertTrue(self._check(inv, "".join(lines)))

        inv, text = self._output("cdc-json")
        doc = json.loads(text)
        doc["records"][0]["cdc"] *= 1 + 1e-6
        self.assertTrue(self._check(inv, json.dumps(doc)))

        inv, text = self._output("sweep-table")
        lines = text.splitlines(keepends=True)
        start, end = list(re.finditer(r"\S+", lines[2]))[2].span()  # the cdc cell, kept in place
        value = float(lines[2][start:end])
        shifted = f"{value + 0.01:.2f}" if value < 9.99 else f"{value - 0.01:.2f}"
        lines[2] = lines[2][:start] + shifted.rjust(end - start) + lines[2][end:]
        self.assertTrue(self._check(inv, "".join(lines)))

    def test_dropped_row_fails(self):
        for label in ("sweep-csv", "sweep-table", "savings-csv"):
            inv, text = self._output(label)
            lines = text.splitlines(keepends=True)
            self.assertTrue(self._check(inv, "".join(lines[:-1])), label)

    def test_empty_output_fails(self):
        inv, _ = self._output("cdc-table")
        self.assertTrue(self._check(inv, ""))

    def test_provenance_is_ignored(self):
        inv, text = self._output("savings-csv")
        self.assertEqual(self._check(inv, "# mode: arithmetic\n" + text), [])
        inv, text = self._output("hybrid-table")
        self.assertEqual(self._check(inv, "note: mode: arithmetic\n" + text + "note: sha256 x\n"), [])
        inv, text = self._output("hybrid-json")
        doc = json.loads(text)
        doc["meta"] = {"mode": "arithmetic"}
        self.assertEqual(self._check(inv, json.dumps(doc)), [])

    def test_nonzero_exit_fails(self):
        plan = workloads.Plan("t", {}, [
            workloads.Invocation("cdc-pole", ["cdc", "--alpha", "0", "--area", "0.3", "--energy", "0.3"]),
        ])
        runner = run.Runner(plan, self.work)
        runner.run_pass("run")
        self.assertEqual(len(runner.failures), 1)
        self.assertIn("exit code 2", runner.failures[0])

    def test_traceback_fails(self):
        stderr = 'Traceback (most recent call last):\n  File "cli.py", line 1\nOverflowError: x\n'
        self.assertTrue(checks.run_ok(0, stderr))
        self.assertTrue(checks.run_ok(1, stderr))
        self.assertEqual(checks.run_ok(0, ""), [])


if __name__ == "__main__":
    unittest.main()
