"""Self-test of the benchmark: tiny smoke ops, damaged outputs, absent layers.

    python3 perfbench/selftest.py

Runs in a few seconds.  Every damaged output must make its op count as
failed, and a boundary function that no longer exists must show up as
absent rather than as an error.
"""
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "selftest"


def setUpModule():
    SCRATCH.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _tiny_op(name, index=0, seed=7):
    workload = workloads.WORKLOADS[name](tiny=True)
    workdir = SCRATCH / name
    workdir.mkdir(parents=True, exist_ok=True)
    return workload, workload.make_op(seed, index, workdir)


def _edit_json(path, edit):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


class SmokeTest(unittest.TestCase):
    def test_tiny_ops_pass_on_every_workload(self):
        for name in workloads.WORKLOADS:
            for index in (0, 1):
                with self.subTest(workload=name, index=index):
                    workload, op = _tiny_op(name, index)
                    result = workloads.run_op(workload, op)
                    self.assertEqual(result.errors, [])
                    self.assertGreater(result.wall_s, 0.0)

    def test_traced_tiny_ops_report_every_layer_metric(self):
        tracer = tracing.Tracer()
        for name in workloads.WORKLOADS:
            workload, op = _tiny_op(name)
            self.assertEqual(workloads.run_op(workload, op, tracer).errors, [])
        metrics = tracer.layer_metrics()
        self.assertEqual(set(metrics), {m[0] for m in tracing.LAYER_METRICS})
        for name, (value, unit) in metrics.items():
            with self.subTest(metric=name):
                self.assertIsNotNone(value)
                self.assertGreater(value, 0.0)
        self.assertEqual(len(tracer.op_durations()), len(workloads.WORKLOADS))

    def test_seed_fixes_the_inputs(self):
        _, a = _tiny_op("pseudo-scan", index=3, seed=11)
        _, b = _tiny_op("pseudo-scan", index=3, seed=11)
        _, c = _tiny_op("pseudo-scan", index=3, seed=12)
        self.assertEqual(a.params, b.params)
        self.assertNotEqual(a.params, c.params)


class DamagedOutputTest(unittest.TestCase):
    def assertFails(self, name, corrupt, fragment):
        workload, op = _tiny_op(name)
        result = workloads.run_op(workload, op, corrupt=corrupt)
        self.assertTrue(any(fragment in e for e in result.errors), result.errors)

    def test_one_altered_csv_row(self):
        def corrupt(op):
            path = op.out_dir / "trajectory_lab.csv"
            rows = path.read_text(encoding="utf-8").splitlines()
            cells = rows[100].split(",")
            cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
            rows[100] = ",".join(cells)
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        self.assertFails("evolve-detuned", corrupt, "lab frame deviates")

    def test_one_dropped_csv_row(self):
        def corrupt(op):
            path = op.out_dir / "trajectory_gauged.csv"
            rows = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
        self.assertFails("evolve-detuned", corrupt, "rows, expected")

    def test_one_wrong_energy(self):
        def corrupt(op):
            def edit(doc):
                doc["energies"][3] += 1e-6
            _edit_json(op.out_dir / "pseudo.json", edit)
        self.assertFails("pseudo-scan", corrupt, "closed-form 2x2 blocks")

    def test_one_non_finite_sweep_error(self):
        def corrupt(op):
            def edit(doc):
                doc["sweep"][1]["max_rel_err"] = math.nan
            _edit_json(op.out_dir / "report.json", edit)
        self.assertFails("compare-sweep", corrupt, "max_rel_err nan")

    def test_non_zero_exit(self):
        workload, op = _tiny_op("pseudo-scan")
        config = Path(op.argv[op.argv.index("--config") + 1])
        _edit_json(config, lambda doc: doc.update(alpha=5.0))
        result = workloads.run_op(workload, op)
        self.assertTrue(result.errors and result.errors[0].startswith("exit code 2"),
                        result.errors)


class AbsentLayerTest(unittest.TestCase):
    def test_missing_boundaries_are_absent_not_errors(self):
        boundaries = (("cli", "ptjc.cli", "main"),
                      ("linalg", "ptjc.no_such_module", "expm_pade"),
                      ("kernels", "ptjc.dynamics", "no_such_function"))
        tracer = tracing.Tracer(boundaries)
        self.assertEqual(tracer.absent, {"no_such_module.expm_pade",
                                         "dynamics.no_such_function"})
        workload, op = _tiny_op("pseudo-scan")
        self.assertEqual(workloads.run_op(workload, op, tracer).errors, [])
        metrics = tracer.layer_metrics()
        self.assertIsNone(metrics["linalg.expm_s"][0])
        self.assertIsNone(metrics["kernels.steps"][0])
        self.assertGreater(metrics["cli.self_s"][0], 0.0)


class BareDirectoryTest(unittest.TestCase):
    def test_run_without_sources_fails_without_a_result(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"), dirs_exist_ok=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "pseudo-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
