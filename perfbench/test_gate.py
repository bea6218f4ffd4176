"""Tests of the benchmark's correctness gate.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run on the committed seed-0 references alone; nothing is built.
"""

import importlib.util
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def reference(workload):
    return run.read_rows(run.REFS / f"{workload}-window0.tsv.gz")


def perturb(row, col, delta):
    f = row.split("\t")
    f[col] = str(int(f[col]) + delta)
    return "\t".join(f)


class ExactGate(unittest.TestCase):
    def test_every_window_has_a_reference_that_passes_its_own_gate(self):
        for w in run.WORKLOADS:
            for window in range(8):
                ref = run.reference_rows(w, window)
                self.assertTrue(ref, (w, window))
                self.assertEqual(run.check_rows(w, ref, ref, window), 0, (w, window))

    def test_perturbed_design_point_fails(self):
        ref = reference("paper-sweep")
        rows = list(ref)
        rows[17] = perturb(rows[17], run.L2_HITS, 1)
        self.assertEqual(run.check_rows("paper-sweep", rows, ref), 1)

    def test_failed_or_missing_points_fail(self):
        ref = reference("paper-sweep")
        rows = list(ref)
        rows[3] = "FAILED"
        self.assertEqual(run.check_rows("paper-sweep", rows, ref), 1)
        self.assertEqual(run.check_rows("paper-sweep", rows[:-2], ref), 3)

    def test_changed_exhibit_text_fails(self):
        ref = reference("repro-quick")
        rows = list(ref)
        rows[5] = rows[5] + " "
        self.assertEqual(run.check_rows("repro-quick", rows, ref), 1)


class ApproximateGate(unittest.TestCase):
    def first(self, ref, pred):
        return next(i for i, r in enumerate(ref) if pred(r.split("\t")))

    def test_error_beyond_epsilon_fails(self):
        ref = reference("wide-predict")
        i = self.first(ref, lambda f: f[run.WAYS] == "4" and run.local_miss_ratio(f) < 0.5)
        rows = self.shifted_beyond(ref, i, run.PREDICT_EPSILON)
        self.assertEqual(run.check_rows("wide-predict", rows, ref), 1)

    def test_error_within_epsilon_passes(self):
        ref = reference("wide-predict")
        i = self.first(ref, lambda f: f[run.WAYS] == "4" and int(f[run.L2_HITS]) > 1000)
        rows = list(ref)
        rows[i] = perturb(perturb(ref[i], run.L2_HITS, -1), run.L2_MISSES, 1)
        self.assertEqual(run.check_rows("wide-predict", rows, ref), 0)

    def test_direct_mapped_counts_must_be_exact(self):
        ref = reference("wide-predict")
        i = self.first(ref, lambda f: f[run.WAYS] == "1" and int(f[run.L2_HITS]) > 0)
        rows = list(ref)
        rows[i] = perturb(perturb(ref[i], run.L2_HITS, -1), run.L2_MISSES, 1)
        self.assertEqual(run.check_rows("wide-predict", rows, ref), 1)

    def shifted_beyond(self, ref, i, eps):
        """`ref` with point `i`'s local miss ratio moved by just over `eps`."""
        f = ref[i].split("\t")
        probes = int(f[run.L2_HITS]) + int(f[run.L2_MISSES])
        shift = int(probes * (eps + 0.01)) + 1
        rows = list(ref)
        rows[i] = perturb(perturb(ref[i], run.L2_HITS, -shift), run.L2_MISSES, shift)
        return rows

    def test_known_point_is_held_to_its_listed_limit(self):
        ref = reference("wide-predict")
        i = self.first(ref, lambda f: f[run.WAYS] == "4" and run.local_miss_ratio(f) < 0.5)
        key = run.point_key(ref[i].split("\t"))
        rows = self.shifted_beyond(ref, i, run.PREDICT_EPSILON)
        known = {(0, key): run.PREDICT_EPSILON + 0.05}
        self.assertEqual(run.check_rows("wide-predict", rows, ref, 0, known), 0)
        self.assertEqual(run.check_rows("wide-predict", rows, ref, 1, known), 1)
        known = {(0, key): run.PREDICT_EPSILON + 0.005}
        self.assertEqual(run.check_rows("wide-predict", rows, ref, 0, known), 1)

    def test_known_list_names_only_approximate_points(self):
        known = run.load_known_over_epsilon()
        for (window, key), limit in known.items():
            self.assertIn(window, range(8))
            self.assertNotIn(key[3], ("0", "1"), key)
            self.assertNotEqual(key[2], "0", key)
            self.assertGreater(limit, run.PREDICT_EPSILON)

    def test_sampled_gate_uses_its_own_epsilon(self):
        ref = reference("trace-sampled")
        i = self.first(ref, lambda f: f[run.L2] != "0" and run.local_miss_ratio(f) < 0.5)
        rows = self.shifted_beyond(ref, i, run.SAMPLED_EPSILON)
        self.assertEqual(run.check_rows("trace-sampled", rows, ref), 1)


class AccuracyMetrics(unittest.TestCase):
    def test_anchor_error_is_relative_to_the_paper(self):
        row = "\t".join(
            ["espresso", "32768", "0", "0", "-", "-", "1000", "0", "20", "0"] + ["0"] * 8
        )
        self.assertAlmostEqual(run.paper_anchor_err([row]), 1.0)

    def test_miss_ratio_error_ignores_single_level_points(self):
        ref = reference("paper-sweep")
        self.assertEqual(run.max_miss_ratio_err(ref, ref), 0.0)


if __name__ == "__main__":
    unittest.main()
