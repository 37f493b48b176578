#!/usr/bin/env python3
"""Self-tests of the benchmark's own bookkeeping (run.py): span self-time
arithmetic, the rule that the parts sum to the traced wall, provenance
parsing, and output checks that must catch an altered expected CSV.

    python3 perfbench/test_run.py
"""

import os
import shutil
import tempfile
import unittest

import run


def span(i, name, begin, end, parent):
    return {"id": i, "name": name, "begin": begin, "end": end,
            "parent": parent}


def event(i, name, begin_s, dur_s, parent, run_id):
    return {"name": name, "ph": "X", "ts": begin_s * 1e6, "dur": dur_s * 1e6,
            "pid": 1, "tid": 1,
            "args": {"id": i, "parent": parent, "run": run_id, "arg": ""}}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        own = run.self_times([span(0, "pass", 0.0, 2.0, -1)])
        self.assertAlmostEqual(own[0], 2.0)

    def test_children_are_subtracted_once(self):
        spans = [span(0, "pass", 0.0, 10.0, -1),
                 span(1, "exec.scheduler.run", 1.0, 4.0, 0),
                 span(2, "bench.render", 5.0, 6.5, 0),
                 span(3, "net.reduce", 2.0, 3.0, 1)]
        own = run.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 3.0 - 1.5)
        self.assertAlmostEqual(own[1], 3.0 - 1.0)
        self.assertAlmostEqual(own[2], 1.5)
        self.assertAlmostEqual(own[3], 1.0)

    def test_overlapping_children_count_their_union(self):
        spans = [span(0, "pass", 0.0, 10.0, -1),
                 span(1, "net.kernel", 1.0, 5.0, 0),
                 span(2, "net.kernel", 3.0, 7.0, 0)]
        self.assertAlmostEqual(run.self_times(spans)[0], 10.0 - 6.0)

    def test_child_outside_its_parent_is_clipped(self):
        self.assertAlmostEqual(run.covered(2.0, 4.0, [(1.0, 3.0)]), 1.0)
        self.assertAlmostEqual(run.covered(2.0, 4.0, [(5.0, 6.0)]), 0.0)


class PartsSumTest(unittest.TestCase):
    def spans(self):
        return [span(0, "pass", 0.0, 5.0, -1),
                span(1, "bench.setup", 0.0, 0.25, 0),
                span(2, "analysis.controlled", 0.25, 2.0, 0),
                span(3, "exec.scheduler.run", 2.0, 4.5, 0)]

    def test_parts_and_unaccounted_make_up_the_wall(self):
        wall, parts, unaccounted = run.breakdown(self.spans())
        self.assertAlmostEqual(wall, 5.0)
        self.assertAlmostEqual(unaccounted, 0.5)
        self.assertAlmostEqual(parts["analysis.controlled_s"], 1.75)
        self.assertTrue(run.parts_sum_to_wall(wall, parts, unaccounted))

    def test_a_lost_part_breaks_the_rule(self):
        wall, parts, unaccounted = run.breakdown(self.spans())
        parts["exec.scheduler.wall_s"] = 0.0
        self.assertFalse(run.parts_sum_to_wall(wall, parts, unaccounted))

    def test_a_span_without_a_layer_is_rejected(self):
        spans = self.spans() + [span(4, "mystery", 4.5, 4.6, 0)]
        with self.assertRaises(run.BenchError):
            run.breakdown(spans)

    def test_chrome_events_group_by_pass(self):
        events = [event(0, "pass", 0.0, 1.0, -1, 0),
                  event(1, "bench.setup", 0.0, 0.5, 0, 0),
                  event(2, "pass", 2.0, 1.0, -1, 1)]
        runs = run.span_tree(events)
        self.assertEqual(sorted(runs), [0, 1])
        wall, parts, unaccounted = run.breakdown(runs[0])
        self.assertAlmostEqual(parts["bench.setup_s"] + unaccounted, wall)


class ProvenanceTest(unittest.TestCase):
    def driver(self, **over):
        d = {"build_type": "Release", "ndebug": True, "compiler": "GNU 12.2.0",
             "cxx_flags": " -O3 -DNDEBUG", "pool_threads": 4}
        d.update(over)
        return d

    def test_release_build_is_comparable(self):
        p = run.parse_provenance(self.driver(), 7, 4, 4, "v1-2-gabc")
        self.assertTrue(p["optimized"])
        self.assertTrue(p["comparable"])
        self.assertEqual(p["cxx_flags"], "-O3 -DNDEBUG")
        self.assertEqual((p["seed"], p["nproc"], p["pool_threads"]), (7, 4, 4))
        self.assertEqual(p["git_describe"], "v1-2-gabc")

    def test_unoptimized_build_is_not_comparable(self):
        p = run.parse_provenance(
            self.driver(build_type="Debug", ndebug=False, cxx_flags=" -g"),
            7, 4, 4, "unknown")
        self.assertFalse(p["optimized"])
        self.assertFalse(p["comparable"])

    def test_assertions_on_is_not_comparable(self):
        p = run.parse_provenance(self.driver(ndebug=False), 7, 4, 4, "x")
        self.assertTrue(p["optimized"])
        self.assertFalse(p["comparable"])

    def test_flag_must_be_a_whole_word(self):
        p = run.parse_provenance(self.driver(cxx_flags="-fno-O3ish -g"),
                                 7, 4, 4, "x")
        self.assertFalse(p["optimized"])

    def test_missing_field_is_rejected(self):
        d = self.driver()
        del d["ndebug"]
        with self.assertRaises(run.BenchError):
            run.parse_provenance(d, 7, 4, 4, "x")


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.results = os.path.join(self.tmp, "results")
        self.out = os.path.join(self.tmp, "out")
        shutil.copytree(run.RESULTS, self.results)
        os.makedirs(self.out)
        for panel in run.FIG7_PANELS:
            shutil.copy(os.path.join(run.RESULTS, panel + ".csv"), self.out)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def alter(self, path, old, new):
        with open(path) as f:
            text = f.read()
        self.assertIn(old, text)
        with open(path, "w") as f:
            f.write(text.replace(old, new, 1))

    def test_committed_csvs_pass(self):
        checks = run.Checks()
        run.check_fig7(self.out, run.DEFAULT_SEED, self.results, checks)
        self.assertEqual(checks.failed, 0)
        self.assertEqual(checks.attempted, 3 * len(run.FIG7_PANELS))

    def test_altered_expected_simulation_value_fails_at_default_seed(self):
        # ctrl_sim of the first row: a byte difference outside the
        # analytic columns.
        self.alter(os.path.join(self.results, "fig7_rho25_m25.csv"),
                   "0.13332", "0.13333")
        checks = run.Checks()
        run.check_fig7(self.out, run.DEFAULT_SEED, self.results, checks)
        self.assertEqual(checks.failed, 1)
        # At another seed only the analytic columns are compared.
        checks = run.Checks()
        run.check_fig7(self.out, run.DEFAULT_SEED + 1, self.results, checks)
        self.assertEqual(checks.failed, 0)

    def test_altered_expected_analytic_value_fails_at_any_seed(self):
        self.alter(os.path.join(self.results, "fig7_rho25_m25.csv"),
                   "0.13034", "0.13035")
        checks = run.Checks()
        run.check_fig7(self.out, run.DEFAULT_SEED + 1, self.results, checks)
        self.assertEqual(checks.failed, 1)

    def test_altered_expected_study_csv_fails(self):
        studies = os.path.join(self.tmp, "studies")
        os.makedirs(studies)
        shutil.copy(os.path.join(run.RESULTS, "priority_classes.csv"), studies)
        checks = run.Checks()
        self.assertEqual(run.check_studies(studies, self.results, checks),
                         ["priority_classes.csv"])
        self.assertEqual(checks.failed, 0)
        self.alter(os.path.join(self.results, "priority_classes.csv"),
                   "0.08687", "0.08688")
        checks = run.Checks()
        run.check_studies(studies, self.results, checks)
        self.assertEqual(checks.failed, 1)


if __name__ == "__main__":
    unittest.main()
