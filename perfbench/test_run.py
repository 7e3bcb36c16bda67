"""Tests for the benchmark's own code (run.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The end-to-end case runs the built harness when .bench_build/perfbench
holds one (any benchmark run builds it) and is skipped otherwise.
"""

import copy
import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fp(**counters):
    """A fingerprint with the counters the metrics read, plus `counters`."""
    base = {"frames_transmitted": 1000, "data_originated": 100,
            "data_dropped_malicious": 1, "malicious_isolated": 2,
            "false_isolations": 0, "isolation_events": 2}
    return dict(base, **counters)


def replica(seed, fingerprint, **extra):
    record = {"kind": "replica", "seed": seed, "mode": "workload", "ok": True,
              "setup_s": 0.01, "run_s": 2.0, "extract_s": 0.001,
              "steps_ms": [1.0] * 100, "malicious": 2, "latency": 10.0,
              "peak_rss_mb": 40.0,
              "fp": fingerprint}
    record.update(extra)
    return json.dumps(record)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_returns_a_measured_sample(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        self.assertEqual(run.percentile([], 90), 0.0)

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertTrue(run.p90_is_backed(100))
        self.assertFalse(run.p90_is_backed(99))
        self.assertFalse(run.p90_is_backed(20))

    def test_sample_counts_follow_the_records(self):
        refs = {"paper_n100": {"1": fp(a=1), "2": fp(a=2)}}
        lines = [json.dumps({"kind": "setup", "seed": 1, "ok": True,
                             "s": 0.5})]
        lines += [replica(1, fp(a=1)), replica(2, fp(a=2))]
        tally, metrics, extra = run.aggregate("paper_n100", lines, 0, 10.0,
                                              refs, trace=0)
        samples = extra["samples"]
        self.assertEqual(samples["setup_s"], 3)  # 1 sample + 2 replicas
        self.assertEqual(samples["run_s"], 2)
        self.assertEqual(samples["step_ms_p90"], 200)
        self.assertEqual(tally.attempted, 3)
        self.assertEqual(metrics["setup_s"], 0.01)
        self.assertEqual(metrics["frames_per_s"], 1000 / 2.0)


class NamesTest(unittest.TestCase):
    def test_every_metric_name_and_unit_is_well_formed(self):
        names = [n for n, _ in run.END_TO_END + run.REPORTED_ONLY +
                 run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in run.END_TO_END + run.REPORTED_ONLY + run.PER_LAYER:
            self.assertRegex(name, NAME_RE)
            self.assertLessEqual(len(name), 64)
            self.assertRegex(unit, UNIT_RE)

    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_every_input_has_a_reference(self):
        refs = run.load_references()
        for workload, spec in run.WORKLOADS.items():
            seeds = run.replica_seeds(workload, 7)
            self.assertEqual(seeds, run.replica_seeds(workload, 7))
            self.assertNotEqual(seeds, run.replica_seeds(workload, 8))
            self.assertEqual(sorted(seeds), list(range(1, spec["pool"] + 1)))
            for seed in seeds:
                if workload == "defense_zoo":
                    for backend in run.ZOO_BACKENDS:
                        self.assertIn("%d/%s" % (seed, backend),
                                      refs[workload])
                else:
                    self.assertIn(str(seed), refs[workload])

    def test_zoo_sweeps_take_contiguous_seed_blocks(self):
        for seed in (1, 2, 3, 1000, -5):
            seeds = run.replica_seeds("defense_zoo", seed)
            for i in range(0, len(seeds), run.ZOO_REPLICAS):
                block = seeds[i:i + run.ZOO_REPLICAS]
                self.assertEqual(block, list(range(block[0],
                                                   block[0] + len(block))))

    def test_seed_one_reproduces_the_hotpath_baseline(self):
        with open(os.path.join(run.ROOT, "BENCH_baseline.json")) as f:
            cases = {c["case"]: c for c in json.load(f)["bench"]}
        want = cases["n1000_collisions"]
        got = run.load_references()["scale_n1000c"]["1"]
        for key in ("frames_transmitted", "frames_delivered",
                    "events_executed"):
            self.assertEqual(got[key], want[key], key)


class FailureAccountingTest(unittest.TestCase):
    REFS = {"paper_n100": {"1": fp(a=1, b=2), "2": fp(a=3, b=4)}}

    def fold(self, lines, refs=None, status=0):
        return run.aggregate("paper_n100", lines, status, 10.0,
                             refs or self.REFS, trace=0)

    def test_clean_run_is_correct(self):
        tally, _, extra = self.fold([replica(1, fp(a=1, b=2))])
        self.assertEqual((tally.attempted, tally.failed), (1, 0))
        self.assertEqual(extra["values"]["fail_frac"], 0.0)

    def test_a_wrong_reference_shows_up_in_fail_frac(self):
        refs = copy.deepcopy(self.REFS)
        refs["paper_n100"]["2"]["b"] = 5
        lines = [replica(1, fp(a=1, b=2)), replica(2, fp(a=3, b=4))]
        tally, metrics, extra = self.fold(lines, refs)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(extra["values"]["fail_frac"], 0.5)
        self.assertIn("fingerprint mismatch", tally.reasons[0])
        result = json.loads(run.result_line(tally, metrics, run.END_TO_END))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_throwing_construction_and_watchdog_count_as_failures(self):
        lines = [
            json.dumps({"kind": "setup", "seed": 1, "ok": False,
                        "error": "could not build a connected topology"}),
            json.dumps({"kind": "replica", "seed": 2, "mode": "workload",
                        "ok": False,
                        "error": "simulation exceeded wall-clock limit"}),
            replica(1, fp(a=1, b=2)),
        ]
        tally, _, extra = self.fold(lines)
        self.assertEqual((tally.attempted, tally.failed), (3, 2))
        self.assertAlmostEqual(extra["values"]["fail_frac"], 2 / 3)

    def test_trace_checks_fail_the_replica(self):
        counters = fp(malicious_isolated=1, isolation_events=5,
                      false_isolations=1)
        refs = {"traced_n200": {"1": counters}}
        clean = {"violations": 0, "first_violation": "", "forensic_tp": 2,
                 "forensic_isolations": 5, "forensic_false_isolations": 1}
        # Convicted (TP) but not yet completely isolated is not a failure.
        tally, _, _ = run.aggregate("traced_n200",
                                    [replica(1, counters, **clean)], 0, 1.0,
                                    refs, 0)
        self.assertEqual(tally.failed, 0, tally.reasons)
        for change, why in (({"violations": 1}, "check_trace"),
                            ({"forensic_isolations": 4},
                             "forensic_isolations"),
                            ({"forensic_false_isolations": 0},
                             "forensic_false_isolations"),
                            ({"forensic_tp": 0}, "forensic TP")):
            line = replica(1, counters, **dict(clean, **change))
            tally, _, _ = run.aggregate("traced_n200", [line], 0, 1.0, refs, 0)
            self.assertEqual(tally.failed, 1, change)
            self.assertIn(why, tally.reasons[0])

    def test_a_dead_harness_is_a_failure_not_an_abort(self):
        tally, _, _ = self.fold([replica(1, fp(a=1, b=2))],
                                status="timeout")
        self.assertEqual(tally.failed, 1)
        tally, _, _ = self.fold([], status=-9)
        self.assertEqual(tally.failed, 2)  # the exit, and no replica at all


class PeakRssTest(unittest.TestCase):
    def test_peak_rss_belongs_to_one_child(self):
        big = [sys.executable, "-c",
               "b = bytearray(300 * 2**20); b[::4096] = b'x' * len(b[::4096])"]
        small = [sys.executable, "-c", "print('{}')"]
        _, status, big_mb = run.run_child(big, 60)
        self.assertEqual(status, 0)
        _, status, small_mb = run.run_child(small, 60)
        self.assertEqual(status, 0)
        self.assertGreater(big_mb, 300)
        self.assertLess(small_mb, 100)

    def test_a_hung_child_is_killed(self):
        _, status, _ = run.run_child(
            [sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
        self.assertEqual(status, "timeout")


class HarnessTest(unittest.TestCase):
    def lwbench(self, *args):
        binary = os.path.join(run.build_dir(), "lwbench")
        if not os.path.exists(binary):
            self.skipTest("harness not built")
        return run.run_child([binary, "--workload=paper_n100"] + list(args),
                             120)

    def test_the_watchdog_fails_a_replica_without_aborting(self):
        lines, status, rss = self.lwbench("--seeds=1", "--seconds=0.1",
                                          "--watchdog=0.001")
        tally, _, _ = run.aggregate("paper_n100", lines, status, rss,
                                    run.load_references(), 0)
        replicas = [line for line in lines if '"kind":"replica"' in line]
        self.assertEqual(status, 0)
        self.assertGreater(len(replicas), 0)
        self.assertEqual(tally.failed, len(replicas))  # setups still pass
        self.assertIn("wall-clock", tally.reasons[0])

    def test_one_replica_checked_against_a_wrong_reference(self):
        seeds = run.replica_seeds("paper_n100", 1)
        lines, status, rss = self.lwbench("--seeds=%d" % seeds[0],
                                          "--seconds=0.1")
        refs = run.load_references()
        tally, metrics, _ = run.aggregate("paper_n100", lines, status, rss,
                                          refs, 0)
        self.assertEqual(tally.failed, 0, tally.reasons)
        self.assertGreater(metrics["run_s"], 0)
        wrong = copy.deepcopy(refs)
        wrong["paper_n100"][str(seeds[0])]["frames_transmitted"] += 1
        tally, _, extra = run.aggregate("paper_n100", lines, status, rss,
                                        wrong, 0)
        self.assertEqual(tally.failed, 1)
        self.assertGreater(extra["values"]["fail_frac"], 0)


if __name__ == "__main__":
    unittest.main()
