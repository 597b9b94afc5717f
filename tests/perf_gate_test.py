#!/usr/bin/env python3
"""Unit tests for tools/perf_gate.py's comparator (registered as the perf_gate ctest).

The comparator runs on in-memory fixtures: a BENCHMARK.json-shaped spec, reference rows and
one perfbench result per workload. Nothing is built or timed here; ci.sh --perf runs the gate
on real perfbench runs, Release and Debug.
"""

import copy
import json
import math
import os
import pathlib
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import perf_gate  # noqa: E402

SPEC = {
    "run_seconds": 35,
    "workloads": [{"name": "conv_randrw"}, {"name": "fleet_zipf_write"}],
    "end_to_end": [
        {"name": "host_ns_per_request", "unit": "ns", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
        {"name": "sim_requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "sim_write_amp", "unit": "ratio", "better": "lower", "bound": 0.1},
    ],
}
REFERENCE = {"host_ns_per_request": 400.0, "peak_rss_mb": 14.0,
             "sim_requests_per_s": 651.5117009709837, "sim_write_amp": 13.158415841584159}


def reference_rows():
    return [{"workload": w["name"], "seed": 7, "seconds": 35, "metric": m, "value": v}
            for w in SPEC["workloads"] for m, v in REFERENCE.items()]


def refs():
    out = {}
    for row in reference_rows():
        ref = out.setdefault(row["workload"],
                             {"seed": row["seed"], "seconds": row["seconds"], "metrics": {}})
        ref["metrics"][row["metric"]] = row["value"]
    return out


def runs(**overrides):
    """One passing run per workload; overrides replace metric values in every run."""
    metrics = {m: {"value": overrides.get(m, v), "unit": "x"} for m, v in REFERENCE.items()}
    result = {"correct": True, "attempted": 1000, "failed": 0, "metrics": metrics}
    return {w["name"]: {"seed": 7, "seconds": 35, "result": copy.deepcopy(result)}
            for w in SPEC["workloads"]}


def failures(lines):
    return [text for ok, text in lines if not ok]


class PerfGateTest(unittest.TestCase):
    def test_identical_run_passes(self):
        lines = perf_gate.check(SPEC, refs(), runs())
        self.assertEqual(len(lines), 2 * len(REFERENCE))
        self.assertEqual(failures(lines), [])

    def test_within_bound_and_faster_pass(self):
        self.assertEqual(failures(perf_gate.check(SPEC, refs(), runs(host_ns_per_request=499.0))),
                         [])
        self.assertEqual(failures(perf_gate.check(SPEC, refs(), runs(host_ns_per_request=100.0,
                                                                      peak_rss_mb=7.0))), [])

    def test_host_metric_past_bound_fails_and_names_metric(self):
        fails = failures(perf_gate.check(SPEC, refs(), runs(host_ns_per_request=501.0)))
        self.assertEqual(len(fails), 2)
        for text in fails:
            self.assertIn(" host_ns_per_request ", text)
        fails = failures(perf_gate.check(SPEC, refs(), runs(peak_rss_mb=14.8)))
        self.assertEqual([t.split()[1] for t in fails], ["peak_rss_mb", "peak_rss_mb"])

    def test_sim_value_one_ulp_off_fails(self):
        off = {"sim_write_amp": math.nextafter(REFERENCE["sim_write_amp"], math.inf)}
        fails = failures(perf_gate.check(SPEC, refs(), runs(**off)))
        self.assertEqual([t.split()[1] for t in fails], ["sim_write_amp", "sim_write_amp"])
        # Faster in simulated time is still a changed simulation.
        faster = REFERENCE["sim_requests_per_s"] * 1.01
        fails = failures(perf_gate.check(SPEC, refs(), runs(sim_requests_per_s=faster)))
        self.assertEqual(len(fails), 2)

    def test_incorrect_run_fails(self):
        r = runs()
        r["conv_randrw"]["result"]["correct"] = False
        fails = failures(perf_gate.check(SPEC, refs(), r))
        self.assertEqual(len(fails), 1)
        self.assertIn("conv_randrw correct", fails[0])

    def test_failed_requests_fail(self):
        r = runs()
        r["fleet_zipf_write"]["result"]["failed"] = 1
        fails = failures(perf_gate.check(SPEC, refs(), r))
        self.assertEqual(len(fails), 1)
        self.assertIn("fleet_zipf_write failed", fails[0])

    def test_missing_workload_fails(self):
        r = runs()
        del r["fleet_zipf_write"]
        fails = failures(perf_gate.check(SPEC, refs(), r))
        self.assertEqual(fails, ["fleet_zipf_write: no result (the run failed or did not finish)"])
        ref = refs()
        del ref["conv_randrw"]
        fails = failures(perf_gate.check(SPEC, ref, runs()))
        self.assertEqual(len(fails), 1)
        self.assertIn("conv_randrw: no reference rows", fails[0])

    def test_missing_metric_fails(self):
        r = runs()
        del r["conv_randrw"]["result"]["metrics"]["peak_rss_mb"]
        fails = failures(perf_gate.check(SPEC, refs(), r))
        self.assertEqual(fails, ["conv_randrw peak_rss_mb: missing from the result"])
        ref = refs()
        del ref["fleet_zipf_write"]["metrics"]["sim_write_amp"]
        fails = failures(perf_gate.check(SPEC, ref, runs()))
        self.assertEqual(fails, ["fleet_zipf_write sim_write_amp: missing from the reference rows"])

    def test_other_seed_or_run_length_fails(self):
        r = runs()
        r["conv_randrw"]["seed"] = 8
        r["fleet_zipf_write"]["seconds"] = 10
        fails = failures(perf_gate.check(SPEC, refs(), r))
        self.assertEqual(len(fails), 2)
        self.assertIn("seed 8", fails[0])
        self.assertIn("seconds 10", fails[1])

    def test_bound_comes_from_the_spec_file(self):
        slower = runs(host_ns_per_request=460.0)  # 15% worse.
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = os.path.join(tmp, "BENCHMARK.json")
            rows_path = os.path.join(tmp, "BENCH_perf_baseline.json")
            with open(rows_path, "w") as f:
                f.writelines(json.dumps(row) + "\n" for row in reference_rows())
            for bound, want_failures in ((0.25, 0), (0.10, 2)):
                spec = copy.deepcopy(SPEC)
                spec["end_to_end"][0]["bound"] = bound
                with open(spec_path, "w") as f:
                    json.dump(spec, f)
                lines = perf_gate.check(perf_gate.load_spec(spec_path),
                                        perf_gate.load_refs(rows_path), slower)
                self.assertEqual(len(failures(lines)), want_failures, bound)


class CommittedReferencesTest(unittest.TestCase):
    def test_rows_cover_every_gated_workload_and_metric(self):
        """The committed rows replayed as a run pass the gate under the committed spec."""
        spec, refs = perf_gate.load_spec(), perf_gate.load_refs()
        replay = {w: {"seed": r["seed"], "seconds": r["seconds"],
                      "result": {"correct": True, "attempted": 1, "failed": 0,
                                 "metrics": {m: {"value": v} for m, v in r["metrics"].items()}}}
                  for w, r in refs.items()}
        self.assertEqual(failures(perf_gate.check(spec, refs, replay)), [])
        self.assertEqual({r["seconds"] for r in refs.values()}, {spec["run_seconds"]})


if __name__ == "__main__":
    unittest.main()
