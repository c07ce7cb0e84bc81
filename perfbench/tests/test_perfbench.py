#!/usr/bin/env python3
"""Tests of the benchmark itself: CLI strictness, tiny smoke runs of each
workload (untraced and traced), metric names and units, and that each
correctness check fails when its expectation is broken on purpose.

    python3 perfbench/tests/test_perfbench.py

Builds the driver through run.py on first use (a minute or two).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args):
    """Run run.py; returns (exit code, parsed last line or None, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py")] + list(args),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def driver(*args):
    binary = os.path.join(run.build_dir(), "perfbench")
    return subprocess.run([binary] + list(args), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True)


def tiny(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra)


class Contract(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END.items()))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, run.unit_of(name)) for name in run.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)


class Cli(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the driver once for every test below.
        code, result, _ = tiny("conformance", 0)
        assert code == 0 and result and result["correct"], "build/smoke"

    def assertUsageError(self, proc_or_tuple):
        code, err = proc_or_tuple
        self.assertNotEqual(code, 0)
        self.assertIn("usage", err.lower())

    def test_run_py_rejects_bad_arguments(self):
        base = ["--workload", "conformance", "--seed", "1", "--trace", "0"]
        for args in (base + ["--seconds", "0"],          # zero-length window
                     base + ["--seconds"],               # missing value
                     base + ["--seconds", "1", "--sec", "1"],  # unknown flag
                     base + ["--seconds", "1", "extra"],  # positional
                     ["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"]):
            code, result, err = bench(*args)
            self.assertIsNone(result, args)
            self.assertUsageError((code, err))

    def test_driver_rejects_bad_arguments(self):
        base = ["--workload", "conformance", "--seed", "1"]
        for args in (base + ["--seconds", "0"],
                     base + ["--seconds"],
                     base + ["--seconds", "1", "--help"],
                     base + ["--seconds", "1", "7"],
                     base + ["--seconds", "-1"],
                     ["--seed", "1", "--seconds", "1"]):
            proc = driver(*args)
            self.assertUsageError((proc.returncode, proc.stderr))
            self.assertEqual(proc.stdout, "", args)

    def test_seed_is_echoed(self):
        proc = driver("--workload", "conformance", "--seed", "4242",
                      "--seconds", "1", "--tiny")
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(json.loads(proc.stdout.splitlines()[-1])["seed"],
                         4242)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        code, result, _ = tiny(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = run.END_TO_END if trace == 0 else run.PER_LAYER
        self.assertEqual(list(result["metrics"]), list(wanted))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(metric["unit"], wanted[name] if trace == 0
                             else run.unit_of(name), name)
            self.assertIsInstance(metric["value"], (int, float))
        return result["metrics"]

    def test_tpcc_replicated(self):
        self.check("tpcc-replicated", 0)
        layers = self.check("tpcc-replicated", 1)
        for name in ("db.commit_calls", "ntb.mmio_write_calls",
                     "common.crc_calls", "vt.replication_wait_us"):
            self.assertGreater(layers[name]["value"], 0, name)

    def test_destage_mixed(self):
        self.check("destage-mixed", 0)
        layers = self.check("destage-mixed", 1)
        for name in ("nvme.read_calls", "flash.reads", "ftl.write_calls"):
            self.assertGreater(layers[name]["value"], 0, name)
        self.assertEqual(layers["db.commit_calls"]["value"], 0)

    def test_conformance(self):
        self.check("conformance", 0)
        layers = self.check("conformance", 1)
        self.assertGreater(layers["check.schedules"]["value"], 0)
        self.assertGreater(layers["core.build_calls"]["value"], 0)


class BrokenExpectations(unittest.TestCase):
    def check_fires(self, workload, check):
        code, result, _ = tiny(workload, 0, "--break", check)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_replica_log_check(self):
        self.check_fires("tpcc-replicated", "replica-log")

    def test_read_version_check(self):
        self.check_fires("destage-mixed", "read-version")

    def test_conformance_check(self):
        self.check_fires("conformance", "conformance")


if __name__ == "__main__":
    unittest.main()
