#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

They check that the checker rejects a flipped artifact byte and an exact
value off by 1e-9 relative, that traced call counts equal their closed
forms (pool workers included), that tracing leaves every artifact byte as
it is, that the metric names and units agree with BENCHMARK.json, and that
the benchmark refuses to run without the fkclt sources.  Small sizes keep
the whole file under a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

import run
import tracing
import workloads
from checks import Checker
from workloads import Command

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORK = os.path.join(run.WORK_DIR, "selftest")
TWO_STATE = os.path.join(run.ROOT, "configs", "two_state.json")
ENV = os.path.join(run.ROOT, "configs", "env_two_state.json")


def setUpModule():
    global fkclt, checker
    fkclt = run.import_fkclt()
    checker = Checker(run.ROOT)
    shutil.rmtree(WORK, ignore_errors=True)


def small_commands(threads: int) -> list:
    """Every subcommand the workloads use, at sizes that run in seconds."""
    cmds = [
        workloads.particle_command(
            f"clt-{kernel}",
            ["clt", "--config", TWO_STATE, "--n", "64", "--N", "16", "--reps", "40",
             "--kernel", kernel, "--threads", "1"],
            {"--out": f"clt-{kernel}.csv", "--report": f"clt-{kernel}.json"},
            11, 40, 16, 64,
        )
        for kernel in ("multinomial", "transport")
    ]
    cmds.append(workloads.particle_command(
        "fixed-n-clt",
        ["fixed-n-clt", "--config", TWO_STATE, "--n", "3", "--N", "100", "--reps", "40",
         "--threads", str(threads)],
        {"--report": "fixed-n-clt.json"}, 12, 40, 100, 3,
    ))
    cmds.append(Command("oracle", ("oracle", "--config", TWO_STATE, "--n", "12"),
                        {"--out": "oracle.json"}, expected_counts={"oracle.v_n_calls": 12}))
    cmds.append(Command("env-sigma2", ("env-sigma2", "--config", ENV, "--horizon", "100",
                                       "--depth", "10", "--seed", "13"),
                        {"--report": "env-sigma2.json"}, seed=13,
                        expected_counts={"randenv.c_of_y_calls": 100}))
    return cmds


class TracedPass(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cmds = small_commands(threads=2)
        cls.untraced = run.run_pass(fkclt.cli.main, cls.cmds, os.path.join(WORK, "untraced"))
        cls.tracer = tracing.Tracer()
        with cls.tracer.installed(fkclt):
            cls.traced = run.run_pass(fkclt.cli.main, cls.cmds, os.path.join(WORK, "traced"),
                                      cls.tracer)

    def test_small_commands_pass_the_checks(self):
        problems = run.check_pass(checker, self.cmds, self.untraced, seed=1)
        self.assertEqual([p for found in problems.values() for p in found], [])

    def test_tracing_changes_no_artifact_byte(self):
        problems = run.check_pass(checker, self.cmds, self.traced, 1, first=self.untraced)
        self.assertEqual([p for found in problems.values() for p in found], [])

    def test_counts_equal_closed_forms(self):
        for cmd in self.cmds:
            got = self.traced["counts"][cmd.name]
            self.assertTrue(cmd.expected_counts)
            for key, want in cmd.expected_counts.items():
                self.assertEqual(got[key], want, f"{cmd.name} {key}")
        # R * n steps and R * N * (n + 1) uniforms: 40 * 64 and 40 * 16 * 65.
        self.assertEqual(self.traced["counts"]["clt-transport"]["engine.step_calls"], 2560)
        self.assertEqual(self.traced["counts"]["clt-transport"]["engine.uniforms_drawn"], 41600)

    def test_worker_spans_are_gathered(self):
        pids = {s[4] for s in self.tracer.spans if s[0] == "engine.run"}
        self.assertGreater(len(pids - {self.tracer.pid}), 0)
        self.assertEqual(self.traced["counts"]["fixed-n-clt"]["engine.run_calls"], 40)

    def test_bindings_are_restored(self):
        self.assertIs(fkclt.harness.run, fkclt.engine.run)
        self.assertFalse(hasattr(fkclt.engine.run, "__wrapped__"))
        self.assertFalse(hasattr(fkclt.core.ProbMeasure.__post_init__, "__wrapped__"))

    def test_layer_self_times_partition_the_traced_wall(self):
        summary = tracing.summarize(self.tracer.spans, self.tracer.pid)
        metrics = run.layer_metrics(summary, self.tracer.counts, self.traced, self.untraced,
                                    self.cmds)
        roots = sum(e - s for _, s, e, parent, pid in self.tracer.spans
                    if parent == -1 and pid == self.tracer.pid)
        self.assertAlmostEqual(sum(summary["layers"].values()), roots, delta=1e-6)
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {k: unit for k, (_, unit) in metrics.items()})


class Checks(unittest.TestCase):
    def run_one(self, cmd):
        out = os.path.join(WORK, f"checks-{cmd.name}")
        return run.run_pass(fkclt.cli.main, [cmd], out)

    def test_flipped_byte_in_a_pinned_artifact_is_rejected(self):
        cmd = workloads.commands("wide-N", workloads.DEFAULT_SEED, run.ROOT)[1]
        self.assertEqual(cmd.name, "qsd")
        result = self.run_one(cmd)
        code, files = result["codes"]["qsd"], result["files"]["qsd"]
        self.assertEqual(checker.check(cmd, code, files, default_seed=True), [])
        data = bytearray(files["qsd.csv"])
        data[-3] ^= 0x01
        problems = checker.check(cmd, code, {"qsd.csv": bytes(data)}, default_seed=True)
        self.assertIn("qsd: qsd.csv differs from its pinned digest", problems)

    def test_exact_value_off_by_1e9_is_rejected(self):
        cmds = small_commands(threads=1)[3:]
        results = {c.name: self.run_one(c) for c in cmds}
        oracle_cmd, env_cmd = cmds
        for c, name, key, index in ((oracle_cmd, "oracle.json", "v_n_table", 5),
                                    (oracle_cmd, "oracle.json", "zeta", None),
                                    (oracle_cmd, "oracle.json", "log_gammas", 12),
                                    (env_cmd, "env-sigma2.json", "sigma2", None)):
            code, files = results[c.name]["codes"][c.name], results[c.name]["files"][c.name]
            self.assertEqual(checker.check(c, code, files, default_seed=False), [])
            report = json.loads(files[name])
            if index is None:
                report[key] *= 1 + 1e-9
            else:
                report[key][index] *= 1 + 1e-9
            bad = {name: json.dumps(report).encode()}
            self.assertNotEqual(checker.check(c, code, bad, default_seed=False), [], key)


class Contract(unittest.TestCase):
    def test_metric_names_and_units(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        metrics = bench["end_to_end"] + bench["per_layer"]
        for m in metrics + bench["workloads"]:
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
        self.assertEqual(len({m["name"] for m in metrics}), len(metrics))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]), workloads.WORKLOADS)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(WORK, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "clt-small-N", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
