#!/usr/bin/env python3
"""Benchmark of fkclt: time to a verdict, end to end and per module.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout of the repository.  A pass runs a workload's
commands in this process through `fkclt.cli.main(argv)` on the shipped
`configs/*.json` models, writing artifacts under `.perfbench_work/`.  The
first pass's artifacts are checked (see checks.py); every later pass must
reproduce them byte for byte.  A command that raises, returns another exit
code than its pinned one, or fails a check counts as failed.

--trace 0 runs passes until --seconds is used up (at least two) and reports
the end-to-end metrics: the medians over passes of wall and CPU time, the
peak resident memory, and the median of several fresh-process set-ups.

--trace 1 runs one pass untraced and one traced (see tracing.py), checks
that both wrote the same bytes and that the traced call counts equal their
closed forms, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A human-readable summary, the machine
record (nproc, Python and numpy versions, load average before and after)
and failed_ratio go to stderr.  The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import workloads
from checks import Checker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 5
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Fresh-process set-up: import fkclt and build the workload's inputs.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.setup(sys.argv[3], sys.argv[4], int(sys.argv[5]))"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_fkclt():
    if not os.path.isfile(os.path.join(SRC, "fkclt", "__init__.py")):
        raise BenchError(f"no fkclt sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import fkclt
    import fkclt.cli  # noqa: F401

    if not os.path.abspath(fkclt.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported fkclt from {fkclt.__file__}, not from {SRC}")
    return fkclt


def measure_setup(workload: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, HERE, ROOT, workload, str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def cpu_seconds() -> float:
    """User+system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child, in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_pass(main, cmds, out_dir, tracer=None) -> dict:
    """Run every command once; returns walls, codes, artifacts and, when
    traced, each command's call counts."""
    os.makedirs(out_dir)
    result = {"walls": {}, "codes": {}, "files": {}, "counts": {}}
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for cmd in cmds:
        if tracer is not None:
            first_span, counts0 = len(tracer.spans), Counter(tracer.counts)
        t0 = time.perf_counter()
        try:
            code = main(cmd.argv_in(out_dir))
        except Exception:  # a command that raises is a failed command
            traceback.print_exc()
            code = None
        result["walls"][cmd.name] = time.perf_counter() - t0
        result["codes"][cmd.name] = code
        if tracer is not None:
            calls = Counter(f"{s[0]}_calls" for s in tracer.spans[first_span:])
            result["counts"][cmd.name] = calls + (Counter(tracer.counts) - counts0)
    result["wall"] = time.perf_counter() - start
    result["cpu"] = cpu_seconds() - cpu0
    for cmd in cmds:
        files = {}
        for name in cmd.outputs.values():
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        result["files"][cmd.name] = files
    return result


def check_pass(checker, cmds, result, seed, first=None) -> dict:
    """Problems per command.  Without ``first`` the pass is checked in full;
    otherwise it must repeat the bytes and exit codes of ``first``, whose
    problems it then shares."""
    problems = {}
    for cmd in cmds:
        code, files = result["codes"][cmd.name], result["files"][cmd.name]
        if first is None:
            found = checker.check(cmd, code, files, seed == workloads.DEFAULT_SEED)
        elif (code, files) != (first["codes"][cmd.name], first["files"][cmd.name]):
            found = [f"{cmd.name}: artifacts or exit code differ from the checked pass"]
        else:
            found = list(first["problems"][cmd.name])
        problems[cmd.name] = found
    result["problems"] = problems
    return problems


def machine_record(loadavg_before) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_before": list(loadavg_before),
            "loadavg_after": list(os.getloadavg())}


def layer_metrics(summary, counts, traced, untraced, cmds) -> dict:
    """Per-layer metrics of a traced pass, with the untraced pass as reference."""
    import tracing

    names = summary["names"]

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    particle = [c for c in cmds if c.particle_steps]
    particle_wall = sum(untraced["walls"][c.name] for c in particle)
    steps = counts["engine.particle_steps"]
    positions = calls("randenv.c_of_y")
    m = {
        "engine.step_s": (total("engine.step"), "s"),
        "engine.step_calls": (calls("engine.step"), "count"),
        "engine.particle_steps": (steps, "count"),
        "engine.ns_per_particle_step": (total("engine.step") * 1e9 / steps if steps else 0.0, "ns"),
        "engine.uniforms_drawn": (counts["engine.uniforms_drawn"], "count"),
        "engine.run_s": (total("engine.run"), "s"),
        "engine.run_calls": (calls("engine.run"), "count"),
        "engine.init_particles_s": (total("engine.init_particles"), "s"),
        "engine.particle_steps_per_s": (
            sum(c.particle_steps for c in particle) / particle_wall if particle else 0.0, "1/s"),
        "harness.replicate_experiment_s": (total("harness.replicate_experiment"), "s"),
        "harness.replicate_self_s": (
            names.get("harness.replicate_experiment", {}).get("self_s", 0.0), "s"),
        "harness.lognormal_check_s": (total("harness.lognormal_check"), "s"),
        # Self time: the statistics around the replicates, not the replicates.
        "harness.fixed_n_clt_check_s": (
            names.get("harness.fixed_n_clt_check", {}).get("self_s", 0.0), "s"),
        "oracle.propagate_s": (total("oracle.propagate"), "s"),
        "oracle.propagate_calls": (calls("oracle.propagate"), "count"),
        "oracle.v_n_s": (total("oracle.v_n"), "s"),
        "oracle.v_n_calls": (calls("oracle.v_n"), "count"),
        "oracle.oracle_report_s": (total("oracle.oracle_report"), "s"),
        "oracle.spectral_pair_s": (total("oracle.spectral_pair"), "s"),
        "core.prob_measures_built": (counts["core.prob_measures_built"], "count"),
        "core.phi_step_calls": (calls("core.phi_step"), "count"),
        "core.cov_operator_calls": (calls("core.cov_operator"), "count"),
        "randenv.sigma2_env_s": (total("randenv.sigma2_env"), "s"),
        "randenv.us_per_position": (
            total("randenv.sigma2_env") * 1e6 / positions if positions else 0.0, "us"),
        "randenv.c_of_y_calls": (positions, "count"),
        "randenv.sample_env_path_s": (total("randenv.sample_env_path"), "s"),
    }
    for sub in ("clt", "fixed-n-clt", "qsd", "oracle", "env-sigma2"):
        m[f"cli.{sub}_s"] = (total(f"cli.{sub}"), "s")
    for layer in tracing.MODULES:
        m[f"{layer}.self_s"] = (summary["layers"].get(layer, 0.0), "s")
    m["trace.wall_s"] = (traced["wall"], "s")
    m["trace.overhead_s"] = (traced["wall"] - untraced["wall"], "s")
    m["trace.unattributed_s"] = (traced["wall"] - sum(summary["layers"].values()), "s")
    return m


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (result object, machine record)."""
    fkclt = import_fkclt()
    loadavg_before = os.getloadavg()
    cmds = workloads.setup(ROOT, workload, seed)
    checker = Checker(ROOT)
    run_dir = os.path.join(WORK_DIR, workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    main = fkclt.cli.main

    def count_failures(problems):
        for found in problems.values():
            for p in found:
                print(f"perfbench: FAILED {p}", file=sys.stderr)
        return sum(1 for found in problems.values() if found)

    attempted = failed = 0
    if not trace:
        setup_times = measure_setup(workload, seed)
        passes = []
        start = time.perf_counter()
        while True:
            result = run_pass(main, cmds, os.path.join(run_dir, f"pass-{len(passes) + 1}"))
            first = passes[0] if passes else None
            failed += count_failures(check_pass(checker, cmds, result, seed, first))
            attempted += len(cmds)
            passes.append(result)
            mean_wall = statistics.fmean(p["wall"] for p in passes)
            if len(passes) >= MIN_PASSES and time.perf_counter() - start + mean_wall > seconds:
                break
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        extra = {"passes": len(passes), "command_walls": [p["walls"] for p in passes],
                 "setup_times": setup_times}
    else:
        import tracing

        untraced = run_pass(main, cmds, os.path.join(run_dir, "untraced"))
        failed += count_failures(check_pass(checker, cmds, untraced, seed))
        tracer = tracing.Tracer()
        with tracer.installed(fkclt):
            traced = run_pass(main, cmds, os.path.join(run_dir, "traced"), tracer)
        problems = check_pass(checker, cmds, traced, seed, untraced)
        for cmd in cmds:
            got = traced["counts"][cmd.name]
            for key, want in cmd.expected_counts.items():
                if got[key] != want:
                    problems[cmd.name].append(f"{cmd.name}: traced {key} = {got[key]}, expected {want}")
        failed += count_failures(problems)
        attempted += 2 * len(cmds)
        summary = tracing.summarize(tracer.spans, tracer.pid)
        values = layer_metrics(summary, tracer.counts, traced, untraced, cmds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        with open(os.path.join(run_dir, "spans.json"), "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pid"],
                       "spans": tracer.spans}, fh)
        extra = {"untraced_walls": untraced["walls"], "traced_walls": traced["walls"]}
    machine = machine_record(loadavg_before)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(run_dir, "record.json"), "w", encoding="ascii") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "machine": machine,
                   **extra, "result": result}, fh, indent=1)
    return result, machine


def format_result(workload, result) -> str:
    lines = [f"workload {workload}: correct={result['correct']} "
             f"failed_ratio={result['failed'] / result['attempted']:.3f} "
             f"({result['failed']}/{result['attempted']} commands)"]
    lines += [f"  {name:32s} {m['value']:>16.6g} {m['unit']}" for name, m in result["metrics"].items()]
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload, each in its own process; prints one table."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {workload}: no result (exit code {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(format_result(workload, result))
        status |= proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="workload seed; the default is the acceptance-suite seed")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time of one run (at least two passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, machine = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, FileNotFoundError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(format_result(args.workload, result), file=sys.stderr)
    print(f"  machine: {json.dumps(machine)}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
