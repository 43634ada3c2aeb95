#!/usr/bin/env python3
"""Builds and runs the repo benchmark, then stamps and checks its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sync_call --seed 1 --seconds 10 --trace 0

Workloads: sync_call, notify_open, ctrl_c.  --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones and writes a Chrome/Perfetto trace to
.bench_build/perfbench/traces/<workload>.json.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  The exit code
is 0 only when every output check passed.

Other modes:

    python3 perfbench/run.py --self-test        # tests of the arithmetic
    python3 perfbench/run.py --save-baseline    # medians of this host class

The first run builds the library sources (src/) and the driver with CMake
into .bench_build/perfbench; later runs rebuild only what changed.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
HISTORY = os.path.join(BUILD, "history.jsonl")
BASELINES = os.path.join(HERE, "baselines")
WORKLOADS = ("sync_call", "notify_open", "ctrl_c")


def log(line):
    print(line, flush=True)


def build():
    """Configures once, then builds incrementally.  Serialised by a lock so
    concurrent runs in one checkout never build over each other."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=subprocess.DEVNULL).returncode:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(len(os.sched_getaffinity(0)))
        done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                              stdout=subprocess.DEVNULL)
        return done.returncode == 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    about = json.loads(subprocess.run([DRIVER, "--about"], capture_output=True,
                                      text=True, check=True).stdout)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": about["compiler"],
        "build_type": about["build_type"],
        "benchmark_library": about["benchmark_library"],
    }


def host_class(fp):
    """Results compare only within one host class: same CPU count, CPU model,
    compiler and build types."""
    raw = "{nproc}cpu-{cpu_model}-{compiler}-{build_type}-bm_{benchmark_library}"
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", raw.format(**fp)).strip("_").lower()


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m for m in spec.get("end_to_end", [])}
    except (OSError, ValueError):
        return {}


def compare(cls, workload, trace, metrics):
    """Prints the result against this host class's baseline, or says there
    is none.  Never compares across host classes."""
    path = os.path.join(BASELINES, cls + ".json")
    try:
        with open(path) as f:
            base = json.load(f)
    except (OSError, ValueError):
        log("no baseline for this host class (%s)" % cls)
        return
    if base.get("host_class") != cls:
        log("no baseline for this host class (%s)" % cls)
        return
    medians = base.get("workloads", {}).get(workload, {}).get(str(trace))
    if not medians:
        log("no baseline for this host class (%s) and workload %s"
            % (cls, workload))
        return
    limits = bounds()
    for name, m in metrics.items():
        if name not in medians or not medians[name]:
            continue
        change = m["value"] / medians[name] - 1
        spec = limits.get(name)
        flag = ""
        if spec:
            worse = change if spec["better"] == "lower" else -change
            flag = "  WORSE THAN BOUND" if worse > spec["bound"] else ""
        log("  vs baseline %-32s %+7.1f%%%s" % (name, 100 * change, flag))


def save_baseline():
    """Writes the per-metric medians of every run in the history that matches
    this host class to perfbench/baselines/<host class>.json."""
    if not build():
        return 1
    cls = host_class(fingerprint())
    runs = {}
    try:
        with open(HISTORY) as f:
            for line in f:
                rec = json.loads(line)
                if rec["host_class"] == cls and rec["correct"]:
                    key = (rec["workload"], str(rec["trace"]))
                    runs.setdefault(key, []).append(rec["metrics"])
    except OSError:
        pass
    if not runs:
        log("no runs of this host class (%s) in %s" % (cls, HISTORY))
        return 1
    out = {"host_class": cls, "workloads": {}}
    for (workload, trace), results in sorted(runs.items()):
        names = results[0].keys()
        out["workloads"].setdefault(workload, {})[trace] = {
            n: statistics.median(r[n]["value"] for r in results if n in r)
            for n in names}
        log("%s trace=%s: %d runs" % (workload, trace, len(results)))
    os.makedirs(BASELINES, exist_ok=True)
    with open(os.path.join(BASELINES, cls + ".json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %s" % os.path.join(BASELINES, cls + ".json"))
    return 0


def self_test():
    if not build():
        return 1
    status = subprocess.run([SELFTEST]).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q",
                            "test_run"], cwd=HERE).returncode
    return status or tests


def run(args):
    if not build():
        log("build failed")
        return 1
    fp = fingerprint()
    cls = host_class(fp)
    log("host %s" % json.dumps(fp, sort_keys=True))
    log("host class %s; workload %s seed %d seconds %d trace %d"
        % (cls, args.workload, args.seed, args.seconds, args.trace))
    argv = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, overwritten by its next traced run.
        argv += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    lines = []
    for line in proc.stdout:
        lines.append(line.rstrip("\n"))
    code = proc.wait()
    for line in lines[:-1]:
        log(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver printed no result (exit code %d)" % code)
        return code or 1
    with open(HISTORY, "a") as f:
        f.write(json.dumps({"host_class": cls, "host": fp,
                            "workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "correct": result["correct"],
                            "metrics": result["metrics"]}) + "\n")
    compare(cls, args.workload, args.trace, result["metrics"])
    if code != 0 or not result["correct"]:
        log("replay: python3 perfbench/run.py --workload %s --seed %d "
            "--seconds %d --trace %d" % (args.workload, args.seed,
                                         args.seconds, args.trace))
    log(json.dumps(result))
    return code if code != 0 else (0 if result["correct"] else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--save-baseline", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.save_baseline:
        return save_baseline()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
