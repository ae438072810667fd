#!/usr/bin/env python3
"""Run one flexnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/flexbench from the
repository's sources (CMake, Release) under $CARGO_TARGET_DIR (default
.bench_build), runs the workload with every FLEXNET_* variable removed
from the environment, and prints:

  * one line with the full run record: every check, the metrics, and the
    stamp (host, nproc, compiler, build type, commit);
  * as the last line, {"correct", "attempted", "failed", "metrics"}, with
    the end-to-end metrics for --trace 0 and the per-layer ones for
    --trace 1.

It exits 0 when every check passed and 1 when one failed (or when the
build or the run itself failed, in which case no result line is printed).
Workloads, metrics and checks are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_un_min", "fig9_sweep", "h4_adv_par_vct")
# Not a benchmark workload: perfbench/selftest.py uses it to prove that a
# deadlocking job fails the run.
SELFTEST_WORKLOADS = ("selftest_deadlock",)
RUN_TIMEOUT_S = 170
# Inputs that decide what the benchmark measures, hashed when the checkout
# carries no git metadata.
STAMPED_TREES = ("src", "perfbench", "examples/suites", "tests/golden")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("FLEXNET_")}


def build(bdir, env):
    """Configures (once) and builds flexbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "flexbench")


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for tree in STAMPED_TREES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, tree)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def stamp(record, env):
    inner = record.pop("stamp", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "host": platform.node(),
        "nproc": nproc,
        "compiler": "g++ " + inner.get("compiler", "unknown"),
        "build_type": inner.get("build_type", "unknown"),
        "commit": commit_id(),
        "cleared_env": sorted(set(os.environ) - set(env)),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + SELFTEST_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--expect-report", default="",
                        help="expected fig9_sweep report (self-tests)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    env = clean_env()
    bdir = build_dir()
    binary = build(bdir, env)
    if binary is None:
        return 1

    work = os.path.join(bdir, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--root", ROOT, "--work", work]
    if args.expect_report:
        cmd += ["--expect-report", os.path.abspath(args.expect_report)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("flexbench exited %d without a result" % proc.returncode)
        return 1
    record = json.loads(lines[-1])
    record["stamp"] = stamp(record, env)

    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%s.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)

    correct = bool(record["ok"]) and proc.returncode == 0
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps({"correct": correct,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
