#!/usr/bin/env python3
"""Same-host A/B of the benchmark: this checkout against a base commit.

    python3 tools/perf_ab.py [--base REF] [--workload NAME]... [--pairs N]
                             [--seconds S] [--work DIR]

It exports REF (default HEAD~1) with `git archive` and copies this
checkout as it stands (uncommitted edits included, ignored files not) as
the head, gives each side its own CARGO_TARGET_DIR, and runs N
interleaved pairs of the side's own `perfbench/run.py --trace 0` per
workload, alternating which side runs first so drift on the host hits
both. Run one A/B at a time: the two sides must not share the CPUs.

For each workload it prints the medians, quartiles and pairs won of
router_cycles_per_s. It exits 1 when a run of either side is not correct,
or when the head's median falls below the base's by more than the
interquartile range of the base's runs (the noise floor), and 2 when the
base cannot be exported.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_un_min", "fig9_sweep", "h4_adv_par_vct")
METRIC = "router_cycles_per_s"
# Simulated metrics: equal on both sides unless a change means to move them.
SIMULATED = ("max_accepted", "latency_p50_cyc", "latency_p99_cyc", "ok_frac")


def export(ref, dest):
    """Writes the tree of `ref` to `dest`; False when git cannot."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    return archive.wait() == 0 and untar.returncode == 0


def copy_checkout(dest):
    """Copies the checkout's tracked and unignored files, keeping mtimes so
    a kept build directory rebuilds only what changed."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], stdout=subprocess.PIPE, check=True).stdout
    for rel in listed.decode().split("\0"):
        src = os.path.join(ROOT, rel)
        if rel and os.path.isfile(src):  # a deleted file stays listed
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_side(root, target, workload, seconds):
    """One run.py run; returns its result line, or None when it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(workload, pairs, sides, seconds):
    """Runs the pairs of one workload; returns True when head passes."""
    values = {"base": [], "head": []}
    first = {}
    for i in range(pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            root, target = sides[side]
            result = run_side(root, target, workload, seconds)
            if result is None:
                print("%s: %s run %d is not correct" % (workload, side, i + 1))
                return False
            values[side].append(result["metrics"][METRIC]["value"])
            first.setdefault(side, result["metrics"])
        print("  pair %d/%d: base %.4g  head %.4g" %
              (i + 1, pairs, values["base"][-1], values["head"][-1]),
              flush=True)

    b1, base_median, b3 = quartiles(values["base"])
    h1, head_median, h3 = quartiles(values["head"])
    won = sum(h > b for b, h in zip(values["base"], values["head"]))
    floor = base_median - (b3 - b1)
    passed = head_median >= floor
    print("%s %s: base median %.4g [%.4g, %.4g]  head median %.4g "
          "[%.4g, %.4g]  ratio %.3f  head won %d/%d  -> %s" %
          (workload, METRIC, base_median, b1, b3, head_median, h1, h3,
           head_median / base_median, won, pairs,
           "pass" if passed else
           "FAIL (head median below base median - base IQR = %.4g)" % floor))
    moved = [m for m in SIMULATED
             if first["base"][m]["value"] != first["head"][m]["value"]]
    if moved:
        print("  note: simulated metrics differ between sides: " +
              ", ".join(moved))
    return passed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--work", default="",
                        help="keep the export and both builds here "
                             "(default: a temporary directory)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    work = os.path.abspath(args.work) if args.work else tempfile.mkdtemp(
        prefix="perf_ab-")
    # The source path is compiled in (__FILE__, FLEXNET_SOURCE_DIR), and
    # its length shifts code layout: an A/A run with the head in place and
    # the base in a longer path measured the head 5% slower in every pair.
    # Both sides therefore build from sibling paths of equal length.
    sides = {side: (os.path.join(work, side),
                    os.path.join(work, side + "-build"))
             for side in ("base", "head")}
    for root, _ in sides.values():
        shutil.rmtree(root, ignore_errors=True)
    try:
        if not export(args.base, sides["base"][0]):
            print("cannot export %s with git archive" % args.base)
            return 2
        copy_checkout(sides["head"][0])
        try:
            with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
                thp = f.read().strip()
        except OSError:
            thp = "unavailable"
        print("perf A/B: %s vs base %s, %d pairs x %gs, THP: %s" %
              (ROOT, args.base, args.pairs, args.seconds, thp), flush=True)
        results = [compare(w, args.pairs, sides, args.seconds)
                   for w in args.workload or WORKLOADS]
        return 0 if all(results) else 1
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
