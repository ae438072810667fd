#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py

Run it from the repository root (about two minutes). Each case runs
perfbench/run.py and asserts on its exit status and its last output line:

  * control: fig9_sweep at the default seed matches its golden report,
    so ok_frac is 1 and the exit status 0;
  * a perturbed expected report (one digit of the golden changed) drives
    ok_frac below 1 and the exit status non-zero;
  * a config that deadlocks at a fixed seed (sustained-saturation
    wormhole, perfbench/suites/selftest_deadlock.json) does the same;
  * two runs at one --seed reproduce every simulated metric exactly.

Exits 0 when every case passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden", "fig9_vc_selection.golden.json")
SIMULATED = ("max_accepted", "latency_p50_cyc", "latency_p99_cyc")


def run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1",
           "--trace", "0"] + list(args)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def ok_frac(result):
    return result["metrics"]["ok_frac"]["value"] if result else None


def perturbed_golden(path):
    with open(GOLDEN) as f:
        text = f.read()
    # Change the last digit of the first "accepted" value.
    match = re.search(r'"accepted": *-?[0-9.e+-]*([0-9])', text)
    if match is None:
        raise SystemExit("selftest: no accepted value in " + GOLDEN)
    digit = match.group(1)
    pos = match.start(1)
    text = text[:pos] + str((int(digit) + 1) % 10) + text[pos + 1:]
    with open(path, "w") as f:
        f.write(text)


def main():
    failures = []

    def expect(name, cond, detail):
        print("%-40s %s" % (name, "PASS" if cond else "FAIL: " + detail),
              flush=True)
        if not cond:
            failures.append(name)

    rc, res = run("--workload", "fig9_sweep", "--seed", "1")
    expect("fig9_golden_passes", rc == 0 and ok_frac(res) == 1,
           "exit %s, ok_frac %s" % (rc, ok_frac(res)))

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    scratch = os.path.join(os.path.abspath(target), "perfbench", "selftest")
    os.makedirs(scratch, exist_ok=True)
    bad = os.path.join(scratch, "perturbed_fig9_report.json")
    perturbed_golden(bad)
    rc, res = run("--workload", "fig9_sweep", "--seed", "1",
                  "--expect-report", bad)
    expect("perturbed_report_fails", rc != 0 and res is not None
           and ok_frac(res) < 1, "exit %s, ok_frac %s" % (rc, ok_frac(res)))

    rc, res = run("--workload", "selftest_deadlock", "--seed", "1")
    expect("deadlock_fails", rc != 0 and res is not None and ok_frac(res) < 1,
           "exit %s, ok_frac %s" % (rc, ok_frac(res)))

    first = run("--workload", "h4_adv_par_vct", "--seed", "7")
    second = run("--workload", "h4_adv_par_vct", "--seed", "7")
    same = all(r[0] == 0 for r in (first, second)) and all(
        first[1]["metrics"][m]["value"] == second[1]["metrics"][m]["value"]
        for m in SIMULATED)
    expect("same_seed_reproduces", same,
           "simulated metrics differ between two runs at --seed 7")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
