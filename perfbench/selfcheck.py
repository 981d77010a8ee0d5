#!/usr/bin/env python3
"""Self-check of the benchmark at reduced scale.

    python3 perfbench/selfcheck.py

Runs every workload in BENCHMARK.json once untraced and once traced
with --scale tiny, and asserts that each run prints every metric
BENCHMARK.json names, with its unit, and passes its own output checks.
Then injects two faults and asserts that each one is counted in failed
(and clears correct) instead of passing as a number:
  corrupt_sam   a gpx_map job's SAM truncated to half its bytes
  md5_mismatch  one base of one record changed (record count intact)
Exits non-zero if any check fails. Takes about a minute on a 4-core
host once the build exists.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "4"


def run(workload, trace, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", SECONDS, "--trace",
           str(trace), "--scale", "tiny"]
    if inject:
        cmd += ["--inject", inject]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if res.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd[1:]), res.returncode,
                                           res.stderr[-2000:]))
    return json.loads(res.stdout.strip().splitlines()[-1]), res.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(cond, what):
        print("%s  %s" % ("ok  " if cond else "FAIL", what), flush=True)
        if not cond:
            failures.append(what)

    for w in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = run(w, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s --trace %d: metric names and units" %
                  (w, trace))
            check(all(m in text for m in want),
                  "%s --trace %d: every metric in the printed table" %
                  (w, trace))
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] > 0,
                  "%s --trace %d: outputs pass their checks" % (w, trace))

    for inject in ("corrupt_sam", "md5_mismatch"):
        result, text = run("map_clean", 0, inject)
        check(result["failed"] > 0 and not result["correct"],
              "--inject %s: counted as failed (%d of %d)" % (
                  inject, result["failed"], result["attempted"]))
        check("failed_frac" in text, "--inject %s: failed_frac printed" %
              inject)

    if failures:
        sys.exit("%d check(s) failed" % len(failures))
    print("all checks passed")


if __name__ == "__main__":
    main()
