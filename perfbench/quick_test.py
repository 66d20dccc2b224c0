#!/usr/bin/env python3
"""The benchmark's own quick test.

    python3 perfbench/quick_test.py

Run from the repository root.  Runs all three workloads at reduced
sizes (run.py --quick), once untraced and once traced, and fails unless
every correctness gate passes with zero failed operations and every
workload emits every metric BENCHMARK.json names, with its unit, and
nothing else; end-to-end values must be positive.
"""

import json
import subprocess
import sys
import time


def run_all(trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--quick",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit("run.py --trace %d exited %d" % (trace, r.returncode))
    return json.loads(r.stdout.splitlines()[-1])


def check(summary, declared, label, positive):
    errors = []
    if not summary["correct"] or summary["failed"] != 0:
        errors.append("%s: correctness gate failed (%d of %d operations)"
                      % (label, summary["failed"], summary["attempted"]))
    for w, metrics in summary["workloads"].items():
        for name, unit in declared.items():
            m = metrics.get(name)
            if m is None:
                errors.append("%s: %s does not emit %s" % (label, w, name))
            elif m["unit"] != unit:
                errors.append("%s: %s on %s has unit %s, want %s"
                              % (label, name, w, m["unit"], unit))
            elif positive and not m["value"] > 0:
                errors.append("%s: %s on %s is %r, not positive"
                              % (label, name, w, m["value"]))
        for name in metrics:
            if name not in declared:
                errors.append("%s: %s emits undeclared %s" % (label, w, name))
    return errors


def main():
    spec = json.load(open("BENCHMARK.json"))
    t0 = time.monotonic()
    errors = check(run_all(0), {m["name"]: m["unit"] for m in spec["end_to_end"]},
                   "end-to-end", True)
    errors += check(run_all(1), {m["name"]: m["unit"] for m in spec["per_layer"]},
                    "per-layer", False)
    for e in errors:
        print(e)
    print("quick test: %s in %.1f s" % ("FAIL" if errors else "ok",
                                        time.monotonic() - t0))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
