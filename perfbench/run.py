#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload native|sweep-cold|serve-mixed|all \
        --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root.  Builds bin/lfc.exe and
perfbench/perfbench.exe with dune, runs the workload in a fresh process
with its own scratch directories under .perfbench_tmp/ (removed
afterwards) and prints the result JSON as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every workload reports the same metrics: --trace 0 the end-to-end ones,
--trace 1 the per-layer ones (and writes a Chrome trace to
.perfbench_out/).  The lines before the result hold the host report and
the workload's own breakdown.  --workload all runs the three workloads
one after another and prints one summary line.
Exits non-zero without a result when the sources are missing, the build
fails, the workload fails to finish, or its output is malformed.

The reference values the correctness gates keep (perfbench/expected.ml)
are regenerated with

    _build/default/perfbench/perfbench.exe --workload record-expected \
        --seed 0 --seconds 1 --trace 0 --lfc x --tmp .perfbench_tmp/r --out x
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["native", "sweep-cold", "serve-mixed"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
LFC = os.path.join("_build", "default", "bin", "lfc.exe")
TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def clean_env():
    # nothing may reach the repository's default store, queue or socket
    return {k: v for k, v in os.environ.items() if not k.startswith("LF_")}


def build():
    for need in ("dune-project", os.path.join("bin", "lfc.ml"), "lib"):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need, 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH", 2)
    # no shared dune cache: the build reads and writes only this checkout
    env = dict(clean_env(), DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ".", "./bin/lfc.exe", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed", 3)


def commit():
    # look for .git in the current directory only, never above it
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(".")))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10, env=env)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_one(workload, seed, seconds, trace, quick):
    """Run one workload process; return its parsed output lines."""
    tmp = os.path.join(".perfbench_tmp", "%s-%d" % (workload, os.getpid()))
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--lfc", LFC, "--tmp", tmp, "--out", ".perfbench_out",
            "--host-cores", str(len(os.sched_getaffinity(0))),
            "--commit", commit()]
    if quick:
        args.append("--quick")
    # its own session, so a timeout can stop the daemon and workers too
    p = subprocess.Popen(args, stdout=subprocess.PIPE, env=clean_env(),
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("%s did not finish within %d s" % (workload, TIMEOUT_S))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass
    if p.returncode != 0:
        fail("%s exited with %d" % (workload, p.returncode))
    lines = [json.loads(l) for l in out.decode().splitlines()
             if l.startswith("{")]
    if not lines or set(lines[-1]) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s printed no result line" % workload)
    result = lines[-1]
    for name, m in result["metrics"].items():
        v = m.get("value") if isinstance(m, dict) else None
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            fail("%s: metric %s has no finite value" % (workload, name))
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes (the benchmark's own self-test)")
    a = ap.parse_args()
    build()
    if a.workload != "all":
        info, result = run_one(a.workload, a.seed, a.seconds, a.trace, a.quick)
        for line in info:
            print(json.dumps(line))
        print(json.dumps(result))
        return
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for w in WORKLOADS:
        info, result = run_one(w, a.seed, a.seconds, a.trace, a.quick)
        for line in info + [result]:
            print(json.dumps({"workload": w, **line}))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][w] = result["metrics"]
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
