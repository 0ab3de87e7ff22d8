#!/usr/bin/env python3
"""Build the VPP benchmark from source and run one workload.

    python3 vppbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is built with dune into
.bench_build/; outputs (trace files, the serve socket, sweep journals) go to
.bench_out/. The last line of stdout is the result as one JSON object.

setup_s is measured from here, from just before the benchmark process is
started until its first timed operation, so process start-up counts. Each
untraced run sets up SETUP_PROBES extra times and reports the median.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
SETUP_PROBES = 9
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("vppbench: %s\n" % msg)
    sys.exit(1)


def build():
    # No shared dune cache: the build reads and writes only this checkout.
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "./vppbench/vppbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        fail("build failed")
    return os.path.join(ROOT, BUILD_DIR, "default", "vppbench", "vppbench.exe")


def run(exe, args, timeout):
    """Run the benchmark process; return (report lines, result)."""
    t0 = time.time()
    p = subprocess.Popen([exe] + args + ["--t0", repr(t0), "--out-dir", OUT_DIR],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    finally:
        # The serve daemon runs in the same session: leave nothing behind.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
    lines = out.splitlines()
    if p.returncode != 0 or not lines:
        fail("benchmark process exited with %s" % p.returncode)
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        fail("no result line")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()
    exe = build()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    setups = []
    if a.trace == 0:
        for _ in range(SETUP_PROBES):
            _, r = run(exe, args + ["--setup-only"], 60)
            setups.append(r["metrics"]["setup_s"]["value"])
    report, result = run(exe, args, RUN_TIMEOUT_S)
    if a.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        report.append("setup_s samples: %s" % " ".join("%.6f" % s for s in setups))
    print("\n".join(report + [json.dumps(result)]), flush=True)


if __name__ == "__main__":
    main()
