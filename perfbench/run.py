#!/usr/bin/env python3
"""Characterization benchmark of the upc780 simulator (see README.md).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles
the simulator from src/) into .bench_build at the repository root,
runs one workload, and relays the driver's output.  The last line of
stdout is the result; build output goes to stderr.  A traced run also
leaves its spans in .bench_build/trace-<workload>.json (Chrome
trace-event JSON; open it in Perfetto).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("composite_short", "composite_long", "uchar_suite")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


class Failed(Exception):
    """A build or driver step failed; the message says which."""


def run_child(cmd, timeout, capture=False):
    """Run cmd in its own process group and wait for it.  On timeout
    the whole group (make and its compilers too) is killed and reaped.
    Returns the child's stdout when capture is set."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failed(f"{os.path.basename(cmd[0])} timed out after {timeout} s")
    if proc.returncode != 0:
        raise Failed(f"{' '.join(cmd)} exited with {proc.returncode}")
    return out.decode() if capture else None


def build():
    """Configure once, then bring the driver up to date; returns its
    path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failed(f"simulator sources not found in {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_child(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_child(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
               "--target", "perfbench"], BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def run_driver(exe, args):
    """Run the driver with args from the repository root; returns its
    stdout."""
    return run_child([exe] + args, RUN_TIMEOUT_S, capture=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        exe = build()
        args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]
        if a.trace:
            args += ["--trace-out",
                     os.path.join(BUILD, f"trace-{a.workload}.json")]
        sys.stdout.write(run_driver(exe, args))
    except Failed as e:
        sys.exit(f"perfbench: {e}")


if __name__ == "__main__":
    main()
