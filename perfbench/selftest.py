#!/usr/bin/env python3
"""Self-test of the benchmark's own accounting.

usage: python3 perfbench/selftest.py

Runs the driver for its minimum number of samples and checks, from
its outputs alone:

1. In a traced run the spans nest (every child inside its parent,
   siblings disjoint), and the per-layer self times recomputed from
   the Chrome trace add up to the traced wall time and match the
   reported layer shares: nothing is counted twice or lost.
2. The rate metrics divide retired cycles, not requested ones.  On the
   uchar suite every program stops far below its cycle cap, so the
   two differ; the reported rates must equal the retired counts over
   the run-phase time.
3. Tracing changes no simulated statistic: a traced and an untraced
   run of one seed produce the same stats dump.

Exits 0 and prints "selftest: OK" when every check holds.
"""

import json
import math
import os
import sys
from collections import defaultdict

from run import BUILD, Failed, build, run_driver

# Timestamps are printed to the nanosecond: allow a few of those per
# comparison, in microseconds.
EPS_US = 0.005


def driver(exe, args):
    """Run the driver; return (per-sample record, result)."""
    lines = run_driver(exe, args).strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(cond, what):
    if not cond:
        raise Failed(what)


def check_trace(path, result):
    """Check 1: nesting, and self time adding up per layer."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    children = defaultdict(list)
    for e in events:
        if e["args"]["parent"] >= 0:
            children[e["args"]["parent"]].append(e)
    self_us = defaultdict(float)
    root_us = 0.0
    for e in events:
        kids = sorted(children[e["args"]["id"]], key=lambda k: k["ts"])
        end = e["ts"] + e["dur"]
        cursor = e["ts"]
        for k in kids:
            check(k["ts"] >= cursor - EPS_US,
                  f"span {k['name']} starts before its parent "
                  f"{e['name']} or overlaps a sibling")
            cursor = k["ts"] + k["dur"]
        check(cursor <= end + EPS_US,
              f"a child of {e['name']} ends after it")
        self_us[e["cat"]] += e["dur"] - sum(k["dur"] for k in kids)
        if e["args"]["parent"] < 0:
            root_us += e["dur"]
    covered = sum(self_us.values())
    check(abs(covered - root_us) <= EPS_US * len(events),
          f"layer self times cover {covered} us of {root_us} us")
    m = result["metrics"]
    check(math.isclose(m["bench.traced_wall_s"]["value"], root_us / 1e6,
                       rel_tol=1e-6),
          "bench.traced_wall_s is not the summed root spans")
    shares = 0.0
    for layer, us in self_us.items():
        share = m[f"{layer}.self_share"]["value"]
        check(abs(share - us / root_us) <= 1e-6,
              f"{layer}.self_share {share} != {us / root_us} from the "
              "trace")
        shares += share
    check(abs(shares - 1.0) <= 1e-6, f"layer shares sum to {shares}")


def check_rates(detail, result):
    """Check 2: rates are retired counts over run-phase time."""
    samples = detail["samples"]
    m = result["metrics"]
    for s in samples:
        check(0 < s["retired_cycles"] <= s["requested_cycles"],
              "retired cycles outside (0, requested]")
    for name, key, scale in (("sim_mcycles_per_s", "retired_cycles", 1e6),
                             ("sim_kips", "instructions", 1e3)):
        want = max(s[key] / s["run_s"] / scale for s in samples)
        got = m[name]["value"]
        check(math.isclose(got, want, rel_tol=1e-9),
              f"{name} {got} is not the best retired rate {want}")
    requested = max(s["requested_cycles"] / s["run_s"] / 1e6
                    for s in samples)
    return requested


def main():
    try:
        exe = build()
        trace = os.path.join(BUILD, "selftest-trace.json")
        short = ["--workload", "composite_short", "--seed", "3",
                 "--seconds", "0"]
        plain_detail, plain = driver(exe, short + ["--trace", "0"])
        traced_detail, traced = driver(
            exe, short + ["--trace", "1", "--trace-out", trace])
        for r in (plain, traced):
            check(r["correct"] and r["failed"] == 0,
                  "a composite run failed a correctness check")
        check_trace(trace, traced)
        check_rates(plain_detail, plain)
        check(plain_detail["dump_fnv1a"] == traced_detail["dump_fnv1a"],
              "tracing changed the simulated statistics")

        detail, uchar = driver(exe, [
            "--workload", "uchar_suite", "--seed", "0", "--seconds", "0",
            "--trace", "0"])
        check(uchar["correct"], "the uchar suite failed a check")
        requested = check_rates(detail, uchar)
        got = uchar["metrics"]["sim_mcycles_per_s"]["value"]
        check(requested > 10 * got,
              "uchar retired and requested cycles do not differ enough "
              "to tell the rates apart")
    except Failed as e:
        sys.exit(f"selftest: FAILED: {e}")
    print("selftest: OK")


if __name__ == "__main__":
    main()
