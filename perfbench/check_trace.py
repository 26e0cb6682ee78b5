"""Check the per-layer tracer against cProfile and against itself.

For each workload this makes two traced repetitions with the same seed:

1. traced with cProfile switched on and off at the same points as the
   tracer; every traced name's ``calls`` must equal cProfile's ``ncalls``
   for the original function.  A namespace the wrapper missed shows up as
   cProfile counting more calls than the tracer.
2. traced alone; every count must repeat exactly.

    python3 perfbench/check_trace.py

It uses the default seed on every workload.

Exits with 1 on any mismatch.
"""

import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import OUT, WORKLOADS, spawn  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402


def check(workload, seed):
    os.makedirs(OUT, exist_ok=True)
    prof_path = os.path.join(OUT, "cprofile-%s-seed%d.prof" % (workload, seed))
    profiled = spawn(workload, seed, "--trace", "--profile", prof_path)
    again = spawn(workload, seed, "--trace")
    stats = pstats.Stats(prof_path).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    problems = []
    if profiled["failed"] or again["failed"]:
        problems.append("jobs failed in a traced repetition")
    if profiled["missing"]:
        problems.append("missing names: %s" % ", ".join(profiled["missing"]))
    print("%s (seed %d)" % (workload, seed))
    print("  %-40s %12s %12s %12s" % ("name", "traced", "cProfile", "repeat"))
    for key, code in sorted(profiled["profiled"].items()):
        traced = profiled["trace_calls"][key]
        entry = stats.get(tuple(code))
        ncalls = entry[1] if entry else 0
        repeat = again["trace_calls"][key]
        flag = "" if traced == ncalls == repeat else "  MISMATCH"
        print("  %-40s %12d %12d %12d%s" % (key, traced, ncalls, repeat, flag))
        if flag:
            problems.append("%s: traced %d, cProfile %d, repeat %d" % (key, traced, ncalls, repeat))
    for key, value in profiled["trace"].items():
        if not key.endswith("_s") and value != again["trace"][key]:
            problems.append("%s does not repeat: %r vs %r" % (key, value, again["trace"][key]))
    for p in problems:
        print("  FAIL " + p)
    return problems


def main():
    failed = False
    for workload in WORKLOADS:
        failed |= bool(check(workload, DEFAULT_SEED))
    print("trace check %s" % ("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
