"""Repeat the benchmark over several seeds and write BENCH_<label>.json.

    python3 perfbench/baseline.py --label 0

Runs run.py for run_seconds (from BENCHMARK.json) once per seed 1..10 on
each workload, one run at a time, then one traced run per workload.  For
every end-to-end metric it records the ten values, their median and
quartiles and the spread (q3 - q1) / median, with run.py's quantile rule,
and checks each spread against a third of the metric's bound in
BENCHMARK.json (setup_s is exempt, as its bound covers medians only).
Writes perfbench/BENCH_<label>.json and exits with 1 if a run was not
correct or a spread is not below a third of its bound.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import QUANTILE_RULE, WORKLOADS, git_commit, summary  # noqa: E402

RUNS = 10  # untraced runs per workload, seeds 1..RUNS; one traced run, seed 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    name = "result-%s-seed%d-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(HERE, "out", name)) as fh:
        record = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "label": args.label,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "quartile_rule": QUANTILE_RULE,
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed in range(1, RUNS + 1):
            result, record = run_once(workload, seed, seconds, 0)
            ok &= result["correct"]
            runs.append(record)
            print(
                "%s seed %d: %s" % (workload, seed, " ".join(
                    "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True,
            )
        entry = {"runs": runs, "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["median"] for r in runs]
            stat = summary(values)
            med = stat["median"]
            spread = (stat["q3"] - stat["q1"]) / med
            steady = name == "setup_s" or spread < bound / 3
            ok &= steady
            entry["end_to_end"][name] = {
                "values": values, "median": med, "q1": stat["q1"], "q3": stat["q3"],
                "spread": spread, "bound": bound, "steady": steady,
            }
            print("  %-14s median %.6g  spread %.4f  bound %.2f%s"
                  % (name, med, spread, bound, "" if steady else "  NOT STEADY"), flush=True)
        result, entry["traced"] = run_once(workload, 1, seconds, 1)
        ok &= result["correct"]
        out["workloads"][workload] = entry
    path = os.path.join(HERE, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s; %s" % (os.path.relpath(path, ROOT), "steady" if ok else "NOT steady or not correct"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
