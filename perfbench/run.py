"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload {p11_cech,flat_derham,algebra_mix}
        --seed N --seconds S --trace {0,1}

The load comes from this single process, which starts one worker.py
interpreter at a time (closed loop, one client) and repeats the workload's
job list for about S seconds.  Every repetition is a fresh interpreter, so
caches start cold each time.

--trace 0 prints the end-to-end metrics: medians over the repetitions of the
run (each with quartiles and sample count in the summary lines and in the
result file).  --trace 1 spends half the run on untraced repetitions and then
makes one traced repetition, and prints the per-layer metrics, the job-kind
times and the tracing overhead.  The last line of standard output is the JSON
result; the full record, with the environment, goes to perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

WORKLOADS = ("p11_cech", "flat_derham", "algebra_mix")
SETUP_PROBES = 3  # extra set-up-only interpreters, so setup_s is a median of several
CHILD_TIMEOUT_S = 150
JOB_KINDS = ("cech", "pair", "derham")


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, *extra):
    """Run one worker interpreter to completion and return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--spawned", str(time.monotonic_ns())] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# The benchmark's one quantile rule, for the quartiles of a run's samples,
# the percentiles of its latencies and the spread of ten runs alike.
QUANTILE_RULE = "statistics.quantiles(values, n) (default exclusive method)"


def cut_points(values, n):
    """The n - 1 cut points dividing values into n groups (QUANTILE_RULE)."""
    if len(values) == 1:
        return [values[0]] * (n - 1)
    return statistics.quantiles(values, n=n)


def summary(values):
    """Median, quartiles and sample count."""
    q1, _, q3 = cut_points(values, 4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values, p):
    return cut_points(values, 100)[p - 1]


def git_commit():
    """The checkout's commit, or None outside a git work tree.  git is kept
    from looking above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def repeat(workload, seed, budget_s):
    """Untraced repetitions until the next one would end after budget_s."""
    reps = []
    durations = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(spawn(workload, seed))
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(durations) > budget_s:
            return reps


def end_to_end(reps, setups):
    return {
        "wall_s": (summary([r["wall_s"] for r in reps]), "s"),
        "setup_s": (summary(setups), "s"),
        "peak_rss_mib": (summary([r["maxrss_kib"] / 1024 for r in reps]), "MiB"),
    }


def per_layer(reps, traced, failed_ratio):
    # Every repetition runs the same jobs in the same order, so each job's
    # latency is the median of its repetitions before the percentiles are
    # taken across jobs: timing noise of one short operation then does not
    # move the tail percentile.
    latencies = [statistics.median(xs) for xs in zip(*(r["latencies_s"] for r in reps))]
    # Both sides at reference speed, so the speed drift between the
    # untraced repetitions and the traced one does not enter the difference.
    overhead = traced["wall_s"] - statistics.median(r["wall_s"] for r in reps)
    out = {
        "failed_ratio": failed_ratio,
        "op_p50_us": ({"median": percentile(latencies, 50) * 1e6, "n": len(latencies)}, "us"),
        "op_p99_us": ({"median": percentile(latencies, 99) * 1e6, "n": len(latencies)}, "us"),
        "trace_overhead_s": ({"median": overhead, "n": 1}, "s"),
    }
    for kind in JOB_KINDS:
        out[kind + "_s"] = (summary([r["kinds"].get(kind, 0.0) for r in reps]), "s")
    for key, value in traced["trace"].items():
        if key.endswith("_s"):
            unit = "s"
        elif key.endswith("_ratio") or key.endswith("_per_delta_atom"):
            unit = "ratio"
        else:
            unit = "count"
        out[key] = ({"median": value, "n": 1}, unit)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "superforms", "__init__.py")):
        print("run.py: no superforms package under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workloads.params(args.workload),
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    try:
        setups = [spawn(args.workload, args.seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        budget = args.seconds / 2 if args.trace else args.seconds
        reps = repeat(args.workload, args.seed, budget)
        traced = None
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, "spans-%s-seed%d.csv.gz" % (args.workload, args.seed))
            traced = spawn(args.workload, args.seed, "--trace", "--spans", spans)
            record["spans"] = os.path.relpath(spans, ROOT)
            record["missing"] = traced["missing"]
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    record["loadavg_end"] = os.getloadavg()

    setups += [r["setup_s"] for r in reps]
    workers = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    failures = [f for r in workers for f in r["failures"]]
    if args.trace:
        ratio = ({"median": failed / attempted, "n": attempted}, "ratio")
        metrics = per_layer(reps, traced, ratio)
    else:
        metrics = end_to_end(reps, setups)
    record.update(
        repetitions=len(reps),
        attempted=attempted,
        failed=failed,
        failures=failures[:20],
        metrics={k: dict(v, unit=u) for k, (v, u) in metrics.items()},
        samples={
            "wall_s": [r["wall_s"] for r in reps],
            "wall_raw_s": [r["wall_raw_s"] for r in reps],
            "speed_factor": [r["speed_factor"] for r in reps],
            "setup_s": setups,
        },
    )
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(
        "workload %s seed %d: %d repetitions, python %s, commit %s, nproc %s, loadavg %.2f -> %.2f"
        % (args.workload, args.seed, len(reps), record["python"], record["commit"],
           record["nproc"], record["loadavg_start"][0], record["loadavg_end"][0])
    )
    for name, (stat, unit) in metrics.items():
        quart = " (q1 %.6g, q3 %.6g)" % (stat["q1"], stat["q3"]) if "q1" in stat else ""
        print("  %-58s %14.6g %-5s n=%d%s" % (name, stat["median"], unit, stat["n"], quart))
    print(
        "  unadjusted wall_s median %.6g s at speed factor median %.4g (see speed.py)"
        % (statistics.median(record["samples"]["wall_raw_s"]),
           statistics.median(record["samples"]["speed_factor"]))
    )
    for failure in failures[:5]:
        print("  FAILED %s: %s" % (failure["job"], "; ".join(failure["problems"])))
    print("  full record: %s" % os.path.relpath(path, ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": stat["median"], "unit": u} for k, (stat, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
