"""One repetition of a workload's job list in a fresh interpreter.

Started by run.py (or check_trace.py), never imported by it: a fresh
interpreter per repetition starts every module-level and per-Morphism cache
cold, as a command-line user finds them.  Prints one JSON object.

    python3 perfbench/worker.py --workload p11_cech --seed 1 --spawned <ns>
        [--setup-only] [--trace] [--profile FILE] [--spans FILE]
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import superforms from this checkout's src/, and only from there."""
    sys.path.insert(0, SRC)
    import superforms

    where = os.path.dirname(os.path.abspath(superforms.__file__))
    if where != os.path.join(SRC, "superforms"):
        raise ImportError("superforms imported from %s, not from %s" % (where, SRC))
    return superforms


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=int, required=True, help="time.monotonic_ns() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--profile", default=None, help="also run cProfile, dump stats here")
    ap.add_argument("--spans", default=None, help="write the trace spans here (gzip CSV)")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from speed import INTERVAL_S, SETUP_INTERVAL_S, SpeedSampler

    # The traced repetition is speed-adjusted too, so that its wall time can
    # be compared with the untraced ones; the tracer's clock is sampler.now,
    # which leaves the reference loop out of the spans.
    sampler = SpeedSampler()
    sampler.start(SETUP_INTERVAL_S)

    import workloads

    sf = import_package()
    jobs = workloads.build(args.workload, sf, args.seed)

    tracer = None
    if args.trace:
        from layertrace import Tracer

        profiler = None
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
        tracer = Tracer(sampler.now, profiler)
        tracer.install()
    setup_raw = (time.monotonic_ns() - args.spawned) / 1e9 - sampler.spent
    setup_samples = len(sampler.samples)
    setup_s = setup_raw * sampler.factor(0, setup_samples)
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    sampler.start(INTERVAL_S)

    clock = sampler.now
    pins = workloads.load_pins()
    latencies = []
    failures = []
    rendered = []
    for index, job in enumerate(jobs):
        run = job.run
        if tracer is not None:
            tracer.job = index
            run = tracer.span(tracer.register("job." + job.kind), run)
            tracer.resume()
        start = clock()
        try:
            result = run()
        except Exception as exc:  # a job that raises is a counted failure
            result = exc
        end = clock()
        if tracer is not None:
            tracer.pause()
        latencies.append(end - start)

        # Correctness gate, outside the timed region.  Checking each job
        # right away keeps no result alive into the next job, so the peak
        # RSS is the program's, not the benchmark's.
        if isinstance(result, Exception):
            problems, text = ["%s: %s" % (type(result).__name__, result)], ""
        else:
            try:
                problems, text = job.check(result)
            except Exception as exc:
                problems, text = ["check raised %s: %s" % (type(exc).__name__, exc)], ""
        del result
        problems += workloads.pin_problems(pins, args.workload, job.ident, text)
        rendered.append((job.ident, text))
        if problems:
            failures.append({"job": job.ident, "problems": problems})
    sampler.stop()
    problems = workloads.stream_problems(pins, args.workload, args.seed, rendered)
    if problems:
        failures.append({"job": "stream", "problems": problems})

    factor = sampler.factor(setup_samples)
    latencies = [x * factor for x in latencies]
    kinds = {}
    for job, x in zip(jobs, latencies):
        kinds[job.kind] = kinds.get(job.kind, 0.0) + x

    out = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "wall_raw_s": sum(latencies) / factor,
        "speed_factor": factor,
        "speed_samples": len(sampler.samples) - setup_samples,
        "kinds": kinds,
        "latencies_s": latencies,
        "attempted": len(jobs),
        "failed": min(len(failures), len(jobs)),
        "failures": failures[:10],
        "digests": {ident: workloads.sha(text) for ident, text in rendered},
        "stream_digest": workloads.stream_digest(rendered),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.metrics(factor)
        out["trace_calls"] = dict(zip(tracer.keys, tracer.calls))
        out["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
        if args.profile:
            tracer.profiler.dump_stats(args.profile)
            out["profiled"] = {
                key: [fn.__code__.co_filename, fn.__code__.co_firstlineno, fn.__code__.co_name]
                for key, fn in tracer.originals.items()
            }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
