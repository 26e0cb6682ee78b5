"""Per-layer tracer: wraps public superforms callables from outside the package.

Each traced name is replaced, in every ``superforms.*`` namespace that holds
a reference to it, by a wrapper that counts calls, measures inclusive and self
time and records one span (name, start, end, parent, job) per call.  Spans are
kept in compact arrays and written only when the run ends.  A name that the
package does not define is reported as missing instead of failing the run.

Span times leave out the benchmark's own work: the clock passed in excludes
the speed sampler's reference loop, and the tracer excludes the time of its
observers (the code that computes the useful-work ratios), so ``self_s`` and
``incl_s`` are the package's time alone.
"""

import gzip
import importlib
import sys
from array import array

# (defining module, public name).  Only public names: private helpers get
# renamed by refactors, and a benchmark that wraps them silently measures
# nothing after the rename.
TRACED = (
    ("coeff_ring", "lp_mul"),
    ("coeff_ring", "lp_add"),
    ("coeff_ring", "lp_scale"),
    ("coeff_ring", "lp_partial"),
    ("form_algebra", "normalize"),
    ("form_algebra", "wedge"),
    ("form_algebra", "exterior_d"),
    ("form_algebra", "delta_expand"),
    ("atlas_morphism", "pullback"),
    ("cohomology", "Eliminator.insert"),
    ("cohomology", "flat_block_monomials"),
    ("cohomology", "cech_h0"),
    ("cohomology", "cech_h1"),
    ("cohomology", "pairing_matrix"),
    ("cohomology", "derham"),
    ("cli", "parse"),
    ("cli", "pretty_print"),
    ("berezin", "berezin_integral"),
)


def traced_key(module, name):
    return "%s.%s" % (module, name)


class Tracer:
    """Call counts, inclusive/self seconds and spans for the TRACED names.

    ``clock`` returns seconds; every span is timed with it, less the time
    spent in observers so far (``hidden``).  The tracer records only while ``active`` is true, so set-up and the
    benchmark's own correctness checks stay out of the counts.  An optional
    ``cProfile.Profile`` is switched on and off at the same points, which is
    what lets its ``ncalls`` be compared with ``calls`` exactly.
    """

    def __init__(self, clock, profiler=None):
        self.clock = clock
        self.hidden = 0.0
        self.active = False
        self.profiler = profiler
        self.keys = []
        self.calls = []
        self.incl = []
        self.self_s = []
        self.missing = []
        self.originals = {}  # key -> original function object
        self.extra = {
            "insert_nnz_in": 0,
            "insert_dependent": 0,
            "flat_nonempty": 0,
            "normalize_zero": 0,
            "pullback_delta_atoms": 0,
        }
        self.job = -1
        self._stack = []  # [span id, child seconds]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- recording switches -------------------------------------------------

    def resume(self):
        self.active = True
        if self.profiler is not None:
            self.profiler.enable()

    def pause(self):
        if self.profiler is not None:
            self.profiler.disable()
        self.active = False

    # -- installation -------------------------------------------------------

    def install(self):
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "superforms" or name.startswith("superforms."))
        ]
        for module, name in TRACED:
            key = traced_key(module, name)
            try:
                mod = importlib.import_module("superforms." + module)
            except ImportError:
                self.missing.append(key)
                continue
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(key)
                continue
            wrapper = self.span(self.register(key), original, _OBSERVERS.get(key))
            self.originals[key] = original
            if owner_name:
                # A method lives on its class, which every namespace shares.
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for ref, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, ref, wrapper)

    def register(self, key):
        """Index of a span name; names outside TRACED (the benchmark's own job
        spans) are recorded as spans but not reported as layer metrics."""
        if key in self.keys:
            return self.keys.index(key)
        self.keys.append(key)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_s.append(0.0)
        return len(self.keys) - 1

    def span(self, idx, fn, observe=None):
        """Wrap fn so that each active call is counted, timed and recorded."""
        clock = self.clock
        stack = self._stack
        calls, incl, self_s = self.calls, self.incl, self.self_s
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(tracer.job)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock() - tracer.hidden
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock() - tracer.hidden
                stack.pop()
                ends[sid] = end
                spent = end - start
                calls[idx] += 1
                incl[idx] += spent
                self_s[idx] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
            if observe is not None:
                t = clock()
                observe(tracer.extra, args, result)
                tracer.hidden += clock() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self, factor=1.0):
        """Per-name counts and times, the times multiplied by ``factor``
        (the speed factor that converts them to reference-speed seconds)."""
        out = {}
        for module, name in TRACED:
            key = traced_key(module, name)
            if key in self.missing:
                calls, incl, self_s = 0, 0.0, 0.0
            else:
                i = self.keys.index(key)
                calls, incl, self_s = self.calls[i], self.incl[i], self.self_s[i]
            out[key + ".calls"] = calls
            out[key + ".self_s"] = self_s * factor
            out[key + ".incl_s"] = incl * factor
        x = self.extra
        count = dict(zip(self.keys, self.calls))
        inserts = count.get("cohomology.Eliminator.insert", 0)
        blocks = count.get("cohomology.flat_block_monomials", 0)
        normals = count.get("form_algebra.normalize", 0)
        expands = count.get("form_algebra.delta_expand", 0)
        out["cohomology.Eliminator.insert.nnz_in"] = x["insert_nnz_in"]
        out["cohomology.Eliminator.insert.dependent_ratio"] = _ratio(x["insert_dependent"], inserts)
        out["cohomology.flat_block_monomials.nonempty_ratio"] = _ratio(x["flat_nonempty"], blocks)
        out["form_algebra.normalize.zero_ratio"] = _ratio(x["normalize_zero"], normals)
        out["atlas_morphism.pullback.delta_expand_per_delta_atom"] = _ratio(
            expands, x["pullback_delta_atoms"]
        )
        out["trace.missing"] = len(self.missing)
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path):
        """Spans as gzip CSV: id,parent,job,name,start_s,end_s (start relative
        to the first span)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,job,name,start_s,end_s\n")
            keys = self.keys
            for sid in range(len(self.span_start)):
                fh.write(
                    "%d,%d,%d,%s,%.9f,%.9f\n"
                    % (
                        sid,
                        self.span_parent[sid],
                        self.span_job[sid],
                        keys[self.span_name[sid]],
                        self.span_start[sid] - t0,
                        self.span_end[sid] - t0,
                    )
                )


def _ratio(num, den):
    return num / den if den else 0.0


# Observers compute the useful-work ratios from each call's arguments and
# result.  They run after the span closes, and the tracer leaves their time
# out of every enclosing span.


def _observe_insert(extra, args, result):
    vec = args[1]
    extra["insert_nnz_in"] += sum(1 for c in vec.values() if c)
    if result is not None:
        extra["insert_dependent"] += 1


def _observe_flat(extra, args, result):
    if result:
        extra["flat_nonempty"] += 1


def _observe_normalize(extra, args, result):
    if result.is_zero():
        extra["normalize_zero"] += 1


def _observe_pullback(extra, args, result):
    extra["pullback_delta_atoms"] += sum(len(mon.deltas) for mon in args[1].terms)


_OBSERVERS = {
    "cohomology.Eliminator.insert": _observe_insert,
    "cohomology.flat_block_monomials": _observe_flat,
    "form_algebra.normalize": _observe_normalize,
    "atlas_morphism.pullback": _observe_pullback,
}
