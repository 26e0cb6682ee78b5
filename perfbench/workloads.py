"""Workload definitions: job lists built from a seed, pinned answers, checks.

A job is run through the public API only.  Each job carries a check that
returns the problems found in its result (an empty list means correct) and a
rendering of the result whose SHA-256 digest is compared with the pinned one
in pins.json.  Checks and renderings run outside the timed region.
"""

import hashlib
import json
import os
import random
from fractions import Fraction
from math import comb

DEFAULT_SEED = 1

# p11_cech: the paper's P^{1|1} tables as a cutoff sweep.  Chosen because it
# is the path where pullback (with the wedge and normalize calls inside it)
# takes about 72% of the job time and Eliminator.insert about 14% (cProfile
# of this job list), with one atlas reused so the per-Morphism atom cache is
# warm after the first jobs; only pairing_matrix builds its own atlas.
# exterior_d is minor here.
P11_CUTOFFS = (20, 40)
P11_SHEAVES = (
    ((0, 0),) + tuple((n, 0) for n in range(1, 6)) + tuple((-n, 1) for n in range(6)) + ((1, 1),)
)
P11_PAIR_NS = tuple(range(5))
P11_DERHAM = ((0, (0, 4)), (1, (-4, 1)))  # (picture, degree range)
VOLUME_CLASS = "g^-1*psi*dg*delta(dpsi)"

# flat_derham: exact de Rham on flat superspaces, picture 1, degrees 0..D.
# Chosen because flat-block assembly (exterior_d and normalize inside derham)
# is about 62% of the time, Eliminator.insert about 20% and the d o d block
# check about 8% (cProfile of this job list), with no pullback at all; the
# [-D, D]^n box scan wastes block visits and n = 3 amplifies that.  Cutoffs
# are kept small so that one job list takes a few seconds and several fit in
# a run.
FLAT_JOBS = (("flat:2,2", 1, 3), ("flat:1,3", 1, 2))  # (space, picture, cutoff D)

# algebra_mix: a stream of CLI-style one-shot operations on expression
# strings.  Chosen because it runs the same algebra layers as the cohomology
# workloads but with no Eliminator and no section bases, so a cache or
# accumulator change made for cohomology shows here if it costs the CLI path.
# Every pullback gets a freshly built P^{1|1} atlas, so its atom cache is
# cold, and pulls back delta^(k) with k <= 5 along a transition whose delta
# series terminates.
MIX_OPS = 4000
MIX_WEIGHTS = (("normalize", 25), ("wedge", 20), ("d", 25), ("pullback", 15), ("integrate", 15))
MIX_P11_PERCENT = 30  # share of non-pullback operations on the p11 chart, the rest on flat:2,2


PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins():
    with open(PINS) as fh:
        return json.load(fh)


def stream_digest(rendered):
    """One digest over every (job, rendering) pair, in run order."""
    return sha("".join("%s\t%s\n" % pair for pair in rendered))


def pin_problems(pins, workload, ident, text):
    """The P^{1|1} and flat job results do not depend on the seed, so each
    job's rendering is pinned by its own digest."""
    if workload == "algebra_mix":
        return []
    want = pins[workload].get(ident)
    if want is None:
        return ["no pinned digest"]
    return [] if sha(text) == want else ["result digest differs from the pinned one"]


def stream_problems(pins, workload, seed, rendered):
    """The algebra_mix inputs depend on the seed; the default seed's whole
    output stream is pinned."""
    pin = pins.get(workload, {}).get("stream")
    if workload != "algebra_mix" or seed != pins[workload]["seed"]:
        return []
    if stream_digest(rendered) != pin:
        return ["output stream digest differs from the pinned one"]
    return []


class Job:
    __slots__ = ("ident", "kind", "run", "check")

    def __init__(self, ident, kind, run, check):
        self.ident = ident
        self.kind = kind
        self.run = run  # () -> result
        self.check = check  # result -> (problems, rendering)


def build(workload, sf, seed):
    """Set-up for one workload: atlases and inputs.  Returns the job list."""
    builders = {"p11_cech": _p11_jobs, "flat_derham": _flat_jobs, "algebra_mix": _mix_jobs}
    if workload not in builders:
        raise ValueError("unknown workload %r" % workload)
    return builders[workload](sf, seed)


def params(workload):
    """The workload parameters recorded with every result."""
    if workload == "p11_cech":
        return {
            "cutoffs": list(P11_CUTOFFS),
            "sheaves": ["%d|%d" % s for s in P11_SHEAVES],
            "pair_n": list(P11_PAIR_NS),
            "derham": [[pic, list(rng)] for pic, rng in P11_DERHAM],
        }
    if workload == "flat_derham":
        return {"jobs": [list(j) for j in FLAT_JOBS]}
    return {"ops": MIX_OPS, "weights_percent": dict(MIX_WEIGHTS), "p11_percent": MIX_P11_PERCENT}


# ---------------------------------------------------------------------------
# p11_cech


def _p11_jobs(sf, seed):
    atlas = sf.builtin_p11()
    pp = sf.pretty_print
    jobs = []
    for cutoff in P11_CUTOFFS:
        for sheaf in P11_SHEAVES:
            jobs.append(
                Job(
                    "cech:%d|%d@%d" % (sheaf + (cutoff,)),
                    "cech",
                    lambda s=sheaf, c=cutoff: sf.cech(atlas, s, c),
                    lambda r, s=sheaf: _check_cech(r, s, pp),
                )
            )
        for n in P11_PAIR_NS:
            jobs.append(
                Job(
                    "pair:%d@%d" % (n, cutoff),
                    "pair",
                    lambda n=n, c=cutoff: sf.pairing_matrix(n, c),
                    lambda r, n=n: _check_pair(r, n),
                )
            )
        for picture, degrees in P11_DERHAM:
            jobs.append(
                Job(
                    "derham:p11:%d@%d" % (picture, cutoff),
                    "derham",
                    lambda p=picture, d=degrees, c=cutoff: sf.derham(atlas, p, d, c),
                    lambda r, p=picture, d=degrees: _check_p11_derham(r, p, d, pp),
                )
            )
    random.Random(seed).shuffle(jobs)
    return jobs


def _cech_expected(sheaf):
    i, j = sheaf
    if sheaf == (0, 0):
        return 1, 0
    if j == 0:
        return 0, 4 * i
    if sheaf == (1, 1):
        return 0, 1
    return 4 * -i + 4, 0


def _check_cech(report, sheaf, pp):
    problems = []
    want = _cech_expected(sheaf)
    if (report.h0, report.h1) != want:
        problems.append("(h0, h1) = %r, want %r" % ((report.h0, report.h1), want))
    if not report.stabilized:
        problems.append("not stabilized")
    h1_text = [pp(g) for g in report.generators_h1]
    if sheaf == (1, 1) and h1_text != [VOLUME_CLASS]:
        problems.append("H^1(1|1) generator %r" % h1_text)
    lines = ["h0=%r h1=%r stabilized=%r" % (report.h0, report.h1, report.stabilized)]
    for parts in report.generators_h0:
        lines.append("h0 " + " | ".join("%s: %s" % (c, pp(parts[c])) for c in sorted(parts)))
    lines += ["h1 " + t for t in h1_text]
    return problems, "\n".join(lines)


def _check_pair(result, n):
    matrix, rank = result
    size = 4 * n + 4
    problems = []
    if len(matrix) != size or any(len(row) != size for row in matrix):
        problems.append("pairing matrix is not %dx%d" % (size, size))
    if rank != size:
        problems.append("rank %r, want %d" % (rank, size))
    lines = ["rank=%r" % rank] + [" ".join(str(v) for v in row) for row in matrix]
    return problems, "\n".join(lines)


def _check_p11_derham(report, picture, degrees, pp):
    lo, hi = degrees
    dims = [report.dims.get((i, picture)) for i in range(lo, hi + 1)]
    want = [1 if i == 0 else 0 for i in range(lo, hi + 1)]
    problems = []
    if dims != want:
        problems.append("dims %r, want %r" % (dims, want))
    if not report.stabilized:
        problems.append("not stabilized")
    if picture == 1:
        gens = [{c: pp(f) for c, f in parts.items()} for parts in report.generators.get(0, [])]
        if gens != [{"U0": "psi*delta(dpsi)", "U1": "psi*delta(dpsi)"}]:
            problems.append("H^{0|1} generators %r" % gens)
    return problems, _render_derham(report, pp)


def _render_derham(report, pp):
    lines = ["stabilized=%r" % report.stabilized]
    lines += ["H^{%d|%d}=%d" % (k + (v,)) for k, v in sorted(report.dims.items())]
    for i in sorted(report.generators):
        for parts in report.generators[i]:
            lines.append("%d " % i + " | ".join("%s: %s" % (c, pp(parts[c])) for c in sorted(parts)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# flat_derham


def _flat_jobs(sf, seed):
    pp = sf.pretty_print
    jobs = []
    for space, picture, cutoff in FLAT_JOBS:
        m, n = (int(x) for x in space[len("flat:"):].split(","))
        atlas = sf.builtin_flat(m, n)
        jobs.append(
            Job(
                "derham:%s:%d@%d" % (space, picture, cutoff),
                "derham",
                lambda a=atlas, p=picture, c=cutoff: sf.derham(a, p, (0, c), c),
                lambda r, n=n, p=picture, c=cutoff: _check_flat(r, n, p, c, pp),
            )
        )
    random.Random(seed).shuffle(jobs)
    return jobs


def _check_flat(report, n, picture, cutoff, pp):
    dims = [report.dims.get((i, picture)) for i in range(cutoff + 1)]
    want = [comb(n, picture)] + [0] * cutoff
    problems = []
    if dims != want:
        problems.append("dims %r, want %r" % (dims, want))
    if not report.stabilized:
        problems.append("not stabilized")
    return problems, _render_derham(report, pp)


# ---------------------------------------------------------------------------
# algebra_mix

_COEFFS = ("1", "1", "2", "3", "1/2", "2/3", "5/4", "7")


def _head(order):
    return "delta" + ("'" * order if order <= 2 else "^(%d)" % order)


def _power(name, e):
    return name if e == 1 else "%s^%d" % (name, e)


def _join(rng, terms):
    out = ("-" if rng.random() < 0.3 else "") + terms[0]
    for t in terms[1:]:
        out += (" - " if rng.random() < 0.4 else " + ") + t
    return out


def _random_term(rng, evens, odds):
    """One term with its factors in a random order, so parsing has to sort
    them, collect signs and apply the dpsi/delta contraction."""
    coeff = [rng.choice(_COEFFS)]
    for g in evens:
        e = rng.randint(-2, 3)
        if e:
            coeff.append(_power(g, e))
    atoms = []
    for p in odds:
        if rng.random() < 0.45:
            atoms.append(p)
        r = rng.random()
        if r < 0.35:
            atoms.append("%s(d%s)" % (_head(rng.randint(0, 3)), p))
        if 0.2 < r < 0.5:
            atoms += ["d" + p] * rng.randint(1, 2)
    for g in evens:
        if rng.random() < 0.4:
            atoms.append("d" + g)
    rng.shuffle(atoms)
    return "*".join(coeff + atoms)


def _random_form(rng, evens, odds, terms):
    return _join(rng, [_random_term(rng, evens, odds) for _ in range(terms)])


def _pullback_form(rng):
    """A form on U1 of P^{1|1} whose terms each carry one delta^(k), k <= 5."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        parts = [rng.choice(_COEFFS)]
        e = rng.randint(-2, 3)
        if e:
            parts.append(_power("g", e))
        if rng.random() < 0.5:
            parts.append("psi")
        if rng.random() < 0.4:
            parts.append("dg")
        parts.append("%s(dpsi)" % _head(rng.randint(0, 5)))
        terms.append("*".join(parts))
    return _join(rng, terms)


def _top_form(rng, evens, odds):
    """A top integral form in canonical factor order, with its integral.

    A term contributes its coefficient exactly when it carries every theta
    and every even exponent is -1; the expected value is computed here from
    the generated terms, independently of the package."""
    block = ["d" + g for g in evens] + ["delta(d%s)" % p for p in odds]
    text = ""
    expected = Fraction(0)
    for t in range(rng.randint(1, 3)):
        exps = [rng.randint(-2, 1) for _ in evens]
        thetas = [p for p in odds if rng.random() < 0.8]
        coeff = Fraction(rng.choice(_COEFFS))
        negative = rng.random() < 0.3
        parts = [str(coeff)] + [_power(g, e) for g, e in zip(evens, exps) if e] + thetas + block
        text += ("-" if negative else "") if t == 0 else (" - " if negative else " + ")
        text += "*".join(parts)
        if len(thetas) == len(odds) and all(e == -1 for e in exps):
            expected += -coeff if negative else coeff
    return text, expected


def _mix_jobs(sf, seed):
    rng = random.Random(seed)
    flat = sf.builtin_flat(2, 2).chart("U0").table
    p11 = sf.builtin_p11().chart("U0").table
    charts = (
        (flat, ("g1", "g2"), ("psi1", "psi2")),
        (p11, ("g",), ("psi",)),
    )
    # Exact quotas of operation kinds and charts, in seeded order: the seed
    # changes the expressions and their order but not the mix, so seeds do
    # not differ in the amount of work by the luck of the draw.
    plan = []
    for kind, weight in MIX_WEIGHTS:
        count = MIX_OPS * weight // 100
        plan += [(kind, t < count * MIX_P11_PERCENT // 100) for t in range(count)]
    rng.shuffle(plan)
    jobs = []
    for t, (kind, on_p11) in enumerate(plan):
        table, evens, odds = charts[on_p11]
        if kind == "normalize":
            job = _op_normalize(sf, table, _random_form(rng, evens, odds, 2))
        elif kind == "wedge":
            a = _random_form(rng, evens, odds, 2)
            b = _random_form(rng, evens, odds, 2)
            job = _op_wedge(sf, table, a, b)
        elif kind == "d":
            job = _op_d(sf, table, _random_form(rng, evens, odds, 2))
        elif kind == "pullback":
            job = _op_pullback(sf, _pullback_form(rng))
        else:
            text, expected = _top_form(rng, evens, odds)
            job = _op_integrate(sf, table, text, expected)
        job.ident = "%d:%s" % (t, kind)
        jobs.append(job)
    return jobs


def _op_normalize(sf, table, text):
    def run():
        return sf.pretty_print(sf.parse(text, table, "U0"))

    def check(out):
        again = sf.pretty_print(sf.parse(out, table, "U0"))
        return ([] if again == out else ["normal form not idempotent: %r" % text]), out

    return Job(None, "normalize", run, check)


def _op_wedge(sf, table, a, b):
    def run():
        return sf.pretty_print(sf.wedge(sf.parse(a, table, "U0"), sf.parse(b, table, "U0")))

    return Job(None, "wedge", run, lambda out: ([], out))


def _op_d(sf, table, text):
    def run():
        da = sf.exterior_d(sf.parse(text, table, "U0"))
        return da, sf.pretty_print(da)

    def check(result):
        da, out = result
        ok = sf.exterior_d(da).is_zero()
        return ([] if ok else ["d(d(%s)) != 0" % text]), out

    return Job(None, "d", run, check)


def _op_pullback(sf, text):
    def run():
        atlas = sf.builtin_p11()
        form = sf.parse(text, atlas.chart("U1").table, "U1")
        pulled = sf.pullback(atlas.transition("U0", "U1"), form)
        return atlas, form, pulled, sf.pretty_print(pulled)

    def check(result):
        atlas, form, pulled, out = result
        back = sf.pullback(atlas.transition("U1", "U0"), pulled)
        return ([] if back == form else ["cocycle round trip fails on %r" % text]), out

    return Job(None, "pullback", run, check)


def _op_integrate(sf, table, text, expected):
    def run():
        form = sf.parse(text, table, "U0")
        reduced = sf.berezin_reduce(form)
        residue = sf.berezin_integral(form)
        reduced_text = sf.pretty_print(sf.Superform.from_poly("U0", table, reduced))
        return residue, "%s ; %s" % (reduced_text, residue)

    def check(result):
        residue, out = result
        ok = residue == expected
        return ([] if ok else ["integral of %r is %s, want %s" % (text, residue, expected)]), out

    return Job(None, "integrate", run, check)
