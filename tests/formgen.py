"""Seeded random generators for forms, shared by the test modules, with the
scaled and twisted P^{1|1} gluings, the strict term dump and the
sparse-update oracle that several of them use.

Everything is driven by an explicit random.Random instance so that failures
reproduce from the printed seed.
"""

import random
from fractions import Fraction

from superforms import (
    Atlas,
    Chart,
    GeneratorTable,
    LaurentPoly,
    Monomial,
    Morphism,
    Superform,
    normalize,
)


def random_rational(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_poly(rng, variables, terms=2, max_exp=3, allow_negative=True):
    lo = -max_exp if allow_negative else 0
    data = {}
    for _ in range(terms):
        exps = tuple(rng.randint(lo, max_exp) for _ in variables)
        data[exps] = data.get(exps, Fraction(0)) + random_rational(rng)
    return LaurentPoly(variables, data)


def random_monomial(rng, table, max_order=3, max_power=2):
    """A normal-form monomial: no odd index carries both dpsi and a delta."""
    m = len(table.even_names)
    n = len(table.odd_names)
    thetas = tuple(j for j in range(n) if rng.random() < 0.4)
    devens = tuple(i for i in range(m) if rng.random() < 0.4)
    dodds = []
    deltas = []
    for j in range(n):
        r = rng.random()
        if r < 0.30:
            deltas.append((j, rng.randrange(max_order + 1)))
        elif r < 0.55:
            dodds.append((j, rng.randrange(1, max_power + 1)))
    return Monomial(thetas, devens, tuple(dodds), tuple(deltas))


def random_form(rng, chart, table, terms=3, max_order=3, max_power=2, **poly_kwargs):
    acc = Superform.zero(chart, table)
    for _ in range(terms):
        mon = random_monomial(rng, table, max_order=max_order, max_power=max_power)
        base = normalize(mon.factors(), 1, chart, table)
        acc = acc + base.times_poly(random_poly(rng, table.even_names, **poly_kwargs))
    return acc


def total_parity(mon):
    """Grassmann parity of a normal-form monomial."""
    odd = len(mon.thetas)
    odd += sum(p for _, p in mon.dodds)
    odd += sum(1 for _, k in mon.deltas if k % 2 == 0)
    return odd % 2


def form_degree(form):
    """Common form degree of a homogeneous form; None for zero."""
    degs = {mon.degree() for mon in form.terms}
    if not degs:
        return None
    if len(degs) != 1:
        raise ValueError("form is not homogeneous: %s" % sorted(degs))
    return degs.pop()


def scaled_atlas(b=2, c=1, k=-1):
    """P^{1|1} glued by y = b/x, s = c*x^k*t on charts A and B, the inverse
    being x = b/y, t = b^-k/c*y^k*s; the default is y = 2/x, s = t/x."""
    b, c = Fraction(b), Fraction(c)
    chart_a, chart_b = Chart("A", GeneratorTable(("x",), ("t",))), Chart("B", GeneratorTable(("y",), ("s",)))
    transitions = {
        ("A", "B"): Morphism(
            chart_a,
            chart_b,
            {0: LaurentPoly.monomial(("x",), (-1,), b)},
            {0: ((LaurentPoly.monomial(("x",), (k,), c), 0),)},
        ),
        ("B", "A"): Morphism(
            chart_b,
            chart_a,
            {0: LaurentPoly.monomial(("y",), (-1,), b)},
            {0: ((LaurentPoly.monomial(("y",), (k,), b**-k / c), 0),)},
        ),
    }
    return Atlas({"A": chart_a, "B": chart_b}, transitions)


def strict_map(m):
    """A sparse map's entries, with their order and types."""
    return [(k, type(v), v) for k, v in m.items()]


def strict_form(form):
    """A form's terms and coefficients, with their order and types."""
    return [
        (mon, [(exps, type(c), c) for exps, c in lp.terms.items()]) for mon, lp in form.terms.items()
    ]


def axpy_oracle(dst, pairs, factor):
    """The earlier `coeff_ring._axpy`, kept as the oracle of its unit
    shortcuts: every coefficient is multiplied by the factor and added to the
    entry, 0 for a new key."""
    for key, c in pairs:
        s = dst.get(key, 0) + c * factor
        if s:
            dst[key] = s
        else:
            dst.pop(key, None)
