"""Graded algebra of integral forms.

Monomials are canonical products of generators theta_j, dgamma_i, (dpsi_j)^m
and delta^(k)(dpsi_j); coefficients are Laurent polynomials in the even
coordinates.  Transposition signs follow the Koszul rule with bidegree table

    theta: (deg 0, par 1)   dgamma: (1, 0)   dpsi: (1, 1)
    delta^(k): (deg -k, par (k+1) mod 2)

and the contraction relation dpsi_j * delta^(k)(dpsi_j) = -k * delta^(k-1)(dpsi_j)
is applied, in one step per odd index, until monomials are in normal form.  The
alternating delta parity is the unique choice making the contraction rule
commute with transpositions (and hence d o d = 0): each contraction consumes one
dpsi together with one delta order, so the crossing sign of dpsi against
delta^(k) cannot depend on k.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import perm
from typing import NamedTuple

from .coeff_ring import LaurentPoly, lp_add, lp_mul, lp_partial, lp_scale
from .errors import StructuralError, UnsupportedMorphismError

# Factor atom kinds, numbered in normal order.  An atom is (TH, j), (DG, i),
# (DP, j) or (DL, j, k), so atoms compare as plain tuples in normal order:
# thetas, dgammas, dpsis, deltas, each by index, deltas then by order.
TH, DG, DP, DL = 0, 1, 2, 3
_KIND_NAMES = ("th", "dg", "dp", "dl")


def theta(j):
    return (TH, j)


def dgamma(i):
    return (DG, i)


def dpsi(j):
    return (DP, j)


def delta(j, order=0):
    if order < 0:
        raise StructuralError("delta order must be non-negative, got %d" % order)
    return (DL, j, order)


def atom_degree(a):
    kind = a[0]
    if kind == TH:
        return 0
    if kind == DL:
        return -a[2]
    return 1


def atom_parity(a):
    # delta^(k) parity alternates with the order: d-coherence of the
    # contraction rule forces s(dpsi, delta^(k)) to be order-independent,
    # i.e. parity (-k, (k+1) mod 2); taking every delta odd breaks d o d = 0
    # on theta_1 theta_2 delta^(k)(dpsi_1) delta^(l)(dpsi_2) for k, l >= 1.
    if a[0] == DG:
        return 0
    if a[0] == DL:
        return (a[2] + 1) % 2
    return 1


def koszul_sign(a, b):
    """Sign s with a*b = s*b*a for single generator factors."""
    return -1 if (atom_degree(a) * atom_degree(b) + atom_parity(a) * atom_parity(b)) % 2 else 1


class Bidegree(NamedTuple):
    degree: int
    picture: int


@dataclass(frozen=True)
class GeneratorTable:
    """Ordered even and odd coordinate names of one chart."""

    even_names: tuple
    odd_names: tuple

    def __post_init__(self):
        object.__setattr__(self, "even_names", tuple(self.even_names))
        object.__setattr__(self, "odd_names", tuple(self.odd_names))
        names = self.even_names + self.odd_names
        if len(set(names)) != len(names):
            raise StructuralError("coordinate names must be unique: %r" % (names,))


@dataclass(frozen=True)
class Monomial:
    """Normal-form factor content of one term.

    thetas / devens: sorted index tuples (no repeats); dodds: ((j, power>0), ...);
    deltas: ((j, order>=0), ...).  dodds and deltas have disjoint index sets.
    """

    thetas: tuple = ()
    devens: tuple = ()
    dodds: tuple = ()
    deltas: tuple = ()

    def factors(self):
        out = [(TH, j) for j in self.thetas]
        out += [(DG, i) for i in self.devens]
        for j, power in self.dodds:
            out += [(DP, j)] * power
        out += [(DL, j, k) for j, k in self.deltas]
        return tuple(out)

    def degree(self):
        return (
            len(self.devens)
            + sum(p for _, p in self.dodds)
            - sum(k for _, k in self.deltas)
        )

    def picture(self):
        return len(self.deltas)

    def bidegree(self):
        return Bidegree(self.degree(), self.picture())

    def sort_key(self):
        # Listing order compares the highest-rank factors first, so that e.g.
        # delta(dpsi) precedes psi*dg*delta'(dpsi).
        return tuple(reversed(self.factors()))


UNIT_MONOMIAL = Monomial()


class Superform:
    """Finite map Monomial -> LaurentPoly on one chart."""

    __slots__ = ("chart", "table", "terms")

    def __init__(self, chart, table, terms=None):
        self.chart = chart
        self.table = table
        self.terms = {}
        _add_terms(self.terms, terms or {})

    @classmethod
    def zero(cls, chart, table):
        return cls(chart, table)

    @classmethod
    def constant(cls, chart, table, value):
        lp = LaurentPoly.const(table.even_names, value)
        return cls(chart, table, {UNIT_MONOMIAL: lp})

    @classmethod
    def from_poly(cls, chart, table, lp):
        return cls(chart, table, {UNIT_MONOMIAL: lp})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Superform)
            and self.chart == other.chart
            and self.table == other.table
            and self.terms == other.terms
        )

    def __add__(self, other):
        _check_same_chart(self, other)
        out = Superform(self.chart, self.table)
        out.terms = dict(self.terms)
        _add_terms(out.terms, other.terms)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = Superform(self.chart, self.table)
        out.terms = {m: lp_scale(lp, -1) for m, lp in self.terms.items()}
        return out

    def scale(self, scalar):
        scalar = Fraction(scalar)
        out = Superform(self.chart, self.table)
        if scalar:
            out.terms = {m: lp_scale(lp, scalar) for m, lp in self.terms.items()}
        return out

    def times_poly(self, lp):
        """Multiply by an even coefficient polynomial (central)."""
        out = Superform(self.chart, self.table)
        for mon, c in self.terms.items():
            p = lp_mul(c, lp)
            if not p.is_zero():
                out.terms[mon] = p
        return out

    def bidegree(self):
        """The common Bidegree of all terms, or None if inhomogeneous/zero."""
        degs = {m.bidegree() for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __repr__(self):
        if not self.terms:
            return "Superform(%s, 0)" % self.chart
        bits = []
        for mon in sorted(self.terms, key=Monomial.sort_key):
            named = tuple((_KIND_NAMES[a[0]],) + a[1:] for a in mon.factors())
            bits.append("%r:%r" % (named, self.terms[mon]))
        return "Superform(%s, %s)" % (self.chart, "; ".join(bits))


def _add_terms(terms, other):
    """Add the terms map `other` into `terms` in place, pruning zeros.

    Pass only the terms of a form the caller has just built.  New monomials
    are appended, so insertion order matches repeated `+`.
    """
    for mon, lp in other.items():
        if lp.is_zero():
            continue
        if mon in terms:
            s = lp_add(terms[mon], lp)
            if s.is_zero():
                del terms[mon]
            else:
                terms[mon] = s
        else:
            terms[mon] = lp


def _check_same_chart(a, b):
    if a.chart != b.chart or a.table != b.table:
        raise StructuralError("chart mismatch: %r vs %r" % (a.chart, b.chart))


def _validate_atoms(factors, table):
    n_even = len(table.even_names)
    n_odd = len(table.odd_names)
    for a in factors:
        kind = a[0]
        if kind not in (TH, DG, DP, DL):
            raise StructuralError("unknown factor atom %r" % (a,))
        idx = a[1]
        if kind == DG:
            if not 0 <= idx < n_even:
                raise StructuralError("even index %d out of range" % idx)
        else:
            if not 0 <= idx < n_odd:
                raise StructuralError("odd index %d out of range" % idx)
        if kind == DL and a[2] < 0:
            raise StructuralError("delta order must be non-negative")


def normalize(factors, coeff, chart, table):
    """Sort a raw factor sequence into normal form, collecting Koszul signs.

    Repeated odd-parity factors vanish; the contraction rule is applied once
    per odd index carrying both dpsi and a delta, so that dpsi and delta
    indices are disjoint.  Returns a (possibly zero) Superform.
    """
    if isinstance(coeff, LaurentPoly):
        if coeff.variables != table.even_names:
            raise StructuralError("coefficient variables do not match the chart table")
        lp = coeff
    else:
        lp = LaurentPoly.const(table.even_names, coeff)
    if lp.is_zero():
        return Superform.zero(chart, table)

    fs = list(factors)
    _validate_atoms(fs, table)
    sign = 1
    # Insertion sort with Koszul signs (stable: equal atoms never swap).
    for i in range(1, len(fs)):
        j = i
        while j > 0 and fs[j - 1] > fs[j]:
            sign *= koszul_sign(fs[j - 1], fs[j])
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1

    # Squares of odd-parity generators vanish; so do same-index double deltas.
    for t in range(1, len(fs)):
        a, b = fs[t - 1], fs[t]
        if a[0] == b[0] != DP and a[1] == b[1]:
            return Superform.zero(chart, table)

    # Contraction, once per odd index j: dpsi_j^a * delta^(b)(dpsi_j) =
    # (-1)^a * b!/(b-a)! * delta^(b-a)(dpsi_j), zero if a > b.  On its way to
    # delta_j each dpsi_j crosses the dpsis of larger index (sign +1) and the
    # deltas of smaller index (sign -1 whatever their order).  fs is sorted,
    # so powers and deltas come in index order.
    powers = {}
    for x in fs:
        if x[0] == DP:
            powers[x[1]] = powers.get(x[1], 0) + 1
    scalar = 1
    deltas = []
    for crossed, (_, j, order) in enumerate(x for x in fs if x[0] == DL):
        power = powers.pop(j, 0)
        if power > order:
            return Superform.zero(chart, table)
        scalar *= (-1) ** (power * (crossed + 1)) * perm(order, power)
        deltas.append((j, order - power))

    thetas = tuple(a[1] for a in fs if a[0] == TH)
    devens = tuple(a[1] for a in fs if a[0] == DG)
    mon = Monomial(thetas, devens, tuple(powers.items()), tuple(deltas))
    out = Superform(chart, table)
    out.terms[mon] = lp_scale(lp, scalar * sign)
    return out


def wedge(a, b):
    """Bilinear extension of monomial concatenation followed by normalize."""
    _check_same_chart(a, b)
    out = Superform.zero(a.chart, a.table)
    for ma, ca in a.terms.items():
        fa = ma.factors()
        for mb, cb in b.terms.items():
            c = lp_mul(ca, cb)
            if c.is_zero():
                continue
            _add_terms(out.terms, normalize(fa + mb.factors(), c, a.chart, a.table).terms)
    return out


def exterior_d(a):
    """Extended de Rham differential.

    d(f)*M expands through lp_partial; d acts on factors by the degree-graded
    Leibniz rule with d(theta_j) = dpsi_j and d(dgamma) = d(dpsi) = d(delta) = 0.
    """
    out = Superform.zero(a.chart, a.table)
    for mon, f in a.terms.items():
        factors = mon.factors()
        for i in range(len(a.table.even_names)):
            g = lp_partial(f, i)
            if not g.is_zero():
                _add_terms(out.terms, normalize(((DG, i),) + factors, g, a.chart, a.table).terms)
        prefix_degree = 0
        for t, atom in enumerate(factors):
            if atom[0] == TH:
                coeff = f if prefix_degree % 2 == 0 else lp_scale(f, -1)
                swapped = factors[:t] + ((DP, atom[1]),) + factors[t + 1 :]
                _add_terms(out.terms, normalize(swapped, coeff, a.chart, a.table).terms)
            prefix_degree += atom_degree(atom)
    return out


def bidegree_components(a):
    """Partition the terms of a Superform by Bidegree."""
    out = {}
    for mon, lp in a.terms.items():
        part = out.setdefault(mon.bidegree(), Superform.zero(a.chart, a.table))
        _add_terms(part.terms, {mon: lp})
    return out


def delta_expand(order, argument):
    """Series expansion of delta^(order) about its invertible dpsi term.

    argument = c*dpsi_target + rest with c an invertible Laurent monomial; the
    result is sum_m (rest^m / m!) c^{-(order+m+1)} delta^(order+m)(dpsi_target),
    normalized, over every m with rest^m != 0.  The series ends exactly when
    no term of rest is made of dpsi factors alone (a scalar counts as one).
    Every other term carries a theta, dgamma or delta factor, each of which
    squares to zero and is removed neither by normalize nor by a
    contraction, so rest^(m+2n+1) = 0 on an m|n chart.  The dpsi-only part
    lives in a commutative integral domain, so none of its powers is zero,
    and no other term of rest^N can cancel them: such a rest raises
    UnsupportedMorphismError before any term is added.
    """
    if order < 0:
        raise StructuralError("delta order must be non-negative")
    chart, table = argument.chart, argument.table

    target = None
    for mon, lp in argument.terms.items():
        if mon.thetas or mon.devens or mon.deltas:
            continue
        if len(mon.dodds) == 1 and mon.dodds[0][1] == 1 and lp.is_monomial():
            j = mon.dodds[0][0]
            if target is None or j < target[0]:
                target = (j, lp)
    if target is None:
        raise UnsupportedMorphismError(
            "delta argument has no invertible-monomial dpsi term to expand about"
        )
    j, c_lp = target
    c_exps, c_coeff = c_lp.single_term()

    dpsi_term = Superform(chart, table, {Monomial(dodds=((j, 1),)): c_lp})
    rest = argument - dpsi_term
    if any(not (mon.thetas or mon.devens or mon.deltas) for mon in rest.terms):
        raise UnsupportedMorphismError(
            "delta series does not terminate: a term of rest is made of dpsi "
            "factors alone, so no power of rest is zero"
        )

    out = Superform.zero(chart, table)
    rest_power = Superform.constant(chart, table, 1)
    m = 0
    m_factorial = 1
    while not rest_power.is_zero():
        power = -(order + m + 1)
        c_pow = LaurentPoly.monomial(
            table.even_names, tuple(power * e for e in c_exps), c_coeff ** power
        )
        delta_part = normalize(((DL, j, order + m),), c_pow, chart, table)
        _add_terms(out.terms, wedge(rest_power, delta_part).scale(Fraction(1, m_factorial)).terms)
        m += 1
        m_factorial *= m
        rest_power = wedge(rest_power, rest)
    return out


def pair(a, b):
    """Pairing Omega^{n+1|0} x Omega^{-n|1} -> Omega^{1|1}: the wedge product."""
    da = a.bidegree()
    db = b.bidegree()
    if da is None or db is None:
        raise StructuralError("pairing requires homogeneous forms")
    if da.picture != 0 or db.picture != 1 or da.degree < 1 or da.degree + db.degree != 1:
        raise StructuralError(
            "pairing requires bidegrees (n+1|0) and (-n|1), got %r and %r" % (da, db)
        )
    return wedge(a, b)
