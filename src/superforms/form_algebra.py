"""Graded algebra of integral forms.

Monomials are canonical products of generators theta_j, dgamma_i, (dpsi_j)^m
and delta^(k)(dpsi_j); coefficients are Laurent polynomials in the even
coordinates.  Transposition signs follow the Koszul rule with bidegree table

    theta: (deg 0, par 1)   dgamma: (1, 0)   dpsi: (1, 1)
    delta^(k): (deg -k, par (k+1) mod 2)

so a factor power a^p passes b^q with the sign koszul_sign(a, b)^(p*q) (dpsi_j^p
is one factor), read from one 3x3 table `_SIGN` on the classes (deg mod 2,
par) of the two atoms, and the contraction relation dpsi_j * delta^(k)(dpsi_j) =
-k * delta^(k-1)(dpsi_j) is applied, in one step per odd index, until monomials
are in normal form.  The alternating delta parity is the unique choice making
the contraction rule commute with transpositions (and hence d o d = 0): each
contraction consumes one dpsi together with one delta order, so the crossing
sign of dpsi against delta^(k) cannot depend on k.

A `Monomial` is its normal form, one tuple of (atom, power) pairs, built
once by `_normal_form` from its sorted run and read as it is by every layer.
`_normal_form` gives the monomial and an int scalar, or None for zero, before
any coefficient is touched: `wedge` multiplies the coefficients of a product
only when it survives, `exterior_d` takes no partial in gamma_i when dgamma_i
is already a factor, and the parser folds the scalar into the one Fraction
of its product.  `normalize` is the checked entry point for raw factor
lists: it takes only atoms of the chart's `GeneratorTable`.  `_add_normal`
adds a polynomial times a normal form to a terms map, and one-term forms (the
series terms of `delta_expand` among them) are built directly, not
normalized.

The record types (`GeneratorTable`, `Chart`, `Atlas` and the reports) are
plain `_Record` classes, so no dataclass machinery is imported: each has the
fields of its `_fields`, set by its `__init__`, compares them with a record
of its own class (itself first), prints them in its repr and keeps a
`__dict__`.  A `_FrozenRecord` refuses every assignment and deletion and
hashes as the tuple of its fields; any other record is unhashable.
"""

import re
from fractions import Fraction
from math import factorial, perm
from typing import NamedTuple

from .coeff_ring import LaurentPoly, lp_add, lp_mul, lp_partial, lp_scale
from .errors import StructuralError, UnsupportedMorphismError

# Factor atom kinds, numbered in normal order.  An atom is (TH, j), (DG, i),
# (DP, j) or (DL, j, k), so atoms compare as plain tuples in normal order:
# thetas, dgammas, dpsis, deltas, each by index, deltas then by order.
TH, DG, DP, DL = 0, 1, 2, 3
_KIND_NAMES = ("th", "dg", "dp", "dl")

# A coordinate name is one NAME token of the expression grammar.
_NAME_RE = re.compile(r"[A-Za-z]+\d*")


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


# The Koszul sign (-1)^(deg*deg' + par*par') depends on (deg mod 2, par) alone,
# which sorts the atoms into three classes: theta and even-order deltas
# (0, 1) are class 0, dgamma and odd-order deltas (1, 0) class 1, dpsi (1, 1)
# class 2.  An atom's class is its kind, or a delta's order mod 2.
_SIGN = ((-1, 1, -1), (1, -1, -1), (-1, -1, 1))


def koszul_sign(a, b):
    """Sign s with a*b = s*b*a for single generator factors."""
    return _SIGN[a[2] & 1 if a[0] == DL else a[0]][b[2] & 1 if b[0] == DL else b[0]]


class Bidegree(NamedTuple):
    degree: int
    picture: int


class _Record:
    """A mutable, unhashable record (see the module docstring)."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other is self:
            return True
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)


class _FrozenRecord(_Record):
    """An immutable record; its `__init__` fills `vars(self)`."""

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash(self._values())


class GeneratorTable(_FrozenRecord):
    """Ordered even and odd coordinate names of one chart.

    `_words` is the chart's one name table, read by the parser: each
    coordinate name and "d" + each name, mapped to the generator it stands
    for, an even coordinate's index or an atom; `_spell`, its inverse, is
    read by the printer.  Neither takes part in equality.  A name that is not
    a NAME token, two equal words or the word `delta` raise StructuralError:
    a form printed with them would not read back as itself.
    """

    _fields = ("even_names", "odd_names")

    def __init__(self, even_names, odd_names):
        even_names, odd_names = tuple(even_names), tuple(odd_names)
        words = {}
        for prefix, generator, names in (
            ("", int, even_names),
            ("", theta, odd_names),
            ("d", dgamma, even_names),
            ("d", dpsi, odd_names),
        ):
            for i, name in enumerate(names):
                word = prefix + name
                if word in words or word == "delta" or not _NAME_RE.fullmatch(word):
                    raise StructuralError(
                        "the word %r cannot be read back: coordinate names must match %s, and the"
                        " names, \"d\" + each name and delta must all differ" % (word, _NAME_RE.pattern)
                    )
                words[word] = generator(i)
        spell = {generator: word for word, generator in words.items()}
        vars(self).update(even_names=even_names, odd_names=odd_names, _words=words, _spell=spell)


class Monomial:
    """Normal-form factor content of one term: its (atom, power) pairs in
    normal order (dpsi_j^p one pair, every other power 1), one tuple with its
    hash computed once; `_of` wraps such a tuple unchecked, `powers` returns
    it.  The field constructor and read-only views, for library callers and
    tests: thetas / devens, sorted index tuples (no repeats); dodds ((j, int
    power>0), ...); deltas ((j, int order>=0), ...) on indices that dodds does
    not use, both sorted by j with no repeats.  Any other fields would give
    silently wrong forms (psi1*psi1 for thetas=(0, 0)) and raise StructuralError."""

    __slots__ = ("_pairs", "_hash")

    def __init__(self, thetas=(), devens=(), dodds=(), deltas=()):
        pairs = [((TH, j), 1) for j in thetas] + [((DG, i), 1) for i in devens]
        pairs = tuple(pairs + [((DP, j), p) for j, p in dodds] + [((DL, j, k), 1) for j, k in deltas])
        self._pairs, self._hash = pairs, hash(pairs)
        # A normal form is its own `_normal_form` image; the dpsi powers (>= 1)
        # and delta orders (>= 0), which `_normal_form` takes as given, are ints.
        counts = [p - 1 if a[0] == DP else a[2] for a, p in pairs if a[0] >= DP]
        if _normal_form(pairs) != (self, 1) or not all(isinstance(n, int) and n >= 0 for n in counts):
            raise StructuralError("%r is not in normal form" % self)

    @classmethod
    def _of(cls, pairs):
        """Wrap a tuple of (atom, power) pairs in normal order as it is."""
        mon = cls.__new__(cls)
        mon._pairs, mon._hash = pairs, hash(pairs)
        return mon

    thetas = property(lambda self: tuple(a[1] for a, _ in self._pairs if a[0] == TH))
    devens = property(lambda self: tuple(a[1] for a, _ in self._pairs if a[0] == DG))
    dodds = property(lambda self: tuple((a[1], p) for a, p in self._pairs if a[0] == DP))
    deltas = property(lambda self: tuple(a[1:] for a, _ in self._pairs if a[0] == DL))

    def __eq__(self, other):
        return self._pairs == other._pairs if other.__class__ is Monomial else NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = (self.thetas, self.devens, self.dodds, self.deltas)
        return "Monomial(thetas=%r, devens=%r, dodds=%r, deltas=%r)" % fields

    def powers(self):
        """The factors as (atom, power) pairs in normal order, dpsi_j^p as one."""
        return self._pairs

    def factors(self):
        return tuple(a for a, p in self._pairs for _ in range(p))

    def degree(self):
        return sum(-a[2] if a[0] == DL else p for a, p in self._pairs if a[0] != TH)

    def picture(self):
        return sum(a[0] == DL for a, _ in self._pairs)

    def bidegree(self):
        return Bidegree(self.degree(), self.picture())

    def sort_key(self):
        # Listing order compares the highest-rank factors first, so that e.g.
        # delta(dpsi) precedes psi*dg*delta'(dpsi); a run of p atoms a ends in a
        # lower factor, so (a, p) < (a, q) orders as the atoms spelled out.
        return self._pairs[::-1]


UNIT_MONOMIAL = Monomial._of(())


class Superform:
    """Finite map Monomial -> LaurentPoly on one chart."""

    __slots__ = ("chart", "table", "terms")

    def __init__(self, chart, table, terms=None):
        self.chart = chart
        self.table = table
        self.terms = {}
        _add_terms(self.terms, terms or {})

    @classmethod
    def _of(cls, chart, table, terms):
        """Wrap clean terms ({Monomial: non-zero LaurentPoly}, a dict no one
        else holds) as they are."""
        out = cls.__new__(cls)
        out.chart, out.table, out.terms = chart, table, terms
        return out

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
        return self.scale(-1)

    def scale(self, scalar):
        scalar = Fraction(scalar)
        out = Superform(self.chart, self.table)
        if scalar:
            out.terms = {m: lp_scale(lp, scalar) for m, lp in self.terms.items()}
        return out

    def times_poly(self, lp):
        """Multiply by an even coefficient polynomial (central)."""
        return Superform(self.chart, self.table, {m: lp_mul(c, lp) for m, c in self.terms.items()})

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


def _add_term(terms, mon, lp):
    """Add lp*mon to the terms map in place, pruning zeros.  A new monomial
    is appended, so insertion order matches repeated `+`."""
    if lp.terms:
        s = lp_add(terms[mon], lp) if mon in terms else lp
        if s.terms:
            terms[mon] = s
        else:
            del terms[mon]


def _add_terms(terms, other):
    """Add the terms map `other` into `terms` in place; pass only the terms
    of a form the caller has just built."""
    for mon, lp in other.items():
        _add_term(terms, mon, lp)


def _check_same_chart(a, b):
    if a.chart != b.chart or a.table != b.table:
        raise StructuralError("chart mismatch: %r vs %r" % (a.chart, b.chart))


def _validate_atoms(factors, table):
    """Raise StructuralError unless each factor is an atom of the chart: a
    generator tuple of `table._spell`, or (DL, j, k) with (DP, j) one of
    them and k an int >= 0."""
    spell = table._spell
    for a in factors:
        if not isinstance(a, tuple) or a not in spell and not (
            len(a) == 3 and a[0] == DL and (DP, a[1]) in spell and isinstance(a[2], int) and a[2] >= 0
        ):
            raise StructuralError("factor %r is not an atom of the chart" % (a,))


def normalize(factors, coeff, chart, table):
    """Sort a raw factor sequence into normal form, collecting Koszul signs.

    The checked entry point for factor lists from callers: a factor that is
    not an atom of the chart raises StructuralError.  Repeated odd-parity
    factors vanish; the contraction rule is applied once per odd index
    carrying both dpsi and a delta, so that dpsi and delta indices are
    disjoint.  Returns a (possibly zero) Superform.
    """
    if isinstance(coeff, LaurentPoly):
        if coeff.variables != table.even_names:
            raise StructuralError("coefficient variables do not match the chart table")
        lp = coeff
    else:
        lp = LaurentPoly.const(table.even_names, coeff)
    fs = list(factors)
    _validate_atoms(fs, table)
    out = Superform(chart, table)
    _add_normal(out.terms, [(a, 1) for a in fs], lp)
    return out


def _add_normal(terms, pairs, lp):
    """Add lp times the normal form of valid (atom, power >= 1) pairs to terms."""
    normal = _normal_form(pairs)
    if normal is not None:
        _add_term(terms, normal[0], lp_scale(lp, normal[1]))


def _normal_form(pairs):
    """The normal form of valid (atom, power >= 1) pairs as (Monomial, int
    scalar), or None for zero; no coefficient is touched, so a caller does
    its coefficient arithmetic only for a product that survives.  A stable
    insertion sort passes a^p over b^q with koszul_sign(a, b)^(p*q); dpsi_j
    powers add; any other atom with power >= 2 or a repeated index gives
    zero.  The sorted run becomes the monomial's tuple, input pairs reused."""
    fs = list(pairs)
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and fs[j - 1][0] > fs[j][0]:
            (a, p), (b, q) = fs[j - 1], fs[j]
            if p * q % 2:
                sign *= _SIGN[a[2] & 1 if a[0] == DL else a[0]][b[2] & 1 if b[0] == DL else b[0]]
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1

    # One pass over the sorted run: dpsi_j powers add; squares of the other
    # generators vanish, as do same-index deltas.  Contraction, once per odd
    # index j: dpsi_j^a * delta^(b)(dpsi_j) = (-1)^a * b!/(b-a)! *
    # delta^(b-a)(dpsi_j), zero if a > b.  On its way to delta_j each dpsi_j
    # crosses the dpsis of larger index (sign +1) and the deltas of smaller
    # index (sign -1 whatever their order); the dpsis come before the deltas.
    head, dpsis, deltas = [], {}, []
    scalar, last = 1, None
    for pair in fs:
        a, p = pair
        kind = a[0]
        if kind == DP:
            q = dpsis.get(a[1])
            dpsis[a[1]] = pair if q is None else (a, q[1] + p)
        elif p > 1 or last is not None and a[1] == last[1] and kind == last[0]:
            return
        elif kind == DL:
            q = dpsis.pop(a[1], None)
            if q is not None:
                power, order = q[1], a[2]
                if power > order:
                    return
                scalar *= (-1) ** (power * (len(deltas) + 1)) * perm(order, power)
                pair = ((DL, a[1], order - power), 1)
            deltas.append(pair)
        else:
            head.append(pair)
        last = a
    return Monomial._of((*head, *dpsis.values(), *deltas)), scalar * sign


def wedge(a, b):
    """Bilinear extension of the product of factor powers in normal form; the
    coefficients of a product are multiplied only when it does not vanish."""
    _check_same_chart(a, b)
    out = Superform.zero(a.chart, a.table)
    for ma, ca in a.terms.items():
        pa = ma.powers()
        for mb, cb in b.terms.items():
            normal = _normal_form(pa + mb.powers())
            if normal is not None:
                _add_term(out.terms, normal[0], lp_scale(lp_mul(ca, cb), normal[1]))
    return out


def exterior_d(a):
    """Extended de Rham differential.

    d(f)*M expands through lp_partial; d acts on factors by the degree-graded
    Leibniz rule with d(theta_j) = dpsi_j and d(dgamma) = d(dpsi) = d(delta) = 0.
    The thetas come first and have degree 0, so d(theta_j) takes no sign.  A
    term that has dgamma_i takes no partial in gamma_i: dgamma_i^2 = 0."""
    out = Superform.zero(a.chart, a.table)
    for mon, f in a.terms.items():
        pairs = mon.powers()
        for i in range(len(a.table.even_names)):
            if ((DG, i), 1) in pairs:
                continue
            g = lp_partial(f, i)
            if not g.is_zero():
                _add_normal(out.terms, (((DG, i), 1),) + pairs, g)
        # dpsi_j*delta(dpsi_j) contracts to zero: skip it before the sort.
        cut = {atom[1] for atom, _ in pairs if atom[0] == DL and not atom[2]}
        for t, (atom, _) in enumerate(pairs):
            if atom[0] != TH:
                break
            if atom[1] not in cut:
                _add_normal(out.terms, pairs[:t] + (((DP, atom[1]), 1),) + pairs[t + 1 :], f)
    return out


def bidegree_components(a):
    """Partition the terms of a Superform by Bidegree."""
    out = {}
    for mon, lp in a.terms.items():
        part = out.setdefault(mon.bidegree(), Superform.zero(a.chart, a.table))
        _add_term(part.terms, mon, lp)
    return out


def delta_expand(order, argument):
    """Series expansion of delta^(order) about its invertible dpsi term.

    argument = c*dpsi_j + rest with c an invertible Laurent monomial; the
    result is the sum over every m with rest^m != 0 of rest^m wedged with the
    one-term form {delta^(order+m)(dpsi_j): c^{-(order+m+1)}/m!}, which is
    built directly, not normalized.  c*dpsi_j must be the only term made of
    dpsi factors alone (`bare`; a scalar counts as one).  Every other term
    carries a theta, dgamma or delta factor, each of which squares to zero
    and is removed by no contraction, so rest^(m+2n+1) = 0 on an m|n chart.
    A second bare term lives in a commutative integral domain, so none of its
    powers is zero and no other term of rest^N can cancel them: such an
    argument raises UnsupportedMorphismError before any term is added.
    """
    if order < 0:
        raise StructuralError("delta order must be non-negative")
    chart, table = argument.chart, argument.table
    bare = [(mon, lp) for mon, lp in argument.terms.items() if all(a[0] == DP for a, _ in mon.powers())]
    if not any([p for _, p in mon.powers()] == [1] and lp.is_monomial() for mon, lp in bare):
        raise UnsupportedMorphismError(
            "delta argument has no invertible-monomial dpsi term to expand about"
        )
    if len(bare) > 1:
        raise UnsupportedMorphismError(
            "delta series does not terminate: a term of rest is made of dpsi "
            "factors alone, so no power of rest is zero"
        )
    [(head, c_lp)] = bare
    [((_, j), _)] = head.powers()
    c_exps, c_coeff = c_lp.single_term()
    rest = Superform(chart, table, {mon: lp for mon, lp in argument.terms.items() if mon != head})

    out = Superform.zero(chart, table)
    rest_power = Superform.constant(chart, table, 1)
    m = 0
    while not rest_power.is_zero():
        power = -(order + m + 1)
        c_pow = LaurentPoly.monomial(
            table.even_names, tuple(power * e for e in c_exps), c_coeff**power / factorial(m)
        )
        delta_part = Superform(chart, table, {Monomial._of((((DL, j, order + m), 1),)): c_pow})
        _add_terms(out.terms, wedge(rest_power, delta_part).terms)
        m += 1
        rest_power = wedge(rest_power, rest)
    return out


def _wedge_power(form, k, check=None, square_check=None):
    """form^k for k >= 0 by squaring, most significant bit first (so k <= 3
    wedges as k wedges from the left would), stopping at a zero power.
    check, if given, is called on each power on the way, and square_check on
    each power about to be squared; either may raise.  The square of a power
    of n terms has at most n*(n + 1)/2 terms, since x*y and y*x are one term
    up to sign, and takes n^2 term products to make.  The constants 1 and -1
    take their power as (+-1)^(k mod 2), with no wedge."""
    lp = form.terms.get(UNIT_MONOMIAL) if len(form.terms) == 1 else None
    if lp is not None and len(lp.terms) == 1 and abs(lp.terms.get((0,) * len(lp.variables), 0)) == 1:
        k %= 2
    if not k:
        return Superform.constant(form.chart, form.table, 1)
    out = form
    for bit in bin(k)[3:]:
        if out.is_zero():
            break
        if square_check:
            square_check(out)
        out = wedge(out, out)
        if bit == "1":
            out = wedge(out, form)
        if check:
            check(out)
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
