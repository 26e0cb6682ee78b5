"""Exact rational arithmetic and multivariate Laurent polynomials.

The coefficient ring of every form in the package: finite maps from integer
exponent tuples (one slot per even coordinate) to exact rationals.  Negative
exponents are permitted; zero coefficients are never stored.  Exponents are
integers (`_exponents` rejects any other entry), `_axpy` is the one sparse
accumulation, and `LaurentPoly._of` takes only clean terms, unchecked.

Arithmetic that an identity decides is not made: `_axpy` multiplies by no
factor of 1 or -1, multiplies no coefficient of 1 or -1 into a Fraction
factor and adds no new key to 0, `lp_scale` negates for -1,
`lp_substitute_monomial` skips factors of 1, and `lp_partial` negates for an
exponent of -1 and builds Fraction(+-k) for a coefficient of +-1.  The identities x*1 = x,
x*(-1) = -x and 0 + x = x hold in Q, so every shortcut gives the same
Fraction the arithmetic would have made.
"""

from fractions import Fraction
from operator import add

from .errors import StructuralError, UnsupportedMorphismError


def _exponents(exps, n):
    """exps as a tuple of n ints; StructuralError, never a truncation, otherwise."""
    exps = tuple(exps)
    try:
        ints = tuple(map(int, exps))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != exps or len(exps) != n:
        raise StructuralError("exponent tuple %r is not a tuple of %d integers" % (exps, n))
    return ints


class LaurentPoly:
    """Laurent polynomial: {exponent tuple: nonzero Fraction} over named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        # Equal integral keys are one dict key, so converted keys never collide.
        self.variables = tuple(variables)
        self.terms = {}
        for exps, c in (terms or {}).items():
            exps = _exponents(exps, len(self.variables))
            c = Fraction(c)
            if c:
                self.terms[exps] = c

    @classmethod
    def _of(cls, variables, terms):
        """Wrap clean terms (int tuples of the right length, nonzero Fractions) as they are."""
        out = cls.__new__(cls)
        out.variables = variables
        out.terms = terms
        return out

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def const(cls, variables, value):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def monomial(cls, variables, exps, coeff=1):
        return cls(variables, {tuple(exps): coeff})

    def is_zero(self):
        return not self.terms

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def is_monomial(self):
        return len(self.terms) == 1

    def single_term(self):
        """The (exps, coeff) pair of a monomial; error otherwise."""
        if len(self.terms) != 1:
            raise StructuralError("not a single-term Laurent polynomial: %r" % self)
        return next(iter(self.terms.items()))

    def total_degree(self):
        """Max total exponent over terms, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def degree_in(self, index):
        """Max exponent of one variable, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(e[index] for e in self.terms)

    def items(self):
        return self.terms.items()

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __add__(self, other):
        return lp_add(self, other)

    def __sub__(self, other):
        return lp_add(self, lp_neg(other))

    def __mul__(self, other):
        return lp_mul(self, other)

    def __neg__(self):
        return lp_neg(self)

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for exps in sorted(self.terms):
            bits.append("%s*%s" % (self.terms[exps], exps))
        return "LaurentPoly(%s)" % " + ".join(bits)


def _check_same_variables(a, b):
    if a.variables != b.variables:
        raise StructuralError(
            "variable lists differ: %r vs %r" % (a.variables, b.variables)
        )


def _axpy(dst, pairs, factor):
    """dst += factor * pairs in place, for a sparse map dst {key: coefficient}
    and (key, coefficient) pairs such as `m.items()` or a generator.

    Entries that cancel are dropped and new keys are appended in pair order.
    A factor of 1 or -1 is found once per call and multiplies nothing: each
    coefficient is taken as c or -c and, for a new key, stored with no `0 +`.
    A coefficient of 1 or -1 times a Fraction factor is taken as factor or
    -factor.  This is exact, since x*1 = x, x*(-1) = -x and 0 + x = x hold in
    Q, and keeps the types of dst.get(key, 0) + c*factor as long as a
    Fraction factor of 1 or -1 comes with Fraction coefficients (every
    caller's do): an int c times Fraction(1) would be a Fraction.  So the
    coefficient shortcut is taken for a Fraction factor only: Fraction(1)
    times an int factor would be a Fraction, the factor an int.
    """
    sign = 1 if factor == 1 else -1 if factor == -1 else 0
    units = not sign and factor.__class__ is Fraction
    for key, c in pairs:
        if sign < 0:
            c = -c
        elif units and (c == 1 or c == -1):
            c = factor if c == 1 else -factor
        elif not sign:
            c = c * factor
        s = dst.get(key)
        if s is not None:
            c = s + c
        if c:
            dst[key] = c
        else:
            dst.pop(key, None)


def lp_add(a, b):
    """Termwise exact sum; zero terms pruned."""
    _check_same_variables(a, b)
    terms = dict(a.terms)
    _axpy(terms, b.terms.items(), 1)
    return LaurentPoly._of(a.variables, terms)


def lp_neg(a):
    return lp_scale(a, -1)


def lp_scale(a, scalar):
    """scalar * a; a itself when scalar is 1 (LaurentPolys are shared as values)
    and its negated terms when it is -1.  A Fraction scalar is used as it is,
    any other is converted once."""
    if scalar == 1:
        return a
    if scalar == -1:
        return LaurentPoly._of(a.variables, {e: -c for e, c in a.terms.items()})
    if not isinstance(scalar, Fraction):
        scalar = Fraction(scalar)
    terms = {e: scalar * c for e, c in a.terms.items()} if scalar else {}
    return LaurentPoly._of(a.variables, terms)


def lp_mul(a, b):
    """Exact convolution product; exponents add componentwise."""
    _check_same_variables(a, b)
    terms = {}
    for ea, ca in a.terms.items():
        _axpy(terms, ((tuple(map(add, ea, eb)), cb) for eb, cb in b.terms.items()), ca)
    return LaurentPoly._of(a.variables, terms)


def lp_substitute_monomial(p, images, out_variables=None):
    """Substitute each variable by a scalar Laurent monomial.

    images maps variable name -> (coeff, exponent tuple); the exponent tuple is
    written in out_variables (defaults to p.variables).  gamma -> c*out^E sends
    gamma^k to c^k * out^(k*E); exact, including negative k.
    """
    out_vars = tuple(out_variables) if out_variables is not None else p.variables
    table = []
    for name in p.variables:
        if name not in images:
            raise StructuralError("no image for variable %r" % name)
        c, exps = images[name]
        c = Fraction(c)
        exps = _exponents(exps, len(out_vars))
        if c == 0:
            raise UnsupportedMorphismError("variable image must be invertible, got 0")
        table.append((c if c != 1 else None, exps))
    terms = {}
    for exps, coeff in p.terms.items():
        out_exp = [0] * len(out_vars)
        for k, (ic, ie) in zip(exps, table):
            if ic is not None and k:
                coeff *= ic**k
            for slot, e in enumerate(ie):
                out_exp[slot] += k * e
        _axpy(terms, ((tuple(out_exp), coeff),), 1)
    return LaurentPoly._of(out_vars, terms)


def lp_partial(p, variable):
    """Formal derivative: gamma^k -> k*gamma^(k-1), exact for all integer k."""
    if isinstance(variable, str):
        if variable not in p.variables:
            raise StructuralError("unknown variable %r" % variable)
        idx = p.variables.index(variable)
    else:
        idx = variable
        if not 0 <= idx < len(p.variables):
            raise StructuralError("variable index %d out of range" % idx)
    terms = {}
    for exps, c in p.terms.items():
        k = exps[idx]
        if k:
            if k == -1:
                c = -c
            elif k != 1:
                c = Fraction(k) if c == 1 else Fraction(-k) if c == -1 else c * k
            terms[exps[:idx] + (k - 1,) + exps[idx + 1 :]] = c
    return LaurentPoly._of(p.variables, terms)
