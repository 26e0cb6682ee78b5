"""Exact rational arithmetic and multivariate Laurent polynomials.

The coefficient ring of every form in the package: finite maps from integer
exponent tuples (one slot per even coordinate) to exact rationals.  Negative
exponents are permitted; zero coefficients are never stored.
"""

from fractions import Fraction

from .errors import StructuralError, UnsupportedMorphismError


class LaurentPoly:
    """Laurent polynomial: {exponent tuple: nonzero Fraction} over named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.variables):
                raise StructuralError(
                    "exponent tuple %r does not match variables %r" % (exps, self.variables)
                )
            c = Fraction(c)
            if c:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def const(cls, variables, value):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def monomial(cls, variables, exps, coeff=1):
        out = cls(variables)
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(out.variables):
            raise StructuralError(
                "exponent tuple %r does not match variables %r" % (exps, out.variables)
            )
        coeff = Fraction(coeff)
        if coeff:
            out.terms[exps] = coeff
        return out

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


def _axpy(dst, src, factor):
    """dst += factor * src in place, for sparse maps {key: coefficient}.

    Entries that cancel are dropped and new keys are appended in src order.
    """
    for key, c in src.items():
        s = dst.get(key, 0) + c * factor
        if s:
            dst[key] = s
        else:
            dst.pop(key, None)


def lp_add(a, b):
    """Termwise exact sum; zero terms pruned."""
    _check_same_variables(a, b)
    terms = dict(a.terms)
    _axpy(terms, b.terms, 1)
    out = LaurentPoly(a.variables)
    out.terms = terms
    return out


def lp_neg(a):
    out = LaurentPoly(a.variables)
    out.terms = {e: -c for e, c in a.terms.items()}
    return out


def lp_scale(a, scalar):
    """scalar * a; a itself when scalar is 1 (LaurentPolys are shared as values)."""
    if scalar == 1:
        return a
    scalar = Fraction(scalar)
    out = LaurentPoly(a.variables)
    if scalar:
        out.terms = {e: scalar * c for e, c in a.terms.items()}
    return out


def lp_mul(a, b):
    """Exact convolution product; exponents add componentwise."""
    _check_same_variables(a, b)
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = terms.get(e, Fraction(0)) + ca * cb
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    out = LaurentPoly(a.variables)
    out.terms = terms
    return out


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
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(out_vars):
            raise StructuralError("image exponents %r do not fit %r" % (exps, out_vars))
        if c == 0:
            raise UnsupportedMorphismError("variable image must be invertible, got 0")
        table.append((c, exps))
    terms = {}
    for exps, coeff in p.terms.items():
        out_exp = [0] * len(out_vars)
        c = coeff
        for k, (ic, ie) in zip(exps, table):
            c *= ic ** k
            for slot, e in enumerate(ie):
                out_exp[slot] += k * e
        key = tuple(out_exp)
        s = terms.get(key, Fraction(0)) + c
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    out = LaurentPoly(out_vars)
    out.terms = terms
    return out


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
        if k == 0:
            continue
        e = list(exps)
        e[idx] = k - 1
        terms[tuple(e)] = c * k
    out = LaurentPoly(p.variables)
    out.terms = terms
    return out
