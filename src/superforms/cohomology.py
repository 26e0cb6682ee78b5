"""Cech and de Rham cohomology and exact linear algebra.

Every group is a kernel modulo an image over exact rationals, and every
matrix is eliminated once, by `_eliminate`: it inserts the columns into one
sparse row-reduced `Eliminator` and returns it with the kernel combinations.
The eliminator keeps its pivots in reduced row echelon form, so a column is
reduced in one ascending pass over the pivot rows it hits.  Sparse
combinations are accumulated by `coeff_ring._axpy`, and `_glue` alone turns a
combination of basis labels (chart id, Monomial, exponent tuple) into forms.

The Cech system of a sheaf on P^{1|1} is (s0, s1) |-> s0 - Phi*(s1) from the
sections of the two charts to those of the overlap; its kernel is H^0 and its
cokernel H^1.  The charts are taken in sorted order, the first carrying the
overlap.  Pullback is a ring map and the image of g is b*g^-1, so the system
needs one pullback per sheaf monomial M (at most four): Phi*(g'^e*M) is
Phi*(M) with every exponent lowered by e and every coefficient scaled by b^e.
The torus g -> lambda*g, psi -> mu*psi acts on both charts, and the system
is a direct sum of weight blocks, each with one overlap row and at most one
column per chart for every sheaf monomial of its second weight.
`_transition` checks this from the generator images, once per call and before
any sheaf is looked at: the image of g must be b*g^-1, and that of psi one
non-zero Laurent monomial times psi (a sum mixes weights, and psi -> 0 kills
every sheaf monomial with a theta).  The blocks do not depend on any cutoff,
and only the finitely many first weights of `_class_weights` can carry a
class (the monomial-by-monomial computation of Cech cohomology of O(d) on
P^1).  `_solve` lays the blocks out and eliminates each of them once, with
its columns in their global (chart, monomial, exponent) order, so the
kernels come out as from one eliminator for the whole system; the unit
vectors of the rows are inserted after the columns, and the rows they leave
unhit are the H^1 representatives.  `cech` is therefore exact at every
cutoff.  The pairing is block-diagonal by weight: it pairs only labels of
weight sum (0, 0), where H^1(Omega^{1|1}) is one row hit by no coboundary,
and reads each entry off the `_solve` labels as the coefficient of that row,
forming one product per pair of sheaf monomials.

P^{1|1} de Rham is the cohomology of the complex of global sections.  d
keeps the torus weight (dg scales like g, dpsi like psi), so that complex is
the direct sum of its weight summands, and every summand but (0, 0) is
acyclic.  The Euler fields g*d/dg and psi*d/dpsi are global: under g' = b/g,
psi' = c*g^k*psi they read -g'*d/dg' + k*psi'*d/dpsi' and psi'*d/dpsi'.
Their Lie derivatives multiply a form of weight (lambda, mu) by lambda and
by mu, and by Cartan's formula L_E = d*i_E + i_E*d, so i_E/lambda for
E = g*d/dg (or i_E/mu for E = psi*d/dpsi) is a contracting homotopy of a
summand with lambda != 0 (or mu != 0).  For psi*d/dpsi the contraction acts
on delta^(k)(dpsi), a distribution in dpsi (Witten, arXiv:1209.2199), by
raising its order: i_E delta^(k)(dpsi) = +-psi*delta^(k+1)(dpsi).  The
engine has no contraction, so the tests carry the argument: they split the
full complex by weight and find every other summand acyclic.  A global
section is fixed by its U0 part, since Phi* is injective, and a U0 label
g^e*M (e >= 0) has weight (0, 0) only if e = 0, M has no dgamma and its
second weight is 0.  Among the sheaf monomials only M = 1 (picture 0) and
M = psi*delta(dpsi) (picture 1) qualify, both of degree 0, so the (0, 0)
summand lies in degree 0, every differential of it is zero, and its
cohomology is its degree-0 part: theta_S*delta_S with |S| = picture on the
one odd coordinate, the class of flat:1,1 on both charts (Kunneth:
H_DR(P^{1|1}) = H(P^1) (x) H(C^{0|1}), which `cech_derham_check` tests).

Flat-space de Rham needs no elimination either: by a Kunneth argument (see
`_derham_classes`) its classes are the closed forms theta_S*delta_S with
|S| = p.  So `_derham_classes` writes the classes of both spaces on every
chart, and `derham` checks each closed on every chart and, on P^{1|1},
glued: Phi* of its U1 part is its U0 part.  g -> b/g, psi -> c*g^k*psi fix
1 and psi*delta(dpsi), so only a faulty pullback fails this check, which
stands for the gluing a Cech solve guarantees.  P^{1|1} answers do not
depend on the cutoff and are stabilized; a flat answer holds the classes
in the box |u_j| <= D, which misses one only at D = 0.  `derham` states
this box rule once: a flat report is unstabilized, and lists no class,
exactly when D = 0 and a picture p >= 1 has degree 0 in range.  `_solve`
computes the Cech solve of each (transition, sheaf) for `cech` and the
pairing once per process, as read-only labels; a `Morphism` compares by
its generator images, so fresh builds of one atlas share the entries.  A
negative cutoff is rejected by `cech`, `derham` and `pairing_matrix`;
`_transition` rejects any atlas that is not two 1|1 charts, since the
section bases are those of P^{1|1}.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .atlas_morphism import builtin_flat, builtin_p11, pullback
from .coeff_ring import LaurentPoly, _axpy
from .errors import (
    StructuralError,
    UnsupportedMorphismError,
    UnsupportedSpaceError,
)
from .form_algebra import DG, DL, TH, Monomial, Superform, exterior_d, pair


class Eliminator:
    """Incremental exact Gaussian elimination with combination tracking.

    Columns are sparse {row: Fraction} maps.  Pivot columns are kept fully
    reduced against each other (reduced row echelon form).  Dependent columns
    return the linear combination of previously inserted columns (by tag)
    that reproduces them.
    """

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, vec, combo):
        # Every pivot column is zero on every other pivot row, so subtracting
        # a pivot never creates an entry on a pivot row: one ascending pass.
        for r in sorted(vec.keys() & self.pivots.keys()):
            pvec, pcombo = self.pivots[r]
            factor = -vec[r]
            _axpy(vec, pvec.items(), factor)
            _axpy(combo, pcombo.items(), factor)

    def insert(self, vec, tag):
        """Insert one column.  Returns None if the rank grew, else the
        dependency combination {tag: coeff} with coefficient 1 on `tag`.
        Entries that are not Fractions are converted, so that dividing by
        the lead entry stays exact."""
        vec = {r: c if isinstance(c, Fraction) else Fraction(c) for r, c in vec.items() if c}
        combo = {tag: Fraction(1)}
        self._reduce(vec, combo)
        if not vec:
            return combo
        r = min(vec)
        lead = vec[r]
        vec = {row: c / lead for row, c in vec.items()}
        combo = {t: c / lead for t, c in combo.items()}
        for pvec, pcombo in self.pivots.values():
            if r in pvec:
                factor = -pvec[r]
                _axpy(pvec, vec.items(), factor)
                _axpy(pcombo, combo.items(), factor)
        self.pivots[r] = (vec, combo)
        return None


@dataclass
class CohomologyReport:
    space: str
    sheaf: tuple = None
    cutoff: int = 0
    h0: int = None
    h1: int = None
    generators_h0: list = field(default_factory=list)  # [{chart_id: Superform}]
    generators_h1: list = field(default_factory=list)  # [Superform on the overlap]
    dims: dict = None  # de Rham: {(i, picture): dim}
    generators: dict = None  # de Rham: {i: [{chart_id: Superform}]}
    stabilized: bool = True


def p11_sheaf_monomials(i, j):
    """Monomials spanning Omega^{i|j} fibers on a P^{1|1} chart, in listing
    order (`Monomial.sort_key`), built in that order.

    The key compares the top factor first: dpsi^b or delta^(k)(dpsi), then
    dg, then psi.  So dg*dpsi^(i-1) precedes dpsi^i, delta^(-i)(dpsi)
    precedes dg*delta^(1-i)(dpsi), and psi, the last factor compared, only
    lengthens the key: M precedes psi*M.
    """
    if j not in (0, 1):
        raise UnsupportedSpaceError("picture %d not supported on P^{1|1}" % j)
    out = []
    for e in (1, 0) if j == 0 else (0, 1):
        devens = (0,) if e else ()
        for thetas in ((), (0,)):
            if j == 0:
                b = i - e
                if b < 0:
                    continue
                dodds = ((0, b),) if b else ()
                out.append(Monomial(thetas, devens, dodds, ()))
            else:
                k = e - i
                if k < 0:
                    continue
                out.append(Monomial(thetas, devens, (), ((0, k),)))
    return out


def _eliminate(columns):
    """Insert the columns, tagged 0, 1, ..., into one Eliminator.

    Returns the eliminator and the kernel as combinations {column: coeff},
    one per dependent column, after the rank-nullity self-check.  A kernel is
    1 at its lead, its largest column and the dependent one, and is otherwise
    made of pivot columns, so a vector the kernels span has each kernel's
    coordinate as its entry at that kernel's lead.  `_solve` orders its
    kernels by lead, and the tests read global sections by their leads.
    """
    elim = Eliminator()
    kernels = []
    for t, col in enumerate(columns):
        combo = elim.insert(col, t)
        if combo is not None:
            kernels.append(combo)
    if elim.rank + len(kernels) != len(columns):
        raise StructuralError("rank-nullity self-check failed")
    return elim, kernels


def _weight(mon, e):
    """The torus weight of g^e*mon on a P^{1|1} chart: the powers of lambda
    and mu it picks up under g -> lambda*g, psi -> mu*psi (dg scales like g,
    dpsi like psi and delta^(k)(dpsi) like mu^-(k+1))."""
    pairs = mon.powers()
    return (
        e + sum(a[0] == DG for a, _ in pairs),
        sum(-a[2] - 1 if a[0] == DL else p for a, p in pairs if a[0] != DG),
    )


def _form_weight(form):
    """The torus weight of a form all of whose terms share one; a zero form
    or one that mixes weights raises UnsupportedMorphismError."""
    weights = {_weight(mon, exps[0]) for mon, lp in form.terms.items() for exps in lp.terms}
    if len(weights) != 1:
        raise UnsupportedMorphismError(
            "%r has the torus weights %s; the Cech system needs transitions that "
            "kill no sheaf monomial and preserve the torus weight of P^{1|1}"
            % (form, sorted(weights))
        )
    return weights.pop()


def _class_weights(lams):
    """The range (lo, hi) of first weights lambda whose blocks can carry a
    class, from the first weights lambda1(M) of the pulled sheaf monomials.

    Block lambda has one row g^(lambda - #dgamma(M))*M per sheaf monomial M,
    the U0 columns with exponent lambda - #dgamma(M) >= 0 and the U1 columns
    with exponent lambda1(M) - lambda >= 0.  For lambda >= 1 every U0 column
    is there, so above max(0, max lambda1) the U0 columns are the identity on
    the rows and there is no U1 column.  For lambda < 0 there is no U0
    column, so at and below min(-1, min lambda1) the U1 columns are all of
    them and are Phi* on the weight-lambda part of the overlap, an
    isomorphism.  Neither edge block carries a class.
    """
    return min(0, min(lams, default=0) + 1), max(0, max(lams, default=0))


def _transition(atlas):
    """The transition m01 from the first chart of a P^{1|1} atlas to the
    second, checked from its generator images before any sheaf is looked at:
    two 1|1 charts, m01 running between them in sorted order, g -> b*g^-1 and
    psi -> c*g^k*psi with c != 0.  Across such an m01 the Cech system of
    every sheaf is a direct sum of finite, complete torus-weight blocks."""
    # The section bases are those of P^{1|1}; on any other atlas they would
    # ignore coordinates and answer for the wrong space.
    shapes = [(len(c.table.even_names), len(c.table.odd_names)) for c in atlas.charts.values()]
    if shapes != [(1, 1), (1, 1)]:
        raise UnsupportedSpaceError(
            "Cech and P^{1|1} de Rham need two charts of dimension 1|1, got %d chart(s) of"
            " dimension %s" % (len(shapes), ", ".join("%d|%d" % shape for shape in shapes))
        )
    c0, c1 = sorted(atlas.charts)
    m01 = atlas.transition(c0, c1)
    # The solve labels its columns with the transition's own chart ids.
    if (m01.source.id, m01.target.id) != (c0, c1):
        raise StructuralError("the transition (%s, %s) joins other charts" % (c0, c1))
    # Only a = -1 makes every block finite and the blocks outside
    # `_class_weights` exact.
    (a,), _ = m01.even_images[0].single_term()
    if a != -1:
        raise UnsupportedMorphismError(
            "the Cech system of P^{1|1} needs the even transition b*g^-1, got b*g^%d" % a
        )
    # A sum of terms mixes torus weights and psi -> 0 kills a sheaf monomial;
    # both are checked here, since a sheaf without monomials would not show it.
    odd = m01.odd_image_form(0)
    theta = Monomial((0,))
    if list(odd.terms) != [theta] or not odd.terms[theta].is_monomial():
        raise UnsupportedMorphismError(
            "the Cech system of P^{1|1} needs the odd transition c*g^k*psi with c != 0, got %r"
            % (odd,)
        )
    return m01


def _cech_solve(atlas, sheaf):
    """Solve the Cech system (s0, s1) |-> s0 - Phi*(s1) of one sheaf, one
    complete torus-weight block at a time; see `_solve` for the result."""
    return _solve(_transition(atlas), tuple(sheaf))


# A cached solve grows linearly in |i|: about 15 KiB for -3|1, 0.5 MiB for -200|1.
@lru_cache(maxsize=256)
def _solve(m01, sheaf):
    """The Cech solve across the transition m01 from chart c0 to chart c1,
    once per process (a rejected transition raises, which is not cached).

    Returns read-only (dom, kernels, reps).  dom lists the column labels
    (chart id, Monomial, exponent tuple) of the blocks `_class_weights`
    admits, in (chart, monomial, exponent) order; H^0 comes as combinations
    {column: coeff}; the H^1 representatives as overlap (Monomial, exponent)
    pairs in monomial order.  A block has one row per sheaf monomial, keyed
    by its position in the sheaf's list, and the unit vectors of its rows
    are inserted after its columns.
    """
    mons = p11_sheaf_monomials(*sheaf)
    position = {mon: k for k, mon in enumerate(mons)}
    c0, c1 = m01.source.id, m01.target.id
    # Pullback is a ring map and the image of g is b*g^-1 (`_transition`), so
    # Phi*(g^e*M) is Phi*(M) shifted by -e and scaled by b^e.
    _, b = m01.even_images[0].single_term()
    one = LaurentPoly.const(m01.target.table.even_names, 1)
    pulled = {mon: pullback(m01, Superform(c1, m01.target.table, {mon: one})) for mon in mons}
    weights = {mon: _form_weight(pulled[mon]) for mon in mons}
    lo, hi = _class_weights([weights[mon][0] for mon in mons])
    # weight -> positions of its columns in dom, ascending; g^e*M has the
    # weight of M shifted by (e, 0), and g'^e*M on U1 that of Phi*(M) by -e.
    own = {mon: _weight(mon, 0) for mon in mons}
    blocks = {(lam, own[mon][1]): [] for lam in range(lo, hi + 1) for mon in mons}
    dom, columns = [], []
    for mon in mons:
        dg, mu = own[mon]
        for e in range(max(0, lo - dg), hi - dg + 1):
            blocks[e + dg, mu].append(len(dom))
            dom.append((c0, mon, (e,)))
            columns.append({position[mon]: Fraction(1)})
    for mon in mons:
        lam, mu = weights[mon]
        for e in range(max(0, lam - hi), lam - lo + 1):
            blocks[lam - e, mu].append(len(dom))
            dom.append((c1, mon, (e,)))
            columns.append(
                {position[m]: -(c * b**e) for m, lp in pulled[mon].terms.items() for c in lp.terms.values()}
            )

    kernels, reps = [], []
    for (lam, mu), ts in blocks.items():
        elim, block_kernels = _eliminate([columns[t] for t in ts])
        kernels += [{ts[j]: c for j, c in combo.items()} for combo in block_kernels]
        # The rows the columns leave unhit, in monomial order, are H^1.
        rows = [(k, lam - own[mon][0]) for k, mon in enumerate(mons) if own[mon][1] == mu]
        reps += [el for el in rows if elim.insert({el[0]: Fraction(1)}, el) is None]
    # Blocks share no column, so `_eliminate`'s lead convention holds across
    # them, and ordered by lead the kernels come out as from one eliminator.
    kernels.sort(key=max)
    reps = tuple((mons[k], e) for k, e in sorted(reps))
    return tuple(dom), tuple(MappingProxyType(k) for k in kernels), reps


def _glue(atlas, labels, combo):
    """The forms {chart id: Superform}, one per chart of the atlas, of a
    combination {t: coeff} of distinct basis labels (chart id, Monomial,
    exponent tuple); terms appear in the order of the combination."""
    terms = {cid: {} for cid in sorted(atlas.charts)}
    for t, c in combo.items():
        cid, mon, exps = labels[t]
        terms[cid].setdefault(mon, {})[exps] = c
    parts = {}
    for cid, by_mon in terms.items():
        table = atlas.chart(cid).table
        lps = {mon: LaurentPoly(table.even_names, coeffs) for mon, coeffs in by_mon.items()}
        parts[cid] = Superform(cid, table, lps)
    return parts


def cech(space, sheaf, cutoff):
    """Both Cech groups of one sheaf in a single report.  space is an Atlas or
    a label, as for derham.  The answer is exact and does not depend on the
    cutoff, which must be non-negative and is only recorded."""
    atlas, label = _resolve_space(space)
    if cutoff < 0:
        raise StructuralError("cutoff must be non-negative, got %d" % cutoff)
    dom, kernels, reps = _cech_solve(atlas, sheaf)
    c0 = min(atlas.charts)
    table = atlas.chart(c0).table
    return CohomologyReport(
        space=label,
        sheaf=sheaf,
        cutoff=cutoff,
        h0=len(kernels),
        h1=len(reps),
        generators_h0=[_glue(atlas, dom, combo) for combo in kernels],
        generators_h1=[
            Superform(c0, table, {mon: LaurentPoly.monomial(table.even_names, (e,))})
            for mon, e in reps
        ],
    )


# ---------------------------------------------------------------------------
# de Rham.  On P^{1|1} the torus weights leave the classes theta_S*delta_S
# (see the module docstring); on flat space a Kunneth argument does.
#
# The differential conserves E = (even-coordinate degree) + #dgamma and, for
# every odd index j, u_j = [theta_j present] + power(dpsi_j) - order(delta_j):
# d(theta_j) = dpsi_j trades the theta flag for a dpsi power, and a contraction
# dpsi_j * delta^(k)(dpsi_j) removes the power together with one delta order.
# Each block (E, u) is therefore a finite, complete complex.  d never adds or
# removes a delta factor, so it also keeps the carrier set T (the p odd
# indices carrying a delta), and each block is the direct sum of one summand
# per carrier set T.
#
# The summand (E, u, T) is the graded tensor product of one-coordinate
# complexes, and over Q a tensor product with an acyclic factor is acyclic:
#   - an even coordinate of weight w = exponent + [dg] >= 1: d maps g^w onto
#     w*g^(w-1)*dg, an isomorphism;
#   - psi_j not in T with u_j >= 1: d maps theta*dpsi^(u-1) onto dpsi^u;
#   - psi_j in T with u_j = -k <= 0: the contraction makes d an isomorphism
#     between theta*delta^(k+1) and delta^(k).
# A class therefore needs E = 0, u_j = 1 on T and u_j = 0 off T: u in {0, 1}^n
# with |u| = p and T = S = supp(u).  That summand is the one form
# theta_S*delta_S, in degree 0 and with d = 0, so `_derham_classes` writes
# down the class of each such S without eliminating anything (the tests
# eliminate the full blocks as the oracle).  From D = 1 on the box
# |u_j| <= D holds every u in {0, 1}^n; at D = 0 it holds only u = 0.
# `derham` states this box rule once.


def _derham_classes(atlas, picture, listed):
    """The classes theta_S*delta_S, one per set S of `picture` odd indices,
    in u order (u_0 most significant) if listed, else none, each written on
    every chart in sorted chart order with the chart's own constant 1; the
    picture is checked either way."""
    charts = [atlas.chart(cid) for cid in sorted(atlas.charts)]
    n = len(charts[0].table.odd_names)
    if not 0 <= picture <= n:
        space = "this flat space" if len(charts) == 1 else "P^{1|1}"
        raise UnsupportedSpaceError("picture %d not supported on %s" % (picture, space))
    # Reversed, the combinations come in u order.
    sets = reversed(list(combinations(range(n), picture))) if listed else ()
    # The 2n pairs, built once and shared by every class.
    thetas = [((TH, j), 1) for j in range(n)]
    deltas = [((DL, j, 0), 1) for j in range(n)]
    mons = [Monomial._of(tuple([thetas[j] for j in s] + [deltas[j] for j in s])) for s in sets]
    classes = [{} for _ in mons]
    for chart in charts:
        cid, table, one = chart.id, chart.table, LaurentPoly.const(chart.table.even_names, 1)
        for parts, mon in zip(classes, mons):
            parts[cid] = Superform(cid, table, {mon: one})
    return classes


def derham(space, picture, degree_range, cutoff):
    """de Rham cohomology H^{i|picture} for i in degree_range (inclusive).

    space is an Atlas (one chart: flat; otherwise it must be P^{1|1}, two
    charts of dimension 1|1) or one of the labels "p11" / "flat:m,n".  Every
    class lies in degree 0, so a range without it reports zeros.
    """
    lo, hi = degree_range
    if lo > hi:
        raise StructuralError("empty degree range %r" % (degree_range,))
    atlas, label = _resolve_space(space)
    # _transition rejects an atlas that is not two 1|1 charts, before
    # _derham_classes rejects the picture.
    if cutoff < 0:
        raise StructuralError("cutoff must be non-negative, got %d" % cutoff)
    in_range = lo <= 0 <= hi
    if len(atlas.charts) == 1:
        # The box rule: at D = 0 the box misses every class of a picture p >= 1.
        m01, stabilized = None, not (in_range and cutoff == 0 and picture >= 1)
        listed = in_range and stabilized
    else:
        m01, stabilized, listed = _transition(atlas), True, True
    classes = _derham_classes(atlas, picture, listed)
    # Closed on every chart and, across the transition, glued.
    if not all(exterior_d(form).is_zero() for parts in classes for form in parts.values()):
        raise StructuralError("de Rham class is not closed")
    if m01 and not all(
        pullback(m01, parts[m01.target.id]) == parts[m01.source.id] for parts in classes
    ):
        raise StructuralError("de Rham class is not glued across the transition")
    return CohomologyReport(
        space=label,
        cutoff=cutoff,
        dims={(i, picture): len(classes) if i == 0 else 0 for i in range(lo, hi + 1)},
        generators={i: classes if i == 0 else [] for i in range(lo, hi + 1)},
        stabilized=stabilized,
    )


def _resolve_space(space):
    """(atlas, label) of an Atlas, labelled "flat" when it has one chart and
    "p11" otherwise, or of one of the labels "p11" / "flat:m,n"."""
    if not isinstance(space, str):
        return space, "flat" if len(space.charts) == 1 else "p11"
    if space == "p11":
        return builtin_p11(), space
    if space.startswith("flat:"):
        try:
            m, n = (int(x) for x in space[len("flat:") :].split(","))
        except ValueError:
            raise UnsupportedSpaceError("bad flat space label %r" % space) from None
        return builtin_flat(m, n), space
    raise UnsupportedSpaceError("unknown space label %r" % space)


# ---------------------------------------------------------------------------
# Pairing and the Cech-de Rham consistency check


def pairing_matrix(n, cutoff):
    """Cohomological pairing H^1(Omega^{n+1|0}) x H^0(Omega^{-n|1}) -> Q.

    The H^1(Omega^{1|1}) generator psi*dg*delta(dpsi)/g has torus weight
    (0, 0), and a product of weights w1 and w2 has weight w1 + w2, so the
    matrix is block-diagonal by weight: a representative g^e1*M1 of weight w
    meets only the H^0 generators whose U0 part has weight -w, and every
    other entry is zero.  The weight-(0, 0) block of Omega^{1|1} is the
    generator's row alone, hit by no coboundary, so an entry is the
    product's coefficient on the generator.  Both factors are read off the
    `_solve` labels, with no form glued: the product of g^e1*M1 with a U0
    label g^e2*M2 is g^(e1+e2)*(M1*M2), and M1*M2 comes from one `pair` per
    pair of sheaf monomials (at most 16).  Returns (matrix rows, exact
    rank), the rank summed over the weight blocks; the cutoff must be
    non-negative and does not change the answer.
    """
    if n < 0:
        raise StructuralError("pairing index must be non-negative")
    if cutoff < 0:
        raise StructuralError("cutoff must be non-negative, got %d" % cutoff)
    m01 = _transition(builtin_p11())
    reps = _solve(m01, (n + 1, 0))[2]
    dom, kernels, _ = _solve(m01, (-n, 1))

    # The probe certifies that no column of Omega^{1|1} hits the generator's
    # row, the weight-(0, 0) block, so a product is read off by its coefficient.
    generator = (Monomial((0,), (0,), (), ((0, 0),)), -1)
    if _solve(m01, (1, 1))[2] != (generator,):
        raise StructuralError("the H^1(Omega^{1|1}) probe does not single out the generator")

    # The H^0 kernels by the torus weight of their U0 labels: {weight:
    # [(kernel position, [(M, e, coeff) for each U0 label g^e*M])]}.  A kernel
    # lies in one weight block and Phi* is injective, so its U0 labels share
    # one weight.
    c0 = m01.source.id
    by_weight = {}
    for t, combo in enumerate(kernels):
        part = [(dom[s][1], dom[s][2][0], c) for s, c in combo.items() if dom[s][0] == c0]
        weights = {_weight(mon, e) for mon, e, _ in part}
        if len(weights) != 1:
            raise StructuralError("H^0 generator %d has the U0 weights %s" % (t, sorted(weights)))
        by_weight.setdefault(weights.pop(), []).append((t, part))
    table = m01.source.table
    one = LaurentPoly.const(table.even_names, 1)
    products = {}  # (M1, M2) -> the terms (M, e, s) of M1*M2

    def unit_product(m1, m2):
        if (m1, m2) not in products:
            form = pair(Superform(c0, table, {m1: one}), Superform(c0, table, {m2: one}))
            products[m1, m2] = [(m, e, s) for m, lp in form.terms.items() for (e,), s in lp.terms.items()]
        return products[m1, m2]

    matrix, blocks = [], {}
    for m1, e1 in reps:
        lam, mu = _weight(m1, e1)
        entries = {}
        for t, part in by_weight.get((-lam, -mu), ()):
            coeffs = {}
            for m2, e2, c in part:
                _axpy(coeffs, (((m, e1 + e2 + e), s) for m, e, s in unit_product(m1, m2)), c)
            if not coeffs.keys() <= {generator}:
                raise StructuralError(
                    "pairing product of g^%d*%r and H^0 generator %d is no multiple of the "
                    "generator: %r" % (e1, m1, t, coeffs)
                )
            if coeffs:
                entries[t] = coeffs[generator]
        blocks.setdefault((lam, mu), []).append(entries)
        row = [Fraction(0)] * len(kernels)
        for t, c in entries.items():
            row[t] = c
        matrix.append(row)

    return matrix, sum(_eliminate(rows)[0].rank for rows in blocks.values())


@dataclass
class CechDeRhamReport:
    derham_dims: dict
    constant_sheaf_dims: dict
    base_dims: dict
    fiber_dim: int
    mismatches: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.mismatches


def cech_derham_check(cutoff):
    """Compare H_DR^{i|1}(P^{1|1}) with the Cech cohomology of the constant
    sheaf spanned by psi*delta(dpsi), and run the Kunneth consistency check."""
    atlas = builtin_p11()
    report = derham(atlas, 1, (0, 1), cutoff)
    dr = {i: report.dims[(i, 1)] for i in (0, 1)}

    # Constant sheaf on the two-chart cover: the generator is global, so the
    # coboundary matrix is (c0, c1) |-> c0 - c * c1 on the overlap span.
    table = atlas.chart("U1").table
    gen = Monomial((0,), (), (), ((0, 0),))
    one = LaurentPoly.const(table.even_names, 1)
    pulled = pullback(atlas.transition("U0", "U1"), Superform("U1", table, {gen: one}))
    # Only c*gen with c a non-zero constant (the one exponent (0,)) passes.
    if list(pulled.terms) != [gen] or list(pulled.terms[gen].terms) != [(0,)]:
        raise StructuralError("constant-sheaf generator is not preserved by the transition")
    # The matrix [1, -c] of a preserved generator has rank 1 for every c != 0.
    cech_dims = {0: 1, 1: 0}

    # Kunneth: base = theta-free picture-0 global complex of P^1; fiber = C^{0|1}.
    dom, kernels = _cech_solve(atlas, (0, 0))[:2]
    base_level0 = [
        parts
        for parts in (_glue(atlas, dom, combo) for combo in kernels)
        if all(a[0] == DG for form in parts.values() for m in form.terms for a, _ in m.powers())
    ]
    closed0 = [
        parts for parts in base_level0 if all(exterior_d(form).is_zero() for form in parts.values())
    ]
    base_dims = {0: len(closed0), 1: len(_cech_solve(atlas, (1, 0))[1])}

    fiber = derham(builtin_flat(0, 1), 1, (0, 0), max(4, cutoff // 2))
    fiber_dim = fiber.dims[(0, 1)]

    mismatches = []
    for i in (0, 1):
        if dr[i] != cech_dims[i]:
            mismatches.append(("constant-sheaf", i, dr[i], cech_dims[i]))
        expected = base_dims[i] * fiber_dim
        if dr[i] != expected:
            mismatches.append(("kunneth", i, dr[i], expected))
    return CechDeRhamReport(dr, cech_dims, base_dims, fiber_dim, mismatches)
