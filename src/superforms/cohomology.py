"""Cech and de Rham cohomology and exact linear algebra.

Every group is a kernel modulo an image over exact rationals, and every
matrix is eliminated once, by `_eliminate`: it inserts the columns into one
sparse row-reduced `Eliminator` and returns it with the kernel combinations.
The eliminator keeps its pivots in reduced row echelon form, so a column is
reduced in one ascending pass over the pivot rows it hits.  Sparse
combinations are accumulated by `coeff_ring._axpy`, and `_generators` alone
turns the kernels of the Cech solve into forms.

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
P^1).  A block is fixed by the (chart, monomial) of its columns up to
b^-lambda on its U1 columns, which its kernels carry on their U0
coefficients alone, and its columns change only at a few breakpoints of
the first weight.  So `_solve` eliminates and keeps one template per run
of equal blocks, whatever the range and b, and `_generators` writes every
generator and H^1 representative (a row the columns leave unhit) from the
templates, as one eliminator for the whole system would.  `cech` is
therefore exact at every cutoff.
The pairing reads each entry off those generators as the Berezin trace of
a product, its coefficient of theta*dg*delta(dpsi) at g^-1, which only
weight (0, 0) carries, so it pairs only generators of weight sum (0, 0),
reduces one product per pair of sheaf monomials and certifies itself perfect.

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
pairing once per process, as read-only templates whose size does not grow
with the degree, and `_pairing` the pairing of each (transition, n) once
per process, as read-only rows that `pairing_matrix` lays out afresh on
every call; a `Morphism` compares by its generator images, so fresh builds
of one atlas share the entries.  Both memos are typed, so a float never
reads the entry of its int, and each argument is checked once, before a
memo is read: a sheaf's pair shape by `cech`, its degree and picture by
`_check_sheaf`, a pairing index by `pairing_matrix`, a cutoff by
`_check_cutoff`, a degree range and a de Rham picture by `derham`, and an
atlas by `_transition`, which rejects any atlas that is not two 1|1
charts, since the section bases are those of P^{1|1}.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .atlas_morphism import builtin_flat, builtin_p11, pullback
from .berezin import berezin_reduce
from .coeff_ring import LaurentPoly, _axpy
from .errors import (
    StructuralError,
    UnsupportedMorphismError,
    UnsupportedSpaceError,
)
from .form_algebra import DG, DL, DP, TH, Monomial, Superform, _Record, exterior_d, pair

_ONE = Fraction(1)
_THETA = Monomial((0,))


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
        the lead entry stays exact; a lead of 1 divides nothing (x/1 = x)."""
        vec = {r: c if isinstance(c, Fraction) else Fraction(c) for r, c in vec.items() if c}
        combo = {tag: _ONE}
        self._reduce(vec, combo)
        if not vec:
            return combo
        r = min(vec)
        lead = vec[r]
        if lead != 1:
            vec = {row: c / lead for row, c in vec.items()}
            combo = {t: c / lead for t, c in combo.items()}
        for pvec, pcombo in self.pivots.values():
            if r in pvec:
                factor = -pvec[r]
                _axpy(pvec, vec.items(), factor)
                _axpy(pcombo, combo.items(), factor)
        self.pivots[r] = (vec, combo)
        return None


class CohomologyReport(_Record):
    _fields = ("space", "sheaf", "cutoff", "h0", "h1", "generators_h0", "generators_h1", "dims", "generators",
               "stabilized")

    def __init__(self, space, sheaf=None, cutoff=0, h0=None, h1=None, generators_h0=None, generators_h1=None,
                 dims=None, generators=None, stabilized=True):
        self.space, self.sheaf, self.cutoff, self.h0, self.h1 = space, sheaf, cutoff, h0, h1
        self.generators_h0 = [] if generators_h0 is None else generators_h0  # [{chart_id: Superform}]
        self.generators_h1 = [] if generators_h1 is None else generators_h1  # [Superform on the overlap]
        self.dims = dims  # de Rham: {(i, picture): dim}
        self.generators = generators  # de Rham: {i: [{chart_id: Superform}]}
        self.stabilized = stabilized


def _check_sheaf(i, j):
    """Refuse a picture that is not the int 0 or 1 (UnsupportedSpaceError) and
    a degree that is not an int, no dpsi power or delta order (StructuralError)."""
    if not isinstance(j, int) or j not in (0, 1):
        raise UnsupportedSpaceError("picture %r not supported on P^{1|1}" % (j,))
    if not isinstance(i, int):
        raise StructuralError("the degree of a sheaf must be an int, got %r" % (i,))


def p11_sheaf_monomials(i, j):
    """Monomials spanning Omega^{i|j} fibers on a P^{1|1} chart, in listing
    order (`Monomial.sort_key`), built in that order, once `_check_sheaf`
    has accepted the sheaf.

    The key compares the top factor first: dpsi^b or delta^(k)(dpsi), then
    dg, then psi.  So dg*dpsi^(i-1) precedes dpsi^i, delta^(-i)(dpsi)
    precedes dg*delta^(1-i)(dpsi), and psi, the last factor compared, only
    lengthens the key: M precedes psi*M.  Each monomial is built in normal
    order, psi, dg, then the top factor, and wrapped unchecked.
    """
    _check_sheaf(i, j)
    out = []
    for e in (1, 0) if j == 0 else (0, 1):
        devens = (((DG, 0), 1),) if e else ()
        for thetas in ((), (((TH, 0), 1),)):
            if j == 0:
                b = i - e
                if b < 0:
                    continue
                top = (((DP, 0), b),) if b else ()
            else:
                k = e - i
                if k < 0:
                    continue
                top = (((DL, 0, k), 1),)
            out.append(Monomial._of(thetas + devens + top))
    return out


def _eliminate(columns):
    """Insert the columns, tagged 0, 1, ..., into one Eliminator.

    Returns the eliminator and the kernel as combinations {column: coeff},
    one per dependent column, after the rank-nullity self-check.  A kernel is
    1 at its lead, its largest column and the dependent one, and is otherwise
    made of pivot columns, so a vector the kernels span has each kernel's
    coordinate as its entry at that kernel's lead.  `_generators` orders
    the H^0 generators by lead, and the tests read global sections by their
    leads.
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
    if list(odd.terms) != [_THETA] or not odd.terms[_THETA].is_monomial():
        raise UnsupportedMorphismError(
            "the Cech system of P^{1|1} needs the odd transition c*g^k*psi with c != 0, got %r"
            % (odd,)
        )
    return m01


# A cached solve holds 7 runs, about 4.5 KiB, for -2000|1 and -200000|1 alike: nothing grows with |i|.
@lru_cache(maxsize=256, typed=True)
def _solve(m01, degree, picture):
    """The Cech solve of Omega^{degree|picture} across the transition m01
    from chart c0 to chart c1, once per process, as block templates.  The
    memo is typed, so a float misses the entry of its int and
    `p11_sheaf_monomials` refuses it; a refused sheaf or transition raises,
    which is not cached.

    Block (lambda, mu) has a row per sheaf monomial M of second weight mu,
    keyed by its position, the U0 column g^(lambda - #dgamma(M))*M if
    lambda >= #dgamma(M) and the U1 column g'^(lambda1(M) - lambda)*M if
    lambda <= lambda1(M).  Phi*(g'^e*M) = b^e*g^-e*Phi*(M), so a U1 column
    is b^-lambda times the block-free b^lambda1(M)*(-Phi*(M)) and a U0
    column the unit vector of M's row.  As lambda grows U0 columns only
    enter and U1 columns only leave, so for each mu these breakpoints cut
    the range of `_class_weights` into runs of blocks with the same columns,
    each eliminated once on the block-free columns, the unit vectors of its
    rows inserted after them, and checked (its kernels combine them to
    zero, or StructuralError names the sheaf): 7 eliminations for -20|1
    and -200000|1 alike, whatever b is.  The U0 columns come first and are
    unit vectors on distinct rows, so every kernel's lead is a U1 column,
    and `_generators` multiplies only its U0 coefficients by b^-lambda.

    Returns read-only (columns, runs).  columns[n] = (chart id, M, e0) is
    block-free column n, the U0 column of mons[n] or the U1 column of
    mons[n - len(mons)], whose exponent in block lambda is e0 + lambda on U0
    and e0 - lambda on U1.  A run (mu, lo, hi, ids, kernels, unhit) of the
    blocks lo..hi, in the order of their first blocks, holds the ids of its
    columns, U0 before U1 and each in monomial order, its kernels as
    ((block index, Fraction), ...) in `_eliminate` order, and the positions
    of the rows it leaves unhit, which are the ids of their U0 columns.
    """
    mons = p11_sheaf_monomials(degree, picture)
    c0, c1 = m01.source.id, m01.target.id
    _, b = m01.even_images[0].single_term()
    one = LaurentPoly.const(m01.target.table.even_names, 1)
    pulled = {mon: pullback(m01, Superform(c1, m01.target.table, {mon: one})) for mon in mons}
    weights = {mon: _form_weight(pulled[mon]) for mon in mons}
    lo, hi = _class_weights([weights[mon][0] for mon in mons])
    # For each block-free column: its template, its vector, and the second
    # weight and first weights lambda of the blocks that hold it.
    columns, vectors, spans, rows = [], [], [], {}
    for k, mon in enumerate(mons):
        dg, mu = _weight(mon, 0)
        rows[mu] = rows.get(mu, ()) + (k,)
        columns.append((c0, mon, -dg))
        vectors.append({k: _ONE})
        spans.append((mu, dg, hi))
    for mon in mons:
        lam, mu = weights[mon]
        columns.append((c1, mon, lam))
        vectors.append({mons.index(m): -c * b**lam for m, lp in pulled[mon].terms.items() for c in lp.terms.values()})
        spans.append((mu, lo, lam))
    runs = []
    for order, mu in enumerate(rows):
        cuts = sorted({lo} | {x for m, a, z in spans if m == mu for x in (a, z + 1) if lo < x <= hi})
        for start, end in zip(cuts, cuts[1:] + [hi + 1]):
            ids = tuple(n for n, (m, a, z) in enumerate(spans) if m == mu and a <= start <= z)
            runs.append((start, order, mu, end - 1, ids))
    templates = []
    for start, _, mu, end, ids in sorted(runs):
        block = [vectors[n] for n in ids]
        elim, kernels = _eliminate(block)
        for combo in kernels:
            residual = {}
            for j, c in combo.items():
                _axpy(residual, block[j].items(), c)
            if residual:
                sheaf = "%d|%d" % (degree, picture)
                raise StructuralError("a Cech kernel of %s does not combine its columns to zero" % sheaf)
        unhit = tuple(k for k in rows[mu] if elim.insert({k: _ONE}, k) is None)
        templates.append((mu, start, end, ids, tuple(tuple(combo.items()) for combo in kernels), unhit))
    return tuple(columns), tuple(templates)


def _generators(m01, solved, tables):
    """The H^0 generators ((lambda, mu), {chart id: Superform}), with the
    weight of their block, and H^1 representatives (Monomial, exponent) of a
    `_solve` entry, as one eliminator would give them: a kernel of block
    lambda is led by g'^(lambda1(M) - lambda)*M, so generators come by (M,
    lambda descending), their U0 coefficients times b^-lambda (times b from
    one block to the next, not a gcd with b^lambda each), and the
    representatives g^(lambda - #dgamma(M))*M of the unhit rows by (M,
    lambda).  tables are the charts' GeneratorTables in sorted order; the
    clean terms are wrapped unchecked, in the kernel's order."""
    (columns, runs), (t0, t1) = solved, tables
    c0, c1 = m01.source.id, m01.target.id
    _, b = m01.even_images[0].single_term()
    names0, names1 = t0.even_names, t1.even_names
    leads = [
        ((ids[max(j for j, _ in combo)], -hi), lo, mu, [columns[ids[j]] + (c,) for j, c in combo])
        for mu, lo, hi, ids, kernels, _ in runs
        for combo in kernels
    ]
    sections = []
    for (_, top), lo, mu, terms in sorted(leads, key=lambda lead: lead[0]):
        u0 = [(mon, e0, c * b**top if b != 1 else c) for cid, mon, e0, c in terms if cid == c0]
        u1 = [(mon, e0, c) for cid, mon, e0, c in terms if cid != c0]
        for lam in range(-top, lo - 1, -1):
            part0 = {mon: LaurentPoly._of(names0, {(e0 + lam,): c}) for mon, e0, c in u0}
            part1 = {mon: LaurentPoly._of(names1, {(e0 - lam,): c}) for mon, e0, c in u1}
            sections.append(((lam, mu), {c0: Superform._of(c0, t0, part0), c1: Superform._of(c1, t1, part1)}))
            if b != 1:
                u0 = [(mon, e0, c * b) for mon, e0, c in u0]
    unhit = sorted((k, lo, hi) for _, lo, hi, _, _, rows in runs for k in rows)
    reps = [(columns[k][1], columns[k][2] + lam) for k, lo, hi in unhit for lam in range(lo, hi + 1)]
    return sections, reps


def _check_cutoff(cutoff):
    """Refuse a cutoff that is not an int >= 0, for every entry point."""
    if not isinstance(cutoff, int):
        raise StructuralError("cutoff must be an int, got %r" % (cutoff,))
    if cutoff < 0:
        raise StructuralError("cutoff must be non-negative, got %d" % cutoff)


def cech(space, sheaf, cutoff):
    """Both Cech groups of one sheaf (degree, picture) in a single report.
    space is an Atlas or a label, as for derham.  The answer is exact and
    does not depend on the cutoff, which is only recorded."""
    atlas, label = _resolve_space(space)
    _check_cutoff(cutoff)
    m01 = _transition(atlas)
    try:
        degree, picture = sheaf
    except (TypeError, ValueError):
        raise StructuralError("a sheaf must be a pair (degree, picture), got %r" % (sheaf,)) from None
    # Checked before the memo hashes the sheaf, which a list degree cannot be.
    _check_sheaf(degree, picture)
    c0, c1 = sorted(atlas.charts)
    table = atlas.chart(c0).table
    sections, reps = _generators(m01, _solve(m01, degree, picture), (table, atlas.chart(c1).table))
    return CohomologyReport(
        space=label,
        sheaf=sheaf,
        cutoff=cutoff,
        h0=len(sections),
        h1=len(reps),
        generators_h0=[parts for _, parts in sections],
        generators_h1=[
            Superform._of(c0, table, {mon: LaurentPoly._of(table.even_names, {(e,): _ONE})}) for mon, e in reps
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


def _derham_classes(atlas, picture):
    """The classes theta_S*delta_S, one per set S of `picture` odd indices,
    in u order (u_0 most significant), each written on every chart in sorted
    chart order with the chart's own constant 1."""
    charts = [atlas.chart(cid) for cid in sorted(atlas.charts)]
    n = len(charts[0].table.odd_names)
    # Reversed, the combinations come in u order.
    sets = reversed(list(combinations(range(n), picture)))
    # The 2n pairs, built once and shared by every class.
    thetas = [((TH, j), 1) for j in range(n)]
    deltas = [((DL, j, 0), 1) for j in range(n)]
    mons = [Monomial._of(tuple([thetas[j] for j in s] + [deltas[j] for j in s])) for s in sets]
    classes = [{} for _ in mons]
    for chart in charts:
        cid, table, one = chart.id, chart.table, LaurentPoly.const(chart.table.even_names, 1)
        for parts, mon in zip(classes, mons):
            parts[cid] = Superform._of(cid, table, {mon: one})
    return classes


def derham(space, picture, degree_range, cutoff):
    """de Rham cohomology H^{i|picture} for i in degree_range (inclusive).

    space is an Atlas (one chart: flat; otherwise it must be P^{1|1}, two
    charts of dimension 1|1) or one of the labels "p11" / "flat:m,n".  Every
    class lies in degree 0, so a range without it reports zeros.  The range
    must be two ints lo <= hi and the picture an int in 0..n, for n odd
    coordinates.
    """
    lo, hi = degree_range
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise StructuralError("the degree range must be two ints, got %r" % (degree_range,))
    if lo > hi:
        raise StructuralError("empty degree range %r" % (degree_range,))
    atlas, label = _resolve_space(space)
    _check_cutoff(cutoff)
    # _transition rejects an atlas that is not two 1|1 charts before the
    # picture is looked at.
    m01 = _transition(atlas) if len(atlas.charts) != 1 else None
    n = len(atlas.chart(min(atlas.charts)).table.odd_names)
    if not isinstance(picture, int) or not 0 <= picture <= n:
        where = "P^{1|1}" if m01 else "this flat space"
        raise UnsupportedSpaceError("picture %r not supported on %s" % (picture, where))
    in_range = lo <= 0 <= hi
    # The box rule: at D = 0 the box misses every flat class of a picture
    # p >= 1.  The P^{1|1} class is checked also when degree 0 is out of range.
    stabilized = bool(m01) or not (in_range and cutoff == 0 and picture >= 1)
    classes = _derham_classes(atlas, picture) if m01 or in_range and stabilized else []
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

    An entry is the trace of the product, an Omega^{1|1} form: its Berezin
    integral, the coefficient of theta*dg*delta(dpsi) at g^-1.  The trace
    vanishes on coboundaries, since s0 has no g^-1 term and, by the residue
    theorem, neither has Phi*(s1).  Returns (matrix rows, exact rank), read
    off `_pairing`, which computes the pairing from the generators of the
    two Cech solves and certifies it, once per transition, n and process
    (about 530 KiB held for n = 256): a rank short of either dimension
    raises StructuralError.  n must be an int >= 0; the cutoff does not
    change the answer.  The rows are laid out afresh on
    every call (about 11 ms for the 1028 x 1028 matrix of n = 256), so a
    caller that changes them changes no later answer.
    """
    _check_cutoff(cutoff)
    if not isinstance(n, int):
        raise StructuralError("pairing index must be an int, got %r" % (n,))
    if n < 0:
        raise StructuralError("pairing index must be non-negative")
    rows, width, rank = _pairing(_transition(builtin_p11()), n)
    matrix = []
    for entries in rows:
        row = [Fraction(0)] * width
        for t, c in entries:
            row[t] = c
        matrix.append(row)
    return matrix, rank


@lru_cache(maxsize=128, typed=True)
def _pairing(m01, n):
    """The pairing of H^1(Omega^{n+1|0}) with H^0(Omega^{-n|1}) across the
    transition m01, once per process, for an int n >= 0 (`pairing_matrix`
    checks it).  The memo is typed, so a float n misses the entry of its
    int; a pairing that is not perfect raises, which is not cached.

    Returns read-only (rows, width, rank): for each H^1 representative of
    `_generators`, the tuple of its non-zero (generator position, Fraction)
    entries in order; the number of H^0 generators; and the rank, summed
    over the weight blocks.  A product of torus weights w1 and w2 has weight
    w1 + w2 and the trace sees only weight (0, 0), so the matrix is
    block-diagonal by weight: a representative g^e1*M1 of weight w meets
    only the generators whose block, and U0 part, has weight -w.  The
    product of g^e1*M1 with a U0 term g^e2*M2 is g^(e1+e2)*(M1*M2), and
    M1*M2 is formed and reduced once per pair of sheaf monomials (at most
    16).  The pairing is certified perfect: a rank short of either
    dimension raises StructuralError.  An entry holds only the non-zero
    entries, about 530 KiB for n = 256 by tracemalloc.
    """
    c0 = m01.source.id
    table = m01.source.table
    tables = (table, m01.target.table)
    reps = _generators(m01, _solve(m01, n + 1, 0), tables)[1]
    sections = _generators(m01, _solve(m01, -n, 1), tables)[0]
    by_weight = {}  # weight -> [(generator position, its U0 terms)]
    for t, (weight, parts) in enumerate(sections):
        by_weight.setdefault(weight, []).append((t, parts[c0].terms.items()))
    one = LaurentPoly.const(table.even_names, 1)
    reduced = {}  # (M1, M2) -> the Berezin reduction of M1*M2

    def trace(m1, m2, e):
        # The trace of g^e*(M1*M2): the coefficient of g^(-1-e) in its
        # reduction, None for zero.
        if (m1, m2) not in reduced:
            form = pair(Superform(c0, table, {m1: one}), Superform(c0, table, {m2: one}))
            reduced[m1, m2] = berezin_reduce(form)
        return reduced[m1, m2].terms.get((-1 - e,))

    rows, blocks = [], {}
    for m1, e1 in reps:
        lam, mu = _weight(m1, e1)
        entries = {}
        for t, terms in by_weight.get((-lam, -mu), ()):
            entry = sum(c * s for m2, lp in terms for (e2,), c in lp.terms.items() if (s := trace(m1, m2, e1 + e2)))
            if entry:
                entries[t] = entry
        blocks.setdefault((lam, mu), []).append(entries)
        rows.append(tuple(entries.items()))

    rank = sum(_eliminate(block)[0].rank for block in blocks.values())
    if not rank == len(reps) == len(sections):
        raise StructuralError(
            "the pairing of n = %d is not perfect: rank %d of a %dx%d matrix"
            % (n, rank, len(reps), len(sections))
        )
    return tuple(rows), len(sections), rank


class CechDeRhamReport(_Record):
    _fields = ("derham_dims", "constant_sheaf_dims", "base_dims", "fiber_dim", "mismatches")

    def __init__(self, derham_dims, constant_sheaf_dims, base_dims, fiber_dim, mismatches=None):
        self.derham_dims, self.constant_sheaf_dims, self.base_dims = derham_dims, constant_sheaf_dims, base_dims
        self.fiber_dim = fiber_dim
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def passed(self):
        return not self.mismatches


def cech_derham_check(cutoff):
    """Compare H_DR^{i|1}(P^{1|1}) with the Cech cohomology of the constant
    sheaf spanned by psi*delta(dpsi), and run the Kunneth consistency check."""
    atlas = builtin_p11()
    report = derham(atlas, 1, (0, 1), cutoff)
    dr = {i: report.dims[(i, 1)] for i in (0, 1)}

    # `derham` glued psi*delta(dpsi), so its constant sheaf's (c0, c1) |-> c0 - c1 has rank 1.
    cech_dims = {0: 1, 1: 0}

    # Kunneth: base = theta-free picture-0 global complex of P^1; fiber = C^{0|1}.
    closed0 = [
        parts
        for parts in cech(atlas, (0, 0), cutoff).generators_h0
        if all(a[0] == DG for form in parts.values() for m in form.terms for a, _ in m.powers())
        and all(exterior_d(form).is_zero() for form in parts.values())
    ]
    base_dims = {0: len(closed0), 1: cech(atlas, (1, 0), cutoff).h0}

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
