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
column per chart for every sheaf monomial of its second weight; a transition
that mixes weights, kills a sheaf monomial or maps g to any other power than
g^-1 is rejected.  The blocks do not depend on any cutoff, and only the
finitely many first weights of `_class_weights` can carry a class (the
monomial-by-monomial computation of Cech cohomology of O(d) on P^1).
`_cech_solve` eliminates each of those blocks once, with its columns in
their global (chart, monomial, exponent) order, so the kernels come out as
from one eliminator for the whole system; the unit vectors of the rows are
inserted after the columns, and the rows they leave unhit are the H^1
representatives.  `cech` is therefore exact at every cutoff.  The pairing
multiplies only the H^1 and H^0 generators whose weights sum to (0, 0), the
weight of the generator of H^1(Omega^{1|1}).

`_complex_cohomology` walks a complex of d matrices: the eliminator of d[i-1]
gives rank(d[i-1]), ker(d[i-1]) and the image against which degree-i
representatives are picked.  P^{1|1} de Rham runs it on the complex of global
sections.  Flat-space de Rham needs no elimination: d keeps the even weight
E, the odd weight vector u and the set of delta-carrying odd indices, and by
a Kunneth argument the only summand with a class is the single closed form
theta_S*delta_S for S = supp(u), E = 0, u in {0, 1}^n with |u| = p, which
`_flat_derham` only checks to be closed.

Every report is computed once.  P^{1|1} answers do not depend on the cutoff
and are stabilized; a flat answer holds the classes in the box |u_j| <= D,
which misses one only at D = 0, so a flat report is unstabilized exactly
when D = 0 and a picture p >= 1 has degree 0 in range.  Phi*(M) depends only
on the transition and M, so `_pulled_monomial` computes it once per process;
a `Morphism` compares by its generator images, so fresh builds of one atlas
share the entries.  A negative cutoff is rejected by `cech` and `derham`;
`_cech_solve` rejects any atlas that is not two 1|1 charts, since its
section bases are those of P^{1|1}.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .atlas_morphism import builtin_flat, builtin_p11, pullback
from .coeff_ring import LaurentPoly, _axpy
from .errors import (
    StructuralError,
    UnsupportedMorphismError,
    UnsupportedSpaceError,
)
from .form_algebra import Monomial, Superform, exterior_d, pair


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
            _axpy(vec, pvec, factor)
            _axpy(combo, pcombo, factor)

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
                _axpy(pvec, vec, factor)
                _axpy(pcombo, combo, factor)
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
    """Monomials spanning Omega^{i|j} fibers on a P^{1|1} chart."""
    if j not in (0, 1):
        raise UnsupportedSpaceError("picture %d not supported on P^{1|1}" % j)
    out = []
    for th in (0, 1):
        thetas = (0,) if th else ()
        for e in (0, 1):
            devens = (0,) if e else ()
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
    out.sort(key=Monomial.sort_key)
    return out


def _eliminate(columns):
    """Insert the columns, tagged 0, 1, ..., into one Eliminator.

    Returns the eliminator and the kernel as combinations {column: coeff},
    one per dependent column, after the rank-nullity self-check.
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


def _coordinates(form, index, key, error):
    """Sparse coordinates {row: coeff} of a form in a basis index keyed by
    key(monomial, exponents); a term outside the basis raises error(key)."""
    vec = {}
    for mon, lp in form.terms.items():
        for exps, c in lp.items():
            k = key(mon, exps)
            if k not in index:
                raise error(k)
            vec[index[k]] = c
    return vec


def _compose_is_zero(cols_first, cols_second):
    for col in cols_first:
        acc = {}
        for s, c in col.items():
            _axpy(acc, cols_second[s], c)
        if acc:
            return False
    return True


def _complex_cohomology(d_cols, lo, hi):
    """Cohomology of a complex in degrees lo..hi, each differential eliminated once.

    d_cols[i] lists the columns {row: coeff} of d: C^i -> C^{i+1}, one per
    basis element of C^i, for at least i = lo-1..hi; consecutive entries must
    compose to zero.  Returns ({i: dim}, {i: [representative {row: coeff}]}).
    """
    for i in d_cols:
        if i + 1 in d_cols and not _compose_is_zero(d_cols[i], d_cols[i + 1]):
            raise StructuralError("d o d != 0 in the assembled de Rham complex")
    dims, reps = {}, {}
    image, _ = _eliminate(d_cols[lo - 1])
    for i in range(lo, hi + 1):
        elim, kernels = _eliminate(d_cols[i])
        dims[i] = len(kernels) - image.rank
        reps[i] = [z for k, z in enumerate(kernels) if image.insert(z, ("z", k)) is None]
        image = elim
    return dims, reps


def _weight(mon, e):
    """The torus weight of g^e*mon on a P^{1|1} chart: the powers of lambda
    and mu it picks up under g -> lambda*g, psi -> mu*psi (dg scales like g,
    dpsi like psi and delta^(k)(dpsi) like mu^-(k+1))."""
    return (
        e + len(mon.devens),
        len(mon.thetas) + sum(p for _, p in mon.dodds) - sum(k + 1 for _, k in mon.deltas),
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


@lru_cache(maxsize=4096)  # a sheaf has at most four monomials
def _pulled_monomial(transition, mon):
    """The pullback Phi*(M) of a sheaf monomial M on the transition's target
    chart, as ((Monomial, coeff), ...) in term order, and its torus weight.
    A form that mixes weights raises (and an exception is not cached)."""
    table = transition.target.table
    one = LaurentPoly.const(table.even_names, 1)
    pulled = pullback(transition, Superform(transition.target.id, table, {mon: one}))
    terms = tuple((m, c) for m, lp in pulled.terms.items() for c in lp.terms.values())
    return terms, _form_weight(pulled)


def _cech_solve(atlas, sheaf):
    """Solve the Cech system (s0, s1) |-> s0 - Phi*(s1) of one sheaf, one
    complete torus-weight block at a time.

    Returns (dom, kernels, reps, elims): the column labels (chart id,
    Monomial, exponent tuple) of the blocks `_class_weights` admits, in
    (chart, monomial, exponent) order; H^0 as combinations {column: coeff};
    the H^1 representatives as overlap (Monomial, exponent) pairs in
    monomial order; and the eliminator of each block by weight, with the
    unit vectors of its rows inserted after its columns.  A block has one row
    per sheaf monomial, keyed by the monomial's position in the sheaf basis.
    """
    # The section bases are those of P^{1|1}; on any other atlas they would
    # ignore coordinates and answer for the wrong space.
    shapes = [(len(c.table.even_names), len(c.table.odd_names)) for c in atlas.charts.values()]
    if shapes != [(1, 1), (1, 1)]:
        raise UnsupportedSpaceError(
            "Cech and P^{1|1} de Rham need two charts of dimension 1|1, got %s"
            % ", ".join("%d|%d" % shape for shape in shapes)
        )
    mons = p11_sheaf_monomials(*sheaf)
    position = {mon: k for k, mon in enumerate(mons)}
    c0, c1 = sorted(atlas.charts)
    m01 = atlas.transition(c0, c1)
    if m01.target.id != c1:
        raise StructuralError("form does not live on the morphism target chart")
    # Pullback is a ring map and the image of g is one Laurent monomial b*g^a,
    # so Phi*(g^e*M) is Phi*(M) shifted by a*e and scaled by b^e.  Only a = -1
    # makes every block finite and the blocks outside `_class_weights` exact.
    (a,), b = m01.even_images[0].single_term()
    if a != -1:
        raise UnsupportedMorphismError(
            "the Cech system of P^{1|1} needs the even transition b*g^-1, got b*g^%d" % a
        )
    pulled = {mon: _pulled_monomial(m01, mon) for mon in mons}
    lo, hi = _class_weights([pulled[mon][1][0] for mon in mons])
    # weight -> positions of its columns in dom, ascending; g'^e*M on U1 has
    # the weight of Phi*(M) shifted by -e.
    blocks = {_weight(mon, lam - len(mon.devens)): [] for lam in range(lo, hi + 1) for mon in mons}
    dom = []
    for mon in mons:
        for e in range(max(0, lo - len(mon.devens)), hi - len(mon.devens) + 1):
            blocks[_weight(mon, e)].append(len(dom))
            dom.append((c0, mon, (e,)))
    for mon in mons:
        lam, mu = pulled[mon][1]
        for e in range(max(0, lam - hi), lam - lo + 1):
            blocks[lam - e, mu].append(len(dom))
            dom.append((c1, mon, (e,)))

    def column(t):
        cid, mon, (e,) = dom[t]
        if cid == c0:
            return {position[mon]: Fraction(1)}
        return {position[m]: -(c * b**e) for m, c in pulled[mon][0]}

    kernels, reps, elims = [], [], {}
    for (lam, mu), ts in blocks.items():
        elim, block_kernels = _eliminate([column(t) for t in ts])
        kernels += [{ts[j]: c for j, c in combo.items()} for combo in block_kernels]
        # The rows the columns leave unhit, in monomial order, are H^1.
        rows = [(mon, lam - len(mon.devens)) for mon in mons if _weight(mon, 0)[1] == mu]
        reps += [el for el in rows if elim.insert({position[el[0]]: Fraction(1)}, el) is None]
        elims[lam, mu] = elim
    # A kernel's last column is the dependent one it was found at.
    kernels.sort(key=max)
    reps.sort(key=lambda el: (position[el[0]], el[1]))
    return dom, kernels, reps, elims


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
    dom, kernels, reps, _ = _cech_solve(atlas, sheaf)
    c0 = min(atlas.charts)
    return CohomologyReport(
        space=label,
        sheaf=sheaf,
        cutoff=cutoff,
        h0=len(kernels),
        h1=len(reps),
        generators_h0=[_glue(atlas, dom, combo) for combo in kernels],
        generators_h1=[_glue(atlas, [(c0, mon, (e,))], {0: 1})[c0] for mon, e in reps],
    )


# ---------------------------------------------------------------------------
# de Rham: P^{1|1} via global-section complexes


def _differential_error(key):
    return StructuralError("differential of a global section leaves the complex")


def _derham_p11(atlas, picture, lo, hi):
    # degree -> (Cech column labels, global sections as kernel combinations)
    levels = {i: _cech_solve(atlas, (i, picture))[:2] for i in range(lo - 1, hi + 2)}
    d_cols = {}
    for i in range(lo - 1, hi + 1):
        labels, sections = levels[i]
        dom, kernels = levels[i + 1]
        index = {label: t for t, label in enumerate(dom)}
        solver, _ = _eliminate(kernels)
        cols = []
        for section in sections:
            dv = {}
            for cid, form in _glue(atlas, labels, section).items():
                key = lambda mon, exps, cid=cid: (cid, mon, exps)
                dv.update(_coordinates(exterior_d(form), index, key, _differential_error))
            combo = solver.insert(dv, "image")
            if combo is None:
                raise StructuralError("differential of a global section is not global")
            cols.append({s: -c for s, c in combo.items() if s != "image"})
        d_cols[i] = cols

    dims, reps = _complex_cohomology(d_cols, lo, hi)
    gens = {}
    for i in range(lo, hi + 1):
        labels, sections = levels[i]
        gens[i] = []
        for z in reps[i]:
            combo = {}
            for t, c in z.items():
                _axpy(combo, sections[t], c)
            gens[i].append(_glue(atlas, labels, combo))
    return {(i, picture): dim for i, dim in dims.items()}, gens


# ---------------------------------------------------------------------------
# de Rham: flat space.
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
# theta_S*delta_S, in degree 0 and with d = 0, so `_flat_derham` writes down
# the class of each such u inside the box |u_j| <= D without eliminating
# anything (the tests eliminate the full blocks as the oracle).  From D = 1 on
# the box holds every u in {0, 1}^n; at D = 0 it holds only u = 0, so a
# picture p >= 1 with degree 0 in range reports no class and `derham` marks
# it unstabilized (the box rule).


def _flat_derham(atlas, picture, lo, hi, cutoff):
    """Flat de Rham at one cutoff: the class theta_S*delta_S of each candidate
    block, in u order."""
    (chart,) = atlas.charts.values()
    m, n = len(chart.table.even_names), len(chart.table.odd_names)
    if not 0 <= picture <= n:
        raise UnsupportedSpaceError("picture %d not supported on this flat space" % picture)
    dims = {(i, picture): 0 for i in range(lo, hi + 1)}
    gens = {i: [] for i in range(lo, hi + 1)}
    if not lo <= 0 <= hi:
        return dims, gens
    for u in product((0, 1), repeat=n):
        if sum(u) != picture or max(u, default=0) > cutoff:
            continue
        carriers = tuple(j for j in range(n) if u[j])
        mon = Monomial(carriers, (), (), tuple((j, 0) for j in carriers))
        parts = _glue(atlas, [(chart.id, mon, (0,) * m)], {0: Fraction(1)})
        if not exterior_d(parts[chart.id]).is_zero():
            raise StructuralError("flat de Rham class theta_S*delta_S is not closed")
        dims[(0, picture)] += 1
        gens[0].append(parts)
    return dims, gens


def derham(space, picture, degree_range, cutoff):
    """de Rham cohomology H^{i|picture} for i in degree_range (inclusive).

    space is an Atlas (one chart: flat; otherwise it must be P^{1|1}, two
    charts of dimension 1|1) or one of the labels "p11" / "flat:m,n".  The
    complex is extended one step to the left of the range so every reported
    degree has its incoming differential.
    """
    lo, hi = degree_range
    if lo > hi:
        raise StructuralError("empty degree range %r" % (degree_range,))
    atlas, label = _resolve_space(space)
    flat = len(atlas.charts) == 1
    # _cech_solve rejects any other atlas that is not two 1|1 charts.
    if not flat and picture not in (0, 1):
        raise UnsupportedSpaceError("picture %d not supported on P^{1|1}" % picture)
    if cutoff < 0:
        raise StructuralError("cutoff must be non-negative, got %d" % cutoff)
    if flat:
        dims, gens = _flat_derham(atlas, picture, lo, hi, cutoff)
        stabilized = not (cutoff == 0 and picture >= 1 and lo <= 0 <= hi)
    else:
        dims, gens = _derham_p11(atlas, picture, lo, hi)
        stabilized = True
    return CohomologyReport(
        space=label,
        cutoff=cutoff,
        dims=dims,
        generators=gens,
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

    Each product is reduced modulo Omega^{1|1} coboundaries and read off
    against the H^1(Omega^{1|1}) generator psi*dg*delta(dpsi)/g, which has
    torus weight (0, 0).  A product of weights w1 and w2 has weight w1 + w2,
    so only the pairs with w1 + w2 = (0, 0) are multiplied; every other entry
    is zero.  Returns (matrix rows, exact rank); the cutoff is checked and
    recorded as by `cech`.
    """
    if n < 0:
        raise StructuralError("pairing index must be non-negative")
    atlas = builtin_p11()
    h1 = cech(atlas, (n + 1, 0), cutoff)
    h0 = cech(atlas, (-n, 1), cutoff)

    # The weight-(0, 0) block of Omega^{1|1} holds the coboundaries and the
    # unit vector of the generator; with every row's unit vector inserted it
    # spans its rows, so every product there reduces to a combination.
    _, _, volume_reps, elims = _cech_solve(atlas, (1, 1))
    generator = (Monomial((0,), (0,), (), ((0, 0),)), -1)
    if volume_reps != [generator]:
        raise StructuralError("the H^1(Omega^{1|1}) probe does not single out the generator")
    volume = elims[0, 0]
    position = {mon: k for k, mon in enumerate(p11_sheaf_monomials(1, 1))}

    c0 = min(atlas.charts)
    weights0 = [_form_weight(parts[c0]) for parts in h0.generators_h0]
    matrix = []
    for s, rep in enumerate(h1.generators_h1):
        lam, mu = _form_weight(rep)
        row = []
        for t, parts in enumerate(h0.generators_h0):
            if weights0[t] != (-lam, -mu):
                row.append(Fraction(0))
                continue
            product = pair(rep, parts[c0])
            vec = {position[m]: c for m, lp in product.terms.items() for c in lp.terms.values()}
            combo = volume.insert(vec, ("prod", s, t))
            row.append(-combo.get(generator, Fraction(0)))
        matrix.append(row)

    return matrix, _eliminate([dict(enumerate(row)) for row in matrix])[0].rank


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
    gen1 = Superform("U1", table, {Monomial((0,), (), (), ((0, 0),)): LaurentPoly.const(table.even_names, 1)})
    pulled = pullback(atlas.transition("U0", "U1"), gen1)
    gen0 = Superform("U0", table, {Monomial((0,), (), (), ((0, 0),)): LaurentPoly.const(table.even_names, 1)})
    if set(pulled.terms) != set(gen0.terms):
        raise StructuralError("constant-sheaf generator is not preserved by the transition")
    c = next(iter(pulled.terms.values())).coefficient((0,))
    rank = _eliminate([{0: Fraction(1)}, {0: -c}])[0].rank
    cech_dims = {0: 2 - rank, 1: 1 - rank}

    # Kunneth: base = theta-free picture-0 global complex of P^1; fiber = C^{0|1}.
    dom, kernels = _cech_solve(atlas, (0, 0))[:2]
    base_level0 = [
        parts
        for parts in (_glue(atlas, dom, combo) for combo in kernels)
        if not any(m.thetas or m.dodds or m.deltas for form in parts.values() for m in form.terms)
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
