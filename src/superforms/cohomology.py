"""Truncated section spaces, Cech and de Rham cohomology, exact linear algebra.

Every group is a kernel modulo an image over exact rationals, and every
matrix is eliminated once, by `_eliminate`: it inserts the columns into one
sparse row-reduced `Eliminator` and returns it with the kernel combinations.
The eliminator keeps its pivots in reduced row echelon form, so a column is
reduced in one ascending pass over the pivot rows it hits.  Sparse
combinations are accumulated by `coeff_ring._axpy`, and `_glue` alone turns a
combination of basis labels (chart id, Monomial, exponent tuple) into forms.

Chart sections of P^{1|1} are polynomial of degree <= D; the overlap window
is [-(D+|i|+4), D+|i|+4].  `_cech_solve` builds the Cech system
(s0, s1) |-> s0 - Phi*(s1) once per cutoff: the kernel is H^0.  The charts are
taken in sorted order, the first carrying the overlap.  Pullback is a ring map
and the image of g is one Laurent monomial b*g^a, so the system needs one
pullback per sheaf monomial M (at most four): Phi*(g^e*M) is Phi*(M) with
every exponent shifted by a*e and every coefficient scaled by b^e.  When psi
also maps to a monomial multiple of psi, as in every cocycle-checked atlas,
the torus g -> lambda*g, psi -> mu*psi acts on both charts and the system is
a direct sum of weight blocks (of at most four columns for the built-in
gluing); a sheaf monomial that pulls back to a mix of weights is rejected.
There is one `Eliminator` per block, fed its columns in their global order:
a column is a pivot exactly when it is independent of the earlier columns of
its own block, so the kernels come out as from one eliminator for the whole
system.  Callers that report H^1 ask for the probe, which inserts the unit
vectors of an inner window of half-width |i|+4 after each block's columns;
the unhit monomials are the coset representatives.  The blocks are shared by
the runs at D and D+2: both get one memo dict, which keeps the pullbacks and
the kernels and probe hits of the D run's blocks, so the second run
eliminates only the blocks that reach past cutoff D or its probe window.

`_complex_cohomology` walks a complex of d matrices: the eliminator of d[i-1]
gives rank(d[i-1]), ker(d[i-1]) and the image against which degree-i
representatives are picked.  P^{1|1} de Rham runs it on the complex of global
sections.  Flat-space de Rham needs no elimination: d keeps the even weight
E, the odd weight vector u and the set of delta-carrying odd indices, and by
a Kunneth argument the only summand with a class is the single closed form
theta_S*delta_S for S = supp(u), E = 0, u in {0, 1}^n with |u| = p, which
`_flat_derham` only checks to be closed.

Cech and de Rham answers are certified by recomputing at D+2: `_rerun` is
the one place that runs a computation at D and at D+2, handing both runs one
memo dict, and the reports are marked stabilized when both agree.  A negative
cutoff is rejected in `_rerun` and in `_cech_solve`, which the pairing's
Omega^{1|1} solve uses without a rerun; `_cech_solve` also rejects any atlas
that is not two 1|1 charts, since its section bases are those of P^{1|1}.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .atlas_morphism import builtin_flat, builtin_p11, pullback
from .coeff_ring import LaurentPoly, _axpy
from .errors import (
    StructuralError,
    UnsupportedMorphismError,
    UnsupportedSpaceError,
    WindowOverflowError,
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
        dependency combination {tag: coeff} with coefficient 1 on `tag`."""
        vec = {r: Fraction(c) for r, c in vec.items() if c}
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


def _rerun(compute, cutoff):
    """compute(cutoff, memo) and its stabilization rerun compute(cutoff + 2,
    memo), sharing one memo dict (see `_cech_solve`)."""
    if cutoff < 0:
        raise StructuralError("cutoff must be non-negative, got %d" % cutoff)
    memo = {}
    return compute(cutoff, memo), compute(cutoff + 2, memo)


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


def _overlap_key(mon, exps):
    return mon, exps[0]


def _overlap_error(key):
    return WindowOverflowError(
        "section leaves the overlap window at %r; enlarge the cutoff" % (key,)
    )


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
    """The common torus weight of the terms of a form, None for zero; a form
    that mixes weights raises UnsupportedMorphismError."""
    weights = {_weight(mon, exps[0]) for mon, lp in form.terms.items() for exps in lp.terms}
    if len(weights) > 1:
        raise UnsupportedMorphismError(
            "%r mixes the torus weights %s; the Cech system needs transitions that "
            "preserve the torus weight of P^{1|1}" % (form, sorted(weights))
        )
    return weights.pop() if weights else None


def _cech_solve(atlas, sheaf, cutoff, memo, probe=False):
    """Build the Cech system of one sheaf at one cutoff and eliminate it one
    torus-weight block at a time.

    Returns (dom, kernels, index, reps, elims): the column labels (chart id,
    Monomial, exponent tuple), H^0 as combinations {column: coeff}, the
    overlap row index, and, when probe is set, the H^1 representatives as
    overlap (Monomial, exponent) pairs and the eliminator of each block
    solved by this call, by weight.  memo holds the pullback of each sheaf
    monomial and, for each sheaf, the last cutoff solved with the kernels
    and probe hits of its blocks; a caller passes one dict to its runs at D
    and D+2 on one atlas, so that the second solves only the blocks that
    changed.
    """
    if cutoff < 0:
        raise StructuralError("cutoff must be non-negative, got %d" % cutoff)
    # The section bases are those of P^{1|1}; on any other atlas they would
    # ignore coordinates and answer for the wrong space.
    shapes = [(len(c.table.even_names), len(c.table.odd_names)) for c in atlas.charts.values()]
    if shapes != [(1, 1), (1, 1)]:
        raise UnsupportedSpaceError(
            "Cech and P^{1|1} de Rham need two charts of dimension 1|1, got %s"
            % ", ".join("%d|%d" % shape for shape in shapes)
        )
    mons = p11_sheaf_monomials(*sheaf)
    w = cutoff + abs(sheaf[0]) + 4
    index = {el: r for r, el in enumerate(product(mons, range(-w, w + 1)))}
    sections = list(product(mons, range(cutoff + 1)))
    n = len(sections)
    c0, c1 = sorted(atlas.charts)
    m01 = atlas.transition(c0, c1)
    table = m01.target.table
    # Pullback is a ring map and the image of g is one Laurent monomial b*g^a,
    # so Phi*(g^e*M) is Phi*(M) shifted by a*e and scaled by b^e.
    (a,), b = m01.even_images[0].single_term()
    one = LaurentPoly.const(table.even_names, 1)
    for mon in mons:
        if mon not in memo:
            pulled = pullback(m01, Superform(c1, table, {mon: one}))
            memo[mon] = pulled, _form_weight(pulled)
    dom = [(c0, mon, (e,)) for mon, e in sections] + [(c1, mon, (e,)) for mon, e in sections]
    unit = lambda el: {index[el]: Fraction(1)}

    def column(t):
        mon, e = sections[t % n]
        if t < n:
            return unit((mon, e))
        key = lambda m, exps: (m, exps[0] + a * e)
        col = _coordinates(memo[mon][0], index, key, _overlap_error)
        return {r: -(c * b**e) for r, c in col.items()}

    cols = {}  # weight -> positions of its columns in dom, ascending
    for t, (mon, e) in enumerate(sections):
        cols.setdefault(_weight(mon, e), []).append(t)
    for t, (mon, e) in enumerate(sections, n):
        wt = memo[mon][1]
        cols.setdefault(None if wt is None else (wt[0] + a * e, wt[1]), []).append(t)
    probes, inner = {}, -1  # weight -> probe rows; the probe window's half-width
    if probe:
        # Unhit monomials inside an inner window estimate the cokernel.  The
        # window is capped by the coverage reach of degree-<=cutoff sections
        # (their images lead at exponent ~ |i|+1-cutoff), so that a class is
        # never reported merely because its killing coboundary was truncated
        # away; the D vs D+2 stabilization flag guards the remaining risk.
        inner = max(0, min(abs(sheaf[0]) + 4, cutoff - abs(sheaf[0]) - 1))
        for el in product(mons, range(-inner, inner + 1)):
            probes.setdefault(_weight(*el), []).append(el)

    # A column's weight does not depend on the cutoff, so the block of a
    # weight at the last cutoff solved for this sheaf held exactly its
    # columns of exponent <= that cutoff and its probe rows inside that
    # run's window; from a cutoff no lower, a block whose columns and rows
    # all lie there is unchanged.  Only blocks with a kernel or a hit are kept.
    last_cutoff, last_inner, last = memo.get((sheaf, probe), (-1, -1, {}))
    kept, kernels, reps, elims = {}, [], [], {}
    for wt in cols | probes:
        ts, rows = cols.get(wt, []), probes.get(wt, [])
        if (
            last_cutoff <= cutoff
            and all(sections[t % n][1] <= last_cutoff for t in ts)
            and all(abs(e) <= last_inner for _, e in rows)
        ):
            block_kernels, hits = last.get(wt, ((), ()))
        else:
            elim, block_kernels = _eliminate([column(t) for t in ts])
            # The probe rows that raise the rank are the representatives.
            hits = [el for el in rows if elim.insert(unit(el), el) is None]
            # Only a probing caller reduces further vectors against the
            # blocks; the others free each eliminator once it is solved.
            if probe:
                elims[wt] = elim
        if block_kernels or hits:
            kept[wt] = block_kernels, hits
        kernels += [{ts[j]: c for j, c in combo.items()} for combo in block_kernels]
        reps += hits
    memo[sheaf, probe] = cutoff, inner, kept
    # A kernel's last column is the dependent one it was found at.
    kernels.sort(key=max)
    reps.sort(key=index.__getitem__)
    return dom, kernels, index, reps, elims


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
    """Both Cech groups of one sheaf in a single report, from one solve at the
    cutoff and one at cutoff + 2.  space is an Atlas or a label, as for
    derham."""
    atlas, label = _resolve_space(space)

    def solve(c, memo):
        dom, kernels, _, reps, _ = _cech_solve(atlas, sheaf, c, memo, probe=True)
        return dom, kernels, reps

    (dom, kernels, reps), (_, kernels_again, reps_again) = _rerun(solve, cutoff)
    c0 = min(atlas.charts)
    # An empty probe window (cutoff <= |i|+1) yields a vacuous count of zero;
    # never let such a run pass itself off as converged.
    probed = cutoff - abs(sheaf[0]) - 1 > 0
    return CohomologyReport(
        space=label,
        sheaf=sheaf,
        cutoff=cutoff,
        h0=len(kernels),
        h1=len(reps),
        generators_h0=[_glue(atlas, dom, combo) for combo in kernels],
        generators_h1=[_glue(atlas, [(c0, mon, (e,))], {0: 1})[c0] for mon, e in reps],
        stabilized=probed and len(kernels) == len(kernels_again) and len(reps) == len(reps_again),
    )


# ---------------------------------------------------------------------------
# de Rham: P^{1|1} via global-section complexes


def _differential_error(key):
    return WindowOverflowError("differential leaves the section window")


def _derham_p11(atlas, picture, lo, hi, cutoff, memo):
    # degree -> (Cech column labels, global sections as kernel combinations)
    levels = {i: _cech_solve(atlas, (i, picture), cutoff, memo)[:2] for i in range(lo - 1, hi + 2)}
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
# anything (the tests eliminate the full blocks as the oracle).  The D+2
# rerun of `_rerun` is still made: at D = 0 the box holds only u = 0, so a
# picture p >= 1 reports no class and is not stabilized.


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
    if len(atlas.charts) == 1:
        compute = lambda c, _: _flat_derham(atlas, picture, lo, hi, c)
    else:
        # _cech_solve rejects any atlas that is not two 1|1 charts.
        if picture not in (0, 1):
            raise UnsupportedSpaceError("picture %d not supported on P^{1|1}" % picture)
        compute = lambda c, memo: _derham_p11(atlas, picture, lo, hi, c, memo)
    (dims, gens), (again, _) = _rerun(compute, cutoff)
    return CohomologyReport(
        space=label,
        cutoff=cutoff,
        dims=dims,
        generators=gens,
        stabilized=dims == again,
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
    against the H^1(Omega^{1|1}) generator psi*dg*delta(dpsi)/g.  Returns
    (matrix rows, exact rank); raises WindowOverflowError unless the `cech`
    reports of both sheaves are stabilized, as a truncated group truncates
    the matrix.
    """
    if n < 0:
        raise StructuralError("pairing index must be non-negative")
    atlas = builtin_p11()
    h1 = cech(atlas, (n + 1, 0), cutoff)
    h0 = cech(atlas, (-n, 1), cutoff)
    if not (h1.stabilized and h0.stabilized):
        raise WindowOverflowError(
            "pairing n=%d is not stabilized at cutoff %d; enlarge the cutoff" % (n, cutoff)
        )

    # The H^1 probe of Omega^{1|1} leaves the coboundaries plus the generator
    # as the pivots, which is the basis every product is reduced against.
    _, _, index, volume_reps, elims = _cech_solve(atlas, (1, 1), cutoff, {}, probe=True)
    generator = (Monomial((0,), (0,), (), ((0, 0),)), -1)
    if volume_reps != [generator]:
        raise StructuralError("the H^1(Omega^{1|1}) probe does not single out the generator")

    matrix = []
    for s, rep in enumerate(h1.generators_h1):
        row = []
        for t, parts in enumerate(h0.generators_h0):
            product = pair(rep, parts[rep.chart])
            vec = _coordinates(product, index, _overlap_key, _overlap_error)
            # A product of weights w1 and w2 reduces in the block of w1 + w2.
            elim = elims.get(_form_weight(product), Eliminator())
            combo = elim.insert(vec, ("prod", s, t))
            if combo is None:
                raise WindowOverflowError(
                    "pairing product escapes the coboundary window; enlarge the cutoff"
                )
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
    dom, kernels = _cech_solve(atlas, (0, 0), cutoff, {})[:2]
    base_level0 = [
        parts
        for parts in (_glue(atlas, dom, combo) for combo in kernels)
        if not any(m.thetas or m.dodds or m.deltas for form in parts.values() for m in form.terms)
    ]
    closed0 = [
        parts for parts in base_level0 if all(exterior_d(form).is_zero() for form in parts.values())
    ]
    base_dims = {0: len(closed0), 1: len(_cech_solve(atlas, (1, 0), cutoff, {})[1])}

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
