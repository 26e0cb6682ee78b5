"""Tests for the exact linear algebra and both cohomology pipelines."""

import contextlib
import dataclasses
import io
import json
import os
import random
import tempfile
import unittest
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from math import comb
from types import MappingProxyType
from unittest import mock

import sympy
from hypothesis import given, settings
from hypothesis.strategies import integers

from superforms import (
    Atlas,
    Chart,
    Eliminator,
    GeneratorTable,
    LaurentPoly,
    Monomial,
    Morphism,
    StructuralError,
    Superform,
    UnsupportedMorphismError,
    UnsupportedSpaceError,
    berezin_integral,
    builtin_flat,
    builtin_p11,
    cech,
    cech_derham_check,
    derham,
    exterior_d,
    load_atlas,
    lp_scale,
    normalize,
    pair,
    pairing_matrix,
    pretty_print,
    pullback,
)
from superforms import atlas_morphism, cohomology
from superforms.cli import run_command
from superforms.coeff_ring import _axpy
from superforms.cohomology import (
    _class_weights,
    _eliminate,
    _form_weight,
    _glue,
    _weight,
    p11_sheaf_monomials,
)

from formgen import axpy_oracle, random_poly, scaled_atlas, strict_form, strict_map

P11 = builtin_p11()
ACCEPTANCE_SHEAVES = (
    [(0, 0)] + [(n, 0) for n in range(1, 6)] + [(-n, 1) for n in range(6)] + [(1, 1)]
)
ONE = LaurentPoly.const(("g",), 1)
INVERSE = LaurentPoly.monomial(("g",), (-1,))


def solve_sheaf(atlas, sheaf):
    """The `_solve` labels of one sheaf (degree, picture) across the atlas's
    checked transition, as `cech` reads them."""
    return cohomology._solve(cohomology._transition(atlas), *sheaf)


def glued_p11(even, odd):
    """P11 with the transition (U0, U1) replaced by g -> even and psi -> odd*psi,
    or psi -> 0 for odd None.  Built through the API, so no cocycle check."""
    u0, u1 = P11.chart("U0"), P11.chart("U1")
    transitions = dict(P11.transitions)
    images = () if odd is None else ((odd, 0),)
    transitions[("U0", "U1")] = Morphism(u0, u1, {0: even}, {0: images})
    return Atlas({"U0": u0, "U1": u1}, transitions)


# g -> 2/g, psi -> psi glues P^1 x C^{0|1}.
P1_TIMES_ODD_LINE = glued_p11(lp_scale(INVERSE, 2), ONE)
# The gluings y = b/x, s = c*x^k*t the memoized Cech solve is checked on
# beside P11: b = 2 and b = -1/3 scale its U1 columns, and (2, 3, 2) also
# twists psi.
GLUINGS = (P11, scaled_atlas(), scaled_atlas(Fraction(-1, 3)), scaled_atlas(2, 3, 2))


def random_columns(rng, rows, count, density=0.6):
    cols = []
    for _ in range(count):
        col = {}
        for r in range(rows):
            if rng.random() < density:
                col[r] = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        cols.append({r: c for r, c in col.items() if c})
    return cols


def as_sympy(cols, rows):
    return sympy.Matrix([[cols[j].get(i, Fraction(0)) for j in range(len(cols))] for i in range(rows)])


class TestEliminator(unittest.TestCase):
    @settings(deadline=None, max_examples=40)
    @given(integers(0, 10**6))
    def test_rank_matches_reference(self, seed):
        rng = random.Random(seed)
        rows, count = rng.randint(1, 6), rng.randint(1, 8)
        cols = random_columns(rng, rows, count)
        elim = Eliminator()
        for t, col in enumerate(cols):
            elim.insert(col, t)
        self.assertEqual(elim.rank, as_sympy(cols, rows).rank())

    @settings(deadline=None, max_examples=40)
    @given(integers(0, 10**6))
    def test_dependency_combos_reconstruct_zero(self, seed):
        rng = random.Random(seed)
        rows, count = rng.randint(1, 6), rng.randint(2, 9)
        cols = random_columns(rng, rows, count)
        elim = Eliminator()
        for t, col in enumerate(cols):
            combo = elim.insert(col, t)
            if combo is None:
                continue
            self.assertEqual(combo[t], 1)
            total = {}
            for tag, weight in combo.items():
                for r, c in cols[tag].items():
                    total[r] = total.get(r, Fraction(0)) + weight * c
            self.assertTrue(all(v == 0 for v in total.values()), msg=str(total))

    def test_duplicate_column_dependency(self):
        elim = Eliminator()
        col = {0: Fraction(2), 2: Fraction(-1)}
        self.assertIsNone(elim.insert(col, "a"))
        combo = elim.insert(dict(col), "b")
        self.assertEqual(combo, {"b": 1, "a": -1})

    def test_zero_column(self):
        elim = Eliminator()
        combo = elim.insert({}, "z")
        self.assertEqual(combo, {"z": 1})
        self.assertEqual(elim.rank, 0)

    def test_int_entries_give_fraction_pivots(self):
        # Fractions are taken as they are; ints are still converted, or
        # dividing by the lead entry would give floats.
        elim = Eliminator()
        self.assertIsNone(elim.insert({0: 2, 1: 3}, "a"))
        self.assertIsNone(elim.insert({1: Fraction(1, 2), 2: 4}, "b"))
        combo = elim.insert({0: 4, 1: 7, 2: 8}, "c")
        for vec, pcombo in elim.pivots.values():
            for c in list(vec.values()) + list(pcombo.values()):
                self.assertIs(type(c), Fraction)
        self.assertEqual(combo, {"c": 1, "a": -2, "b": -2})
        self.assertTrue(all(type(c) is Fraction for c in combo.values()))


class MultiplyingEliminator(Eliminator):
    """The earlier insert, kept as the oracle of the unit shortcuts: every
    update multiplies and adds (`axpy_oracle`) and every new pivot is
    divided by its lead, 1 or not.  `leads` lists the leads of the pivots."""

    def __init__(self):
        super().__init__()
        self.leads = []

    def _reduce(self, vec, combo):
        for r in sorted(vec.keys() & self.pivots.keys()):
            pvec, pcombo = self.pivots[r]
            factor = -vec[r]
            axpy_oracle(vec, pvec.items(), factor)
            axpy_oracle(combo, pcombo.items(), factor)

    def insert(self, vec, tag):
        vec = {r: c if isinstance(c, Fraction) else Fraction(c) for r, c in vec.items() if c}
        combo = {tag: Fraction(1)}
        self._reduce(vec, combo)
        if not vec:
            return combo
        r = min(vec)
        lead = vec[r]
        self.leads.append(lead)
        vec = {row: c / lead for row, c in vec.items()}
        combo = {t: c / lead for t, c in combo.items()}
        for pvec, pcombo in self.pivots.values():
            if r in pvec:
                factor = -pvec[r]
                axpy_oracle(pvec, vec.items(), factor)
                axpy_oracle(pcombo, combo.items(), factor)
        self.pivots[r] = (vec, combo)
        return None


class TestUnitShortcuts(unittest.TestCase):
    def test_eliminator_matches_multiplying_insert(self):
        # Integer blocks whose entries are mostly +-1, so that many leads
        # and factors are units and the others are not: the same rank,
        # pivots and kernels, in order and with their types.
        rng = random.Random(34)
        leads = []
        for _ in range(300):
            rows, count = rng.randint(1, 6), rng.randint(1, 9)
            cols = [
                {r: rng.choice((1, -1, 1, -1, 2, -3, 0)) for r in range(rows) if rng.random() < 0.6}
                for _ in range(count)
            ]
            fast, slow = Eliminator(), MultiplyingEliminator()
            for t, col in enumerate(cols):
                got, want = fast.insert(col, t), slow.insert(col, t)
                self.assertEqual(got is None, want is None, msg=cols)
                if got is not None:
                    self.assertEqual(strict_map(got), strict_map(want), msg=cols)
            leads += slow.leads
            self.assertEqual(fast.rank, slow.rank)
            self.assertEqual(list(fast.pivots), list(slow.pivots))
            for r, (vec, combo) in fast.pivots.items():
                self.assertEqual(strict_map(vec), strict_map(slow.pivots[r][0]), msg=cols)
                self.assertEqual(strict_map(combo), strict_map(slow.pivots[r][1]), msg=cols)
        self.assertTrue({1, -1} < set(leads), msg=set(leads))

    def test_shortcuts_keep_fractions(self):
        # On P^{1|1} (g -> 1/g) and on the scaled atlas (y = 2/x, where the
        # block-free U1 columns carry b^lambda1(M) and the U0 coefficients of
        # the kernels b^-lambda) every coefficient of the Cech kernels, the
        # pairing entries and the pullback images is a Fraction.
        rng = random.Random(35)
        for atlas in (P11, scaled_atlas()):
            c0, c1 = sorted(atlas.charts)
            m01, table = atlas.transition(c0, c1), atlas.chart(c1).table
            for i in range(-3, 4):
                for picture in (0, 1):
                    kernels = solve_sheaf(atlas, (i, picture))[1]
                    for combo in kernels:
                        self.assertEqual({type(c) for c in combo.values()}, {Fraction}, msg=(c0, i, picture))
                    for mon in p11_sheaf_monomials(i, picture):
                        for poly in (LaurentPoly.const(table.even_names, 1), random_poly(rng, table.even_names)):
                            image = pullback(m01, Superform(c1, table, {mon: poly}))
                            types = {type(c) for lp in image.terms.values() for c in lp.terms.values()}
                            self.assertLessEqual(types, {Fraction}, msg=(c0, mon))
            with mock.patch.object(cohomology, "builtin_p11", lambda: atlas):
                for n in range(5):
                    matrix, _ = pairing_matrix(n, 2 * n + 5)
                    self.assertEqual({type(c) for row in matrix for c in row}, {Fraction}, msg=(c0, n))


# The complex walk and the coordinate read the oracles below are built on.
# derham needs neither: every P^{1|1} and flat class lies in degree 0, where
# d is zero.


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
            _axpy(acc, cols_second[s].items(), c)
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


def as_columns(matrix):
    return [
        {i: Fraction(str(matrix[i, j])) for i in range(matrix.rows) if matrix[i, j]}
        for j in range(matrix.cols)
    ]


class TestComplexCohomology(unittest.TestCase):
    @settings(deadline=None, max_examples=40)
    @given(integers(0, 10**6))
    def test_matches_sympy_on_exact_complexes(self, seed):
        # C^-1 -> C^0 -> C^1 -> C^2.  Each d after the first is B * Y^T, where
        # the rows of Y^T annihilate the image of the previous d, so
        # consecutive differentials compose to zero.
        rng = random.Random(seed)
        sizes = [rng.randint(0, 5), rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 5)]
        first = sympy.Matrix(sizes[1], sizes[0], lambda i, j: rng.choice([0, 0, 1, -1, 2, -3]))
        if sizes[0] >= 2 and rng.random() < 0.5:
            first[:, 1] = 2 * first[:, 0]
        d = [first]
        for rows in sizes[2:]:
            left_null = d[-1].T.nullspace()
            if left_null and rows:
                mixer = sympy.Matrix(rows, len(left_null), lambda i, j: rng.randint(-2, 2))
                d.append(mixer * sympy.Matrix.hstack(*left_null).T)
            else:
                d.append(sympy.zeros(rows, d[-1].rows))
            self.assertEqual(d[-1] * d[-2], sympy.zeros(rows, d[-2].cols))

        dims, reps = _complex_cohomology({i - 1: as_columns(m) for i, m in enumerate(d)}, 0, 1)

        for i in (0, 1):
            d_in, d_out = d[i], d[i + 1]
            n = d_out.cols
            self.assertEqual(dims[i], n - d_out.rank() - d_in.rank())
            self.assertEqual(len(reps[i]), dims[i])
            rep_matrix = sympy.Matrix(n, len(reps[i]), lambda r, k: reps[i][k].get(r, 0))
            self.assertEqual(d_out * rep_matrix, sympy.zeros(d_out.rows, len(reps[i])))
            together = sympy.Matrix.hstack(d_in, rep_matrix)
            self.assertEqual(together.rank(), d_in.rank() + len(reps[i]))

    def test_rejects_non_complex(self):
        with self.assertRaises(StructuralError):
            _complex_cohomology({-1: [{0: Fraction(1)}], 0: [{0: Fraction(1)}]}, 0, 0)


class TestSheafBases(unittest.TestCase):
    def test_picture_zero_monomials(self):
        self.assertEqual([pretty_print_mon(m) for m in p11_sheaf_monomials(0, 0)], ["1", "psi"])
        self.assertEqual(
            [pretty_print_mon(m) for m in p11_sheaf_monomials(2, 0)],
            ["dg*dpsi", "psi*dg*dpsi", "dpsi^2", "psi*dpsi^2"],
        )

    def test_picture_one_monomials(self):
        self.assertEqual(
            [pretty_print_mon(m) for m in p11_sheaf_monomials(-1, 1)],
            ["delta'(dpsi)", "psi*delta'(dpsi)", "dg*delta''(dpsi)", "psi*dg*delta''(dpsi)"],
        )
        self.assertEqual(
            [pretty_print_mon(m) for m in p11_sheaf_monomials(1, 1)],
            ["dg*delta(dpsi)", "psi*dg*delta(dpsi)"],
        )

    def test_unsupported_picture(self):
        with self.assertRaises(UnsupportedSpaceError):
            p11_sheaf_monomials(0, 2)

    def test_built_in_listing_order(self):
        # The oracle enumerates every monomial in psi, dg and one dpsi power
        # or delta order of bidegree (i, picture), and sorts by the listing
        # key, which expands dpsi^b into b atoms.
        for picture in (0, 1):
            for i in range(-60, 61):
                tops = (
                    [((0, b),) if b else () for b in range(i + 1)]
                    if picture == 0
                    else [((0, k),) for k in range(abs(i) + 2)]
                )
                candidates = [
                    Monomial(thetas, devens, *((top, ()) if picture == 0 else ((), top)))
                    for top in tops
                    for thetas in ((), (0,))
                    for devens in ((), (0,))
                ]
                want = sorted((m for m in candidates if m.degree() == i), key=Monomial.sort_key)
                self.assertEqual(p11_sheaf_monomials(i, picture), want, msg=(i, picture))

    def test_unchecked_monomials_are_normal(self):
        # p11_sheaf_monomials wraps its pairs unchecked; the field
        # constructor, which checks the normal form, builds each of them
        # again as the same pairs.
        for picture in (0, 1):
            for i in range(-500, 1003):
                for mon in p11_sheaf_monomials(i, picture):
                    checked = Monomial(mon.thetas, mon.devens, mon.dodds, mon.deltas)
                    self.assertEqual(checked.powers(), mon.powers(), msg=(i, picture))

    def test_degree_must_be_an_int(self):
        # A float degree would give a dpsi power or delta order that is no int.
        for sheaf in ((2.0, 0), (-2.0, 1), (Fraction(1), 0)):
            with self.assertRaises(StructuralError, msg=sheaf):
                p11_sheaf_monomials(*sheaf)

    def test_float_degree_rejected_warm_and_cold(self):
        # (2.0, 0) == (2, 0), so the solve and pairing memos are typed: a
        # float degree, picture or index misses the entry of its int and is
        # refused inside, after its int was answered, in a cold process and
        # after the int again.
        def answer_ints():
            cech(P11, (2, 0), 4)
            cech(P11, (-2, 1), 4)
            cech(P11, (0, 1), 4)
            pairing_matrix(1, 4)

        def assert_floats_raise(when):
            for sheaf in ((2.0, 0), (-2.0, 1), (Fraction(2), 0)):
                with self.assertRaisesRegex(StructuralError, "must be an int", msg=(when, sheaf)):
                    cech(P11, sheaf, 4)
            with self.assertRaisesRegex(UnsupportedSpaceError, r"picture 1\.0 not", msg=when):
                cech(P11, (0, 1.0), 4)
            for n in (1.0, Fraction(1)):
                with self.assertRaisesRegex(StructuralError, "pairing index must be an int", msg=(when, n)):
                    pairing_matrix(n, 4)

        answer_ints()
        assert_floats_raise("warm")
        cohomology._solve.cache_clear()
        cohomology._pairing.cache_clear()
        assert_floats_raise("cold")
        answer_ints()
        assert_floats_raise("warm again")

    def test_section_basis_blocks(self):
        # Phi*(1) and Phi*(psi) have first weights 0 and -1, so only the
        # blocks lambda = 0 are solved: U0 takes g^e*M with e = lambda -
        # #dg(M) >= 0 and U1 takes g'^e*M with e = lambda1(M) - lambda >= 0,
        # U0's columns before U1's, each in (monomial, exponent) order.
        def solved(sheaf):
            cohomology._solve.cache_clear()
            blocks = []
            record = lambda cols: blocks.append(cols) or _eliminate(cols)
            with mock.patch.object(cohomology, "_eliminate", side_effect=record):
                return solve_sheaf(P11, sheaf), blocks

        (dom, _, _), blocks = solved((0, 0))
        self.assertEqual(
            [(cid, pretty_print_mon(m), e) for cid, m, (e,) in dom],
            [("U0", "1", 0), ("U0", "psi", 0), ("U1", "1", 0)],
        )
        # Blocks (0, 0) and (0, 1): U0 1 with U1 1, and U0 psi.
        self.assertEqual(blocks, [[{0: 1}, {0: -1}], [{1: 1}]])
        # One row per sheaf monomial of the block, keyed by its position:
        # block (0, -1) has the U1 column, block (0, 0) none.
        (dom, _, reps), blocks = solved((1, 1))
        self.assertEqual(
            [(cid, pretty_print_mon(m), e) for cid, m, (e,) in dom],
            [("U1", "dg*delta(dpsi)", 0)],
        )
        self.assertEqual(blocks, [[{0: 1}], []])
        self.assertEqual([(pretty_print_mon(m), e) for m, e in reps], [("psi*dg*delta(dpsi)", -1)])


class TestCech(unittest.TestCase):
    def test_structure_sheaf(self):
        report = cech(P11, (0, 0), 8)
        self.assertEqual((report.h0, report.h1), (1, 0))
        self.assertTrue(report.stabilized)
        self.assertEqual(pretty_print(report.generators_h0[0]["U0"]), "1")

    def test_positive_twist_has_only_h1(self):
        report = cech(P11, (1, 0), 8)
        self.assertEqual((report.h0, report.h1), (0, 4))
        self.assertTrue(report.stabilized)

    def test_negative_twist_has_only_h0(self):
        report = cech(P11, (-2, 1), 8)
        self.assertEqual((report.h0, report.h1), (12, 0))
        self.assertTrue(report.stabilized)

    def test_volume_sheaf_class(self):
        report = cech(P11, (1, 1), 8)
        self.assertEqual((report.h0, report.h1), (0, 1))
        self.assertEqual(pretty_print(report.generators_h1[0]), "g^-1*psi*dg*delta(dpsi)")

    def test_kernel_generators_actually_glue(self):
        m01 = P11.transition("U0", "U1")
        report = cech(P11, (-1, 1), 8)
        self.assertEqual(report.h0, 8)
        for parts in report.generators_h0:
            diff = parts["U0"] - pullback(m01, parts["U1"])
            self.assertTrue(diff.is_zero())

    def test_space_label_or_atlas(self):
        # cech takes a space like derham does: an Atlas or a label.
        for sheaf in ((0, 0), (1, 0), (-1, 1), (1, 1)):
            report = cech("p11", sheaf, 6)
            self.assertEqual(report, cech(P11, sheaf, 6), msg=sheaf)
            self.assertEqual(report.space, "p11")
        with self.assertRaises(UnsupportedSpaceError):
            cech("flat:1,1", (0, 0), 4)

    def test_small_cutoff_is_exact(self):
        # The blocks are complete at any cutoff: below |i|+2 the probe window
        # used to be empty, and 5|0 at cutoff 3 reported h1 = 0 unstabilized.
        report = cech(P11, (5, 0), 3)
        self.assertEqual((report.h0, report.h1, report.stabilized), (0, 20, True))
        self.assertEqual(report, dataclasses.replace(cech(P11, (5, 0), 40), cutoff=3))

    def test_chart_ids_and_transition_coefficients_are_free(self):
        # P^{1|1} glued by y = 2/x, s = t/x: an isomorphic atlas whose charts
        # are not called U0/U1 and whose transition carries a coefficient 2^e.
        # No chart id is reserved, so the first chart may be called "overlap".
        want_cech = {
            (sheaf, cutoff): cech(P11, sheaf, cutoff)
            for cutoff in (3, 8)
            for sheaf in ACCEPTANCE_SHEAVES
        }
        want_derham = [derham(P11, 0, (0, 3), 6), derham(P11, 1, (-2, 1), 6)]
        for c0, c1 in (("A", "B"), ("overlap", "zz")):
            spec = {
                "charts": {c0: {"even": ["x"], "odd": ["t"]}, c1: {"even": ["y"], "odd": ["s"]}},
                "transitions": [
                    {"source": c0, "target": c1, "even_images": {"y": "2*x^-1"},
                     "odd_images": {"s": "t*x^-1"}},
                    {"source": c1, "target": c0, "even_images": {"x": "2*y^-1"},
                     "odd_images": {"t": "2*s*y^-1"}},
                ],
            }
            with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
                json.dump(spec, fh)
            self.addCleanup(os.unlink, fh.name)
            atlas = load_atlas(fh.name)
            m01 = atlas.transition(c0, c1)
            for (sheaf, cutoff), want in want_cech.items():
                got = cech(atlas, sheaf, cutoff)
                msg = "%r at %d on %s/%s" % (sheaf, cutoff, c0, c1)
                self.assertEqual(
                    (got.h0, got.h1, got.stabilized), (want.h0, want.h1, want.stabilized), msg=msg
                )
                for parts in got.generators_h0:
                    self.assertEqual(sorted(parts), [c0, c1], msg=msg)
                    self.assertEqual(pullback(m01, parts[c1]), parts[c0], msg=msg)
                self.assertTrue(all(g.chart == c0 for g in got.generators_h1), msg=msg)
            got_derham = [derham(atlas, 0, (0, 3), 6), derham(atlas, 1, (-2, 1), 6)]
            for got, want in zip(got_derham, want_derham):
                self.assertEqual((got.dims, got.stabilized), (want.dims, want.stabilized), msg=c0)


    def test_transition_exponent_must_be_minus_one(self):
        # The blocks are finite and complete only for g -> b*g^-1.  Through
        # the API, g -> 2g answered h0(0|0) = 22, h1 = 8 unstabilized at
        # cutoff 10, and g -> 2g^-2 raised WindowOverflowError.
        for exponent in (1, -2, 0):
            atlas = glued_p11(lp_scale(LaurentPoly.monomial(("g",), (exponent,)), 2), ONE)
            for sheaf in ((0, 0), (1, 1)):
                with self.assertRaises(UnsupportedMorphismError, msg=(exponent, sheaf)):
                    cech(atlas, sheaf, 10)
            with self.assertRaises(UnsupportedMorphismError, msg=exponent):
                derham(atlas, 0, (0, 1), 6)
        # g -> 2/g, psi -> psi glues P^1 x C^{0|1}: H^0(O) holds 1 and psi.
        report = cech(P1_TIMES_ODD_LINE, (0, 0), 10)
        self.assertEqual((report.h0, report.h1, report.stabilized), (2, 0, True))
        self.assertEqual([pretty_print(parts["U0"]) for parts in report.generators_h0], ["1", "psi"])

    def test_zero_odd_image_rejected(self):
        # psi -> 0 kills psi; picture 0 used to answer h0(0|0) = 8 unstabilized.
        with self.assertRaises(UnsupportedMorphismError):
            cech(glued_p11(INVERSE, None), (0, 0), 6)

    def test_rejected_transition_rejected_for_every_sheaf_and_range(self):
        # The transition is checked from its generator images before any
        # sheaf is looked at.  A sheaf without monomials (4|1, -1|0) has
        # nothing to pull back, so psi -> 0 and psi -> (1+g)*psi used to
        # answer h0 = h1 = 0 there, and derham over a range whose levels
        # have no monomials, or none of weight (0, 0), all zeros.
        rejected = {
            "g -> 2g": glued_p11(lp_scale(LaurentPoly.monomial(("g",), (1,)), 2), ONE),
            "g -> 2g^-2": glued_p11(lp_scale(LaurentPoly.monomial(("g",), (-2,)), 2), ONE),
            "g -> 2": glued_p11(LaurentPoly.const(("g",), 2), ONE),
            "psi -> 0": glued_p11(INVERSE, None),
            "psi -> (1+g)*psi": glued_p11(INVERSE, LaurentPoly(("g",), {(0,): 1, (1,): 1})),
        }
        ranges = ((0, (0, 1)), (0, (3, 5)), (1, (-8, -3)), (1, (4, 6)))
        for name, atlas in rejected.items():
            for sheaf in ((0, 0), (4, 1), (-1, 0)):
                with self.assertRaises(UnsupportedMorphismError, msg=(name, sheaf)):
                    cech(atlas, sheaf, 6)
            for picture, degrees in ranges:
                with self.assertRaises(UnsupportedMorphismError, msg=(name, picture, degrees)):
                    derham(atlas, picture, degrees, 6)
        for sheaf in ((0, 0), (4, 1), (-1, 0)):
            report = cech(P1_TIMES_ODD_LINE, sheaf, 6)
            self.assertTrue(report.stabilized, msg=sheaf)
        for picture, degrees in ranges:
            report = derham(P1_TIMES_ODD_LINE, picture, degrees, 6)
            want = {(i, picture): int(i == 0) for i in range(degrees[0], degrees[1] + 1)}
            self.assertEqual(report.dims, want, msg=(picture, degrees))

    def test_transition_to_another_chart_rejected(self):
        # The sheaf monomials are pulled back from the transition's own
        # target chart, which must be the atlas's second chart.
        u0, u1 = P11.chart("U0"), P11.chart("U1")
        inverse = LaurentPoly.monomial(("g",), (-1,))
        transitions = dict(P11.transitions)
        transitions[("U0", "U1")] = Morphism(u0, Chart("V", u1.table), {0: inverse}, {0: ((inverse, 0),)})
        with self.assertRaises(StructuralError):
            cech(Atlas({"U0": u0, "U1": u1}, transitions), (0, 0), 4)

    def test_transition_from_another_chart_rejected(self):
        # The solve labels its columns with the transition's own chart ids,
        # so the transition (U0, U1) must start on U0.
        u0, u1 = P11.chart("U0"), P11.chart("U1")
        inverse = LaurentPoly.monomial(("g",), (-1,))
        transitions = dict(P11.transitions)
        transitions[("U0", "U1")] = Morphism(Chart("V", u0.table), u1, {0: inverse}, {0: ((inverse, 0),)})
        with self.assertRaises(StructuralError):
            cech(Atlas({"U0": u0, "U1": u1}, transitions), (0, 0), 4)

    def test_weight_mixing_transition_rejected(self):
        # An atlas built through the API skips load_atlas's cocycle check.
        # psi -> (1+g)*psi mixes torus weights, so its Cech system is no
        # direct sum of weight blocks; picture 0 used to answer h0 = 2 for
        # Omega^{0|0} (the built-in atlas gives 1) with stabilized = True.
        atlas = glued_p11(INVERSE, LaurentPoly(("g",), {(0,): 1, (1,): 1}))
        for sheaf in ((0, 0), (1, 0), (0, 1)):
            with self.assertRaises(UnsupportedMorphismError, msg=sheaf):
                cech(atlas, sheaf, 6)
        with self.assertRaises(UnsupportedMorphismError):
            derham(atlas, 0, (0, 1), 6)


class WindowOverflow(Exception):
    """A section or product of a windowed oracle left its window."""


def _overlap_error(key):
    return WindowOverflow("section leaves the overlap window at %r" % (key,))


def windowed_cech_solve(atlas, sheaf, cutoff):
    """The Cech solve of one cutoff, kept as the oracle of the exact solve:
    chart sections of exponent <= cutoff, overlap rows in the window
    [-(cutoff+|i|+4), cutoff+|i|+4], one Eliminator per torus-weight block,
    and H^1 read off the unit vectors of the inner window of half-width
    max(0, min(|i|+4, cutoff-|i|-1)).  Returns (dom, kernels, index, reps,
    elims)."""
    mons = p11_sheaf_monomials(*sheaf)
    w = cutoff + abs(sheaf[0]) + 4
    index = {el: r for r, el in enumerate(product(mons, range(-w, w + 1)))}
    sections = list(product(mons, range(cutoff + 1)))
    n = len(sections)
    c0, c1 = sorted(atlas.charts)
    m01 = atlas.transition(c0, c1)
    table = m01.target.table
    (a,), b = m01.even_images[0].single_term()
    one = LaurentPoly.const(table.even_names, 1)
    pulled = {mon: pullback(m01, Superform(c1, table, {mon: one})) for mon in mons}
    dom = [(c0, mon, (e,)) for mon, e in sections] + [(c1, mon, (e,)) for mon, e in sections]
    unit = lambda el: {index[el]: Fraction(1)}

    def column(t):
        mon, e = sections[t % n]
        if t < n:
            return unit((mon, e))
        key = lambda m, exps: (m, exps[0] + a * e)
        col = _coordinates(pulled[mon], index, key, _overlap_error)
        return {r: -(c * b**e) for r, c in col.items()}

    cols = {}
    for t, (mon, e) in enumerate(sections):
        cols.setdefault(_weight(mon, e), []).append(t)
    for t, (mon, e) in enumerate(sections, n):
        lam, mu = _form_weight(pulled[mon])
        cols.setdefault((lam + a * e, mu), []).append(t)
    probes = {}
    inner = max(0, min(abs(sheaf[0]) + 4, cutoff - abs(sheaf[0]) - 1))
    for el in product(mons, range(-inner, inner + 1)):
        probes.setdefault(_weight(*el), []).append(el)

    kernels, reps, elims = [], [], {}
    for wt in cols | probes:
        ts = cols.get(wt, [])
        elim, block_kernels = _eliminate([column(t) for t in ts])
        reps += [el for el in probes.get(wt, []) if elim.insert(unit(el), el) is None]
        elims[wt] = elim
        kernels += [{ts[j]: c for j, c in combo.items()} for combo in block_kernels]
    kernels.sort(key=max)
    reps.sort(key=index.__getitem__)
    return dom, kernels, index, reps, elims


def single_eliminator_cech(atlas, sheaf, cutoff):
    """The windowed Cech system eliminated in one Eliminator, with the unit
    vectors of the H^1 probe window inserted after all columns: an oracle
    that assumes no weight blocks.  Returns (dom, kernels, probe hits)."""
    i = sheaf[0]
    mons = p11_sheaf_monomials(*sheaf)
    w = cutoff + abs(i) + 4
    index = {el: r for r, el in enumerate(product(mons, range(-w, w + 1)))}
    sections = list(product(mons, range(cutoff + 1)))
    c0, c1 = sorted(atlas.charts)
    m01 = atlas.transition(c0, c1)
    table = m01.target.table
    (a,), b = m01.even_images[0].single_term()
    one = LaurentPoly.const(table.even_names, 1)
    pulled = {mon: pullback(m01, Superform(c1, table, {mon: one})) for mon in mons}
    dom = [(c0, mon, (e,)) for mon, e in sections]
    cols = [{index[el]: Fraction(1)} for el in sections]
    for mon, e in sections:
        dom.append((c1, mon, (e,)))
        key = lambda m, exps: (m, exps[0] + a * e)
        col = _coordinates(pulled[mon], index, key, _overlap_error)
        cols.append({r: -(c * b**e) for r, c in col.items()})
    elim, kernels = _eliminate(cols)
    inner = max(0, min(abs(i) + 4, cutoff - abs(i) - 1))
    hits = [
        el
        for el, r in index.items()
        if abs(el[1]) <= inner and elim.insert({r: Fraction(1)}, el) is None
    ]
    return dom, kernels, hits


def per_block_solve(m01, sheaf):
    """The Cech solve that eliminates every weight block afresh, kept as the
    oracle of the solve that eliminates each distinct block once.  Returns
    (dom, kernels, reps) as `_solve` does."""
    mons = p11_sheaf_monomials(*sheaf)
    position = {mon: k for k, mon in enumerate(mons)}
    c0, c1 = m01.source.id, m01.target.id
    _, b = m01.even_images[0].single_term()
    one = LaurentPoly.const(m01.target.table.even_names, 1)
    pulled = {mon: pullback(m01, Superform(c1, m01.target.table, {mon: one})) for mon in mons}
    weights = {mon: _form_weight(pulled[mon]) for mon in mons}
    lo, hi = _class_weights([weights[mon][0] for mon in mons])
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
        column = {position[m]: -c for m, lp in pulled[mon].terms.items() for c in lp.terms.values()}
        for e in range(max(0, lam - hi), lam - lo + 1):
            blocks[lam - e, mu].append(len(dom))
            dom.append((c1, mon, (e,)))
            columns.append({r: c * b**e for r, c in column.items()})
    kernels, reps = [], []
    for (lam, mu), ts in blocks.items():
        elim, block_kernels = _eliminate([columns[t] for t in ts])
        kernels += [{ts[j]: c for j, c in combo.items()} for combo in block_kernels]
        rows = [(k, lam - own[mon][0]) for k, mon in enumerate(mons) if own[mon][1] == mu]
        reps += [el for el in rows if elim.insert({el[0]: Fraction(1)}, el) is None]
    kernels.sort(key=max)
    reps = tuple((mons[k], e) for k, e in sorted(reps))
    return tuple(dom), tuple(MappingProxyType(k) for k in kernels), reps


def column_blocks(atlas, dom):
    """The weight blocks a solve lays its columns out in, read off the
    labels: {weight: column count}.  A U0 label g^e*M has the weight of M
    shifted by (e, 0), a U1 label that of its pullback."""
    c0, c1 = sorted(atlas.charts)
    m01 = atlas.transition(c0, c1)
    table = m01.target.table
    sizes = Counter()
    for cid, mon, exps in dom:
        if cid == c0:
            sizes[_weight(mon, exps[0])] += 1
        else:
            label = Superform(c1, table, {mon: LaurentPoly.monomial(table.even_names, exps)})
            sizes[_form_weight(pullback(m01, label))] += 1
    return sizes


def labelled(dom, kernels):
    """Kernel combinations as (label, coeff) lists, in key order."""
    return [[(dom[t], c) for t, c in combo.items()] for combo in kernels]


class TestWeightBlocks(unittest.TestCase):
    SHEAVES = [(i, j) for i in range(-8, 9) for j in (0, 1)]

    def test_blockwise_solve_matches_single_eliminator(self):
        # The exact solve equals the windowed solve at cutoff 40 (kernels
        # with their key order, H^1 representatives in order), and cech gives
        # the same strict generators at every cutoff 0..12, also when the
        # transition carries a coefficient.  On P11 the windowed solve is
        # checked in turn against one Eliminator for the whole system.
        for atlas in (P11, scaled_atlas()):
            c0 = min(atlas.charts)
            for sheaf in self.SHEAVES:
                msg = (c0, sheaf)
                dom, kernels, _, reps, _ = windowed_cech_solve(atlas, sheaf, 40)
                if atlas is P11 and abs(sheaf[0]) <= 4:
                    want_dom, want_kernels, want_reps = single_eliminator_cech(atlas, sheaf, 40)
                    self.assertEqual(labelled(dom, kernels), labelled(want_dom, want_kernels), msg)
                    self.assertEqual(reps, want_reps, msg=msg)
                got_dom, got_kernels, got_reps = solve_sheaf(atlas, sheaf)
                self.assertEqual(labelled(got_dom, got_kernels), labelled(dom, kernels), msg=msg)
                self.assertEqual(list(got_reps), reps, msg=msg)
                want_h0 = [
                    [(cid, strict_form(f)) for cid, f in _glue(atlas, dom, k).items()] for k in kernels
                ]
                want_h1 = [strict_form(_glue(atlas, [(c0, m, (e,))], {0: Fraction(1)})[c0]) for m, e in reps]
                for cutoff in range(13):
                    report = cech(atlas, sheaf, cutoff)
                    got_h0 = [
                        [(cid, strict_form(f)) for cid, f in parts.items()]
                        for parts in report.generators_h0
                    ]
                    self.assertEqual(got_h0, want_h0, msg=(msg, cutoff))
                    self.assertEqual(
                        [strict_form(f) for f in report.generators_h1], want_h1, msg=(msg, cutoff)
                    )
                    self.assertTrue(report.stabilized, msg=(msg, cutoff))

    def test_kernel_leads(self):
        # `global_section_complex` reads a global vector's coordinates at
        # the kernels' leads: each kernel is 1 at its largest column, a
        # column of the second chart that no other kernel has, also where
        # the U0 coefficients were scaled by b^-lambda.
        for atlas in GLUINGS:
            c1 = max(atlas.charts)
            for sheaf in product(range(-12, 13), (0, 1)):
                dom, kernels, _ = solve_sheaf(atlas, sheaf)
                for k in kernels:
                    lead = max(k)
                    msg = (c1, sheaf, dom[lead])
                    self.assertEqual(k[lead], 1, msg=msg)
                    self.assertEqual(dom[lead][0], c1, msg=msg)
                    self.assertEqual(sum(lead in other for other in kernels), 1, msg=msg)

    def test_transitions_compare_by_their_images(self):
        # The Cech solves are cached by transition and sheaf: a morphism
        # built again with the same images shares them, other gluings do
        # not, and what was solved before does not change an answer.
        m01 = builtin_p11().transition("U0", "U1")
        inverse = LaurentPoly.monomial(("g",), (-1,))
        again = Morphism(P11.chart("U0"), P11.chart("U1"), {0: inverse}, {0: ((inverse, 0),)})
        self.assertIsNot(m01, again)
        self.assertEqual(m01, again)
        self.assertEqual(hash(m01), hash(again))
        self.assertNotEqual(m01, builtin_p11().transition("U1", "U0"))
        self.assertNotEqual(m01, scaled_atlas().transition("A", "B"))
        for even, odd in ((lp_scale(inverse, 2), inverse), (inverse, lp_scale(inverse, 2))):
            other = Morphism(P11.chart("U0"), P11.chart("U1"), {0: even}, {0: ((odd, 0),)})
            self.assertNotEqual(m01, other)

        def strict_cech(atlas):
            out = []
            for sheaf in self.SHEAVES:
                report = cech(atlas, sheaf, 6)
                h0 = [[(cid, strict_form(f)) for cid, f in parts.items()] for parts in report.generators_h0]
                out.append((h0, [strict_form(f) for f in report.generators_h1]))
            return out

        cohomology._solve.cache_clear()
        alone = strict_cech(scaled_atlas())
        cohomology._solve.cache_clear()
        strict_cech(P11)
        self.assertEqual(strict_cech(scaled_atlas()), alone)

    def test_second_solve_eliminates_nothing(self):
        # The solve is cached by (transition, sheaf), and a fresh build of
        # P11 shares its transitions, so a second cech eliminates no block.
        cohomology._solve.cache_clear()
        cech(builtin_p11(), (-3, 1), 5)
        with mock.patch.object(cohomology, "_eliminate", wraps=_eliminate) as eliminate:
            report = cech(builtin_p11(), (-3, 1), 5)
        self.assertEqual(eliminate.call_count, 0)
        self.assertEqual((report.h0, report.h1), (16, 0))

    def test_solve_returns_read_only_labels(self):
        # Every caller shares the cached solve, so none may change it.
        dom, kernels, reps = solve_sheaf(P11, (-3, 1))
        self.assertEqual([type(x) for x in (dom, kernels, reps)], [tuple] * 3)
        with self.assertRaises(TypeError):
            kernels[0][0] = Fraction(1)

    def test_widened_weight_range_changes_nothing(self):
        # Blocks outside _class_weights carry no class: solving six more
        # weights on each side lays out 12 more blocks per second weight,
        # each with columns, but adds no kernel and no H^1 row.  The cache
        # is cleared around each solve, so the widened one is computed and
        # then forgotten.
        wide = lambda lams: tuple(x + d for x, d in zip(_class_weights(lams), (-6, 6)))

        def solve(atlas, sheaf):
            cohomology._solve.cache_clear()
            result = solve_sheaf(atlas, sheaf)
            cohomology._solve.cache_clear()
            return result

        for atlas in (P11, scaled_atlas()):
            for sheaf in self.SHEAVES:
                dom, kernels, reps = solve(atlas, sheaf)
                with mock.patch.object(cohomology, "_class_weights", wide):
                    wide_dom, wide_kernels, wide_reps = solve(atlas, sheaf)
                msg = (sorted(atlas.charts), sheaf)
                self.assertEqual(labelled(wide_dom, wide_kernels), labelled(dom, kernels), msg=msg)
                self.assertEqual(wide_reps, reps, msg=msg)
                mus = {_weight(mon, 0)[1] for mon in p11_sheaf_monomials(*sheaf)}
                blocks, wide_blocks = column_blocks(atlas, dom), column_blocks(atlas, wide_dom)
                self.assertEqual(len(wide_blocks), len(blocks) + 12 * len(mus), msg=msg)
                self.assertLessEqual(blocks.items(), wide_blocks.items(), msg=msg)

    def test_solve_is_cutoff_free(self):
        # cech lays out the same blocks at every cutoff, and only those in
        # the weight range of _class_weights (the windowed solve eliminated
        # 235 blocks for -3|1 at cutoff 40 and again 14 at cutoff 42, and
        # the range one block wider at each end 18).
        layouts = {}
        for cutoff in (0, 40, 100000):
            cohomology._solve.cache_clear()
            report = cech(P11, (-3, 1), cutoff)
            self.assertEqual((report.h0, report.h1, report.stabilized), (16, 0, True))
            layouts[cutoff] = solve_sheaf(P11, (-3, 1))[0]
        self.assertEqual(layouts[0], layouts[40])
        self.assertEqual(layouts[0], layouts[100000])
        # lambda in 0..4 with the three second weights -5..-3 of each lambda.
        blocks = column_blocks(P11, layouts[0])
        self.assertEqual(sorted(blocks), [(lam, mu) for lam in range(5) for mu in (-5, -4, -3)])
        self.assertLessEqual(max(blocks.values()), 8)

    def test_memoized_solve_matches_per_block_oracle(self):
        # Blocks with the same (chart, monomial) columns and rows share one
        # elimination, and each block reads its kernels and H^1 rows off it:
        # the same labels, kernels in order with their coefficient types, and
        # representatives as eliminating every block afresh, also when the
        # transition scales the U1 columns of block lambda by b^-lambda
        # (b = 2, b = -1/3) and twists psi, where each block's U0
        # coefficients are rescaled.
        for atlas in GLUINGS:
            m01 = atlas.transition(*sorted(atlas.charts))
            for sheaf in product(range(-40, 41), (0, 1)):
                cohomology._solve.cache_clear()
                dom, kernels, reps = solve_sheaf(atlas, sheaf)
                want_dom, want_kernels, want_reps = per_block_solve(m01, sheaf)
                msg = (m01.source.id, sheaf)
                self.assertEqual(dom, want_dom, msg=msg)
                self.assertEqual([strict_map(k) for k in kernels], [strict_map(k) for k in want_kernels], msg=msg)
                self.assertEqual(reps, want_reps, msg=msg)
                self.assertEqual([type(x) for x in (dom, kernels, reps)], [tuple] * 3, msg=msg)
                self.assertTrue(all(type(k) is MappingProxyType for k in kernels), msg=msg)

    def test_cold_solve_eliminates_seven_blocks(self):
        # Away from the ends of the weight range the blocks of one second
        # weight hold the same (chart, monomial) columns: -2000|1 lays out
        # 6006 blocks and 2000|0 6003, and a cold solve of either eliminates
        # 7, whatever b scales the U1 columns by (eliminating every scaled
        # block took 6006 for -2000|1 on b = 2).  The twisted gluing
        # s = 3*x^2*t moves the first weights of the pulled monomials apart,
        # so one more edge block differs: 8, where every block took 12004
        # for 2000|0.
        cases = [(atlas, 7, ((8004, 0), (0, 8000))) for atlas in GLUINGS[:3]]
        cases.append((GLUINGS[3], 8, ((0, 16008), (16000, 0))))
        for atlas, count, dims in cases:
            for sheaf, want in zip(((-2000, 1), (2000, 0)), dims):
                msg = (sorted(atlas.charts), sheaf)
                cohomology._solve.cache_clear()
                with mock.patch.object(cohomology, "_eliminate", wraps=_eliminate) as eliminate:
                    report = cech(atlas, sheaf, 0)
                self.assertEqual(eliminate.call_count, count, msg=msg)
                self.assertEqual((report.h0, report.h1), want, msg=msg)
        cohomology._solve.cache_clear()

    def test_every_kernel_combines_its_columns_to_zero(self):
        # The full residual, which the solve checks only on each distinct
        # block outcome: every relabelled kernel, its U0 coefficients
        # rescaled, is a global section.  Each label is laid out by itself,
        # g^e*M on the overlap for U0 and -Phi*(g'^e*M), pulled back term by
        # term, for U1, and the kernel's combination of them is zero.
        for atlas in (P11, scaled_atlas()):
            c0, c1 = sorted(atlas.charts)
            m01, table = atlas.transition(c0, c1), atlas.chart(c1).table
            checked = 0
            for sheaf in product(range(-40, 41), (0, 1)):
                dom, kernels, _ = solve_sheaf(atlas, sheaf)
                columns = {}

                def column(t):
                    if t not in columns:
                        cid, mon, exps = dom[t]
                        if cid == c0:
                            columns[t] = {(mon, exps): Fraction(1)}
                        else:
                            label = Superform(c1, table, {mon: LaurentPoly.monomial(table.even_names, exps)})
                            image = pullback(m01, label).terms.items()
                            columns[t] = {(m, e): -c for m, lp in image for e, c in lp.terms.items()}
                    return columns[t]

                for combo in kernels:
                    residual = {}
                    for t, c in combo.items():
                        _axpy(residual, column(t).items(), c)
                    self.assertEqual(residual, {}, msg=(c0, sheaf, labelled(dom, [combo])))
                checked += len(kernels)
            self.assertEqual(checked, 3445, msg=c0)

    def test_corrupted_kernel_is_rejected(self):
        # Every distinct block outcome is checked when it is stored: a
        # kernel that does not combine the block-free columns to zero, here
        # the first one with every coefficient but its lead doubled, raises
        # StructuralError naming the sheaf, and the CLI exits 3.
        def corrupted(columns):
            elim, kernels = _eliminate(columns)
            if kernels and not done:
                lead = max(kernels[0])
                kernels[0] = {j: c if j == lead else 2 * c for j, c in kernels[0].items()}
                done.append(True)
            return elim, kernels

        self.addCleanup(cohomology._solve.cache_clear)
        for atlas in (P11, scaled_atlas()):
            done = []
            cohomology._solve.cache_clear()
            with mock.patch.object(cohomology, "_eliminate", side_effect=corrupted):
                with self.assertRaisesRegex(StructuralError, r"of -3\|1 does not combine"):
                    cech(atlas, (-3, 1), 0)
            self.assertEqual(done, [True])
        done = []
        cohomology._solve.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cohomology, "_eliminate", side_effect=corrupted), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(["cech", "--sheaf=-3|1"])
        self.assertEqual((code, out.getvalue()), (3, ""))
        self.assertRegex(err.getvalue(), r"^error \(computation\): .*of -3\|1 does not combine")

    def test_equal_columns_other_rows_share_no_outcome(self):
        # 2|0 has three blocks without columns, one for each of its second
        # weights 1, 2 and 3.  Their columns are equal, but each leaves its
        # own rows unhit, so each is eliminated: one shared outcome would
        # give the H^1 rows of one second weight to all three.
        cohomology._solve.cache_clear()
        solved = []
        record = lambda cols: solved.append(cols) or _eliminate(cols)
        with mock.patch.object(cohomology, "_eliminate", side_effect=record):
            reps = solve_sheaf(P11, (2, 0))[2]
        self.assertEqual(solved.count([]), 3)
        self.assertEqual(reps, per_block_solve(P11.transition("U0", "U1"), (2, 0))[2])
        self.assertEqual({_weight(mon, e)[1] for mon, e in reps}, {1, 2, 3})


class TestDeRham(unittest.TestCase):
    def test_projective_picture_zero(self):
        report = derham("p11", 0, (0, 3), 8)
        self.assertEqual([report.dims[(i, 0)] for i in range(4)], [1, 0, 0, 0])
        self.assertTrue(report.stabilized)
        self.assertEqual(pretty_print(report.generators[0][0]["U0"]), "1")

    def test_projective_picture_one(self):
        report = derham("p11", 1, (-2, 1), 8)
        self.assertEqual([report.dims[(i, 1)] for i in range(-2, 2)], [0, 0, 1, 0])
        gen = report.generators[0][0]
        self.assertEqual(pretty_print(gen["U0"]), "psi*delta(dpsi)")
        self.assertEqual(pretty_print(gen["U1"]), "psi*delta(dpsi)")
        for chart_id in ("U0", "U1"):
            self.assertTrue(exterior_d(gen[chart_id]).is_zero())

    def test_flat_line(self):
        report = derham("flat:1,1", 1, (0, 3), 5)
        self.assertEqual([report.dims[(i, 1)] for i in range(4)], [1, 0, 0, 0])
        self.assertEqual(pretty_print(report.generators[0][0]["U0"]), "psi*delta(dpsi)")
        self.assertTrue(report.stabilized)

    def test_flat_two_odd_directions(self):
        report = derham("flat:1,2", 1, (0, 2), 5)
        self.assertEqual([report.dims[(i, 1)] for i in range(3)], [2, 0, 0])
        gens = sorted(pretty_print(g["U0"]) for g in report.generators[0])
        self.assertEqual(gens, ["psi1*delta(dpsi1)", "psi2*delta(dpsi2)"])

    def test_flat_range_without_degree_zero(self):
        # Every flat class lies in degree 0, so a range without it misses
        # nothing, also at cutoff 0.
        for lo, hi in ((1, 2), (-2, -1)):
            for cutoff in (0, 3):
                report = derham("flat:1,2", 1, (lo, hi), cutoff)
                self.assertEqual(report.dims, {(i, 1): 0 for i in range(lo, hi + 1)})
                self.assertEqual(report.generators, {i: [] for i in range(lo, hi + 1)})
                self.assertTrue(report.stabilized, msg=(lo, hi, cutoff))

    def test_unknown_space_label(self):
        with self.assertRaises(UnsupportedSpaceError):
            derham("bogus", 0, (0, 1), 4)

    def test_flat_picture_out_of_range(self):
        # A picture that is not an int (1.0 used to end in a bare TypeError)
        # is refused like one out of range.
        for picture in (-1, 2, 1.0, Fraction(1)):
            with self.assertRaises(UnsupportedSpaceError, msg=picture) as ctx:
                derham("flat:1,1", picture, (0, 1), 2)
            self.assertEqual(str(ctx.exception), "picture %r not supported on this flat space" % (picture,))

    def test_degree_range_must_be_ints(self):
        # A range of floats used to end in a bare TypeError.
        for space in ("flat:1,1", "p11"):
            for degrees in ((0.0, 1), (0, 1.0), (Fraction(0), 1)):
                with self.assertRaisesRegex(StructuralError, "range must be two ints", msg=(space, degrees)):
                    derham(space, 1, degrees, 4)

    def test_no_cech_solve(self):
        # de Rham writes its classes down: cold or warm, it solves and
        # eliminates nothing, and takes d of the one class on each chart,
        # whatever the range.
        inserts = []
        insert = Eliminator.insert

        def counted(elim, vec, tag):
            inserts.append(tag)
            return insert(elim, vec, tag)

        for degrees, cold in (((-4, 1), True), ((-4, 1), False), ((5, 7), False)):
            if cold:
                cohomology._solve.cache_clear()
                atlas_morphism._monomial_image.cache_clear()
            inserts.clear()
            with mock.patch.object(cohomology, "_solve", wraps=cohomology._solve) as solve, \
                    mock.patch.object(cohomology, "_eliminate", wraps=_eliminate) as eliminate, \
                    mock.patch.object(cohomology, "exterior_d", wraps=exterior_d) as d, \
                    mock.patch.object(Eliminator, "insert", counted):
                report = derham("p11", 1, degrees, 6)
            msg = degrees, cold
            self.assertTrue(report.stabilized, msg=msg)
            self.assertEqual(solve.call_count, 0, msg=msg)
            self.assertEqual(eliminate.call_count, 0, msg=msg)
            self.assertEqual(inserts, [], msg=msg)
            self.assertEqual(d.call_count, 2, msg=msg)

    def test_class_not_glued_is_structural(self):
        # Phi* fixes 1 and psi*delta(dpsi), so a pullback that scales them
        # breaks the gluing of the class across the transition.
        for picture in (0, 1):
            derham("p11", picture, (0, 0), 4)
            for factor in (LaurentPoly.const(("g",), 2), LaurentPoly.monomial(("g",), (3,))):
                scaled = lambda m, form: pullback(m, form).times_poly(factor)
                with mock.patch.object(cohomology, "pullback", side_effect=scaled):
                    with self.assertRaisesRegex(StructuralError, "not glued"):
                        derham("p11", picture, (0, 0), 4)

    def test_projective_answer_is_cutoff_free(self):
        # Term order and coefficient types included, P^{1|1} de Rham answers
        # at every cutoff what it answers at cutoff 8.
        def strict(report):
            gens = {
                i: [[(cid, strict_form(f)) for cid, f in parts.items()] for parts in group]
                for i, group in report.generators.items()
            }
            return report.dims, gens, report.stabilized

        for picture, degrees in ((0, (0, 4)), (1, (-4, 1))):
            want = strict(derham("p11", picture, degrees, 8))
            self.assertTrue(want[2])
            for cutoff in list(range(13)) + [100000]:
                got = strict(derham("p11", picture, degrees, cutoff))
                self.assertEqual(got, want, msg=(picture, cutoff))

    def test_differential_leaving_the_complex_is_structural(self):
        # d of a class is zero on every chart, so any term is a fault of the
        # engine, also one as far from every Cech block as g^1000*dg.
        far = Monomial((), (0,), (), ())

        def leaky_d(form):
            extra = {far: LaurentPoly.monomial(form.table.even_names, (1000,))}
            return exterior_d(form) + Superform(form.chart, form.table, extra)

        with mock.patch.object(cohomology, "exterior_d", leaky_d):
            with self.assertRaisesRegex(StructuralError, "not closed"):
                derham("p11", 0, (0, 0), 4)

    def test_differential_on_one_chart_is_not_global(self):
        # d(1) + dpsi on U0 alone: the class 1 of picture 0 is not closed.
        dpsi = Monomial((), (), ((0, 1),), ())

        def one_chart_d(form):
            if form.chart != "U0":
                return exterior_d(form)
            extra = {dpsi: LaurentPoly.const(form.table.even_names, 1)}
            return exterior_d(form) + Superform(form.chart, form.table, extra)

        with mock.patch.object(cohomology, "exterior_d", one_chart_d):
            with self.assertRaisesRegex(StructuralError, "not closed"):
                derham("p11", 0, (0, 0), 4)

    def test_differential_on_the_second_chart_is_not_closed(self):
        # delta(dpsi) added to d(psi*delta(dpsi)) on U1 alone: the class of
        # picture 1 is not closed.
        delta = Monomial((), (), (), ((0, 0),))
        klass = Monomial((0,), (), (), ((0, 0),))

        def second_chart_d(form):
            if form.chart != "U1" or klass not in form.terms:
                return exterior_d(form)
            extra = {delta: LaurentPoly.const(form.table.even_names, 1)}
            return exterior_d(form) + Superform(form.chart, form.table, extra)

        self.assertEqual(derham(P11, 1, (0, 0), 4).dims, {(0, 1): 1})
        with mock.patch.object(cohomology, "exterior_d", second_chart_d):
            with self.assertRaisesRegex(StructuralError, "not closed"):
                derham(P11, 1, (0, 0), 4)

    def test_only_degree_zero_has_a_weight_zero_monomial(self):
        # Why P^{1|1} de Rham looks at degree 0 alone: a U0 label g^e*M of
        # weight (0, 0) has e = 0 and M of weight (0, 0), and only the
        # sheaves 0|0 and 0|1 have such an M, 1 and psi*delta(dpsi).
        want = {0: Monomial(), 1: Monomial((0,), (), (), ((0, 0),))}
        for j in (0, 1):
            for i in range(-60, 61):
                found = [m for m in p11_sheaf_monomials(i, j) if _weight(m, 0) == (0, 0)]
                self.assertEqual(found, [want[j]] if i == 0 else [], msg=(i, j))

    def test_projective_picture_out_of_range(self):
        # derham rejects the picture with the message of cech, also when
        # the range misses degree 0, and also a picture that is not an int.
        for picture in (-1, 2, 1.0, Fraction(1)):
            for degrees in ((0, 1), (5, 7), (-7, -5)):
                msg = (picture, degrees)
                with self.assertRaises(UnsupportedSpaceError, msg=msg) as ctx:
                    derham("p11", picture, degrees, 4)
                self.assertEqual(str(ctx.exception), "picture %r not supported on P^{1|1}" % (picture,), msg=msg)


# The complex of all global sections, which P^{1|1} de Rham assembled before
# it kept the weight-(0, 0) block alone: the oracle of the homotopy argument.


def _differential_error(key):
    return StructuralError("differential of a global section leaves the complex")


def global_section_complex(atlas, picture, lo, hi):
    """Every Cech kernel of the levels lo-1..hi+1 as a global section:
    (levels, d_cols), levels[i] = (labels, sections) and d_cols[i] the
    coordinates of d(section) in the sections of level i+1, read at their
    leads and checked by an exact residual."""
    levels = {i: solve_sheaf(atlas, (i, picture))[:2] for i in range(lo - 1, hi + 2)}
    d_cols = {}
    for i in range(lo - 1, hi + 1):
        labels, sections = levels[i]
        dom, kernels = levels[i + 1]
        index = {label: t for t, label in enumerate(dom)}
        lead = {max(k): s for s, k in enumerate(kernels)}
        cols = []
        for section in sections:
            dv = {}
            for cid, form in _glue(atlas, labels, section).items():
                key = lambda mon, exps, cid=cid: (cid, mon, exps)
                dv.update(_coordinates(exterior_d(form), index, key, _differential_error))
            col = {lead[t]: c for t, c in dv.items() if t in lead}
            for s, c in col.items():
                _axpy(dv, kernels[s].items(), -c)
            if dv:
                raise StructuralError("differential of a global section is not global")
            cols.append(col)
        d_cols[i] = cols
    return levels, d_cols


def complex_answer(atlas, picture, lo, hi, levels, d_cols):
    """The strict (dims, generators) of a complex of global sections, with
    the generators composed and glued as derham reports them."""
    dims, reps = _complex_cohomology(d_cols, lo, hi)
    gens = {}
    for i in range(lo, hi + 1):
        labels, sections = levels[i]
        gens[i] = []
        for z in reps[i]:
            combo = {}
            for t, c in z.items():
                _axpy(combo, sections[t].items(), c)
            gens[i].append(_glue(atlas, labels, combo))
    return strict_answer({(i, picture): dim for i, dim in dims.items()}, gens)


def strict_answer(dims, gens):
    """dims and the generators' strict term dumps, chart by chart."""
    return dims, {
        i: [[(cid, strict_form(f)) for cid, f in parts.items()] for parts in group]
        for i, group in gens.items()
    }


def split_by_weight(atlas, levels, d_cols):
    """The weight summands {weight: (levels, d_cols)} of a complex of global
    sections, each section weighed by its part on the first chart.  A d
    column that leaves its section's weight raises."""
    c0 = min(atlas.charts)
    weights = {
        i: [_form_weight(_glue(atlas, labels, s)[c0]) for s in sections]
        for i, (labels, sections) in levels.items()
    }
    summands = {}
    for w in set(chain.from_iterable(weights.values())):
        keep = {i: [t for t, x in enumerate(ws) if x == w] for i, ws in weights.items()}
        renumber = {i: {t: k for k, t in enumerate(ts)} for i, ts in keep.items()}
        sub_d = {}
        for i, cols in d_cols.items():
            sub_d[i] = []
            for t in keep[i]:
                if any(weights[i + 1][r] != w for r in cols[t]):
                    raise StructuralError("d leaves the weight %r" % (w,))
                sub_d[i].append({renumber[i + 1][r]: c for r, c in cols[t].items()})
        sub_levels = {i: (levels[i][0], [levels[i][1][t] for t in ts]) for i, ts in keep.items()}
        summands[w] = (sub_levels, sub_d)
    return summands


class TestWeightSplit(unittest.TestCase):
    def test_only_weight_zero_carries_cohomology(self):
        # d keeps the torus weight, so the complex of all global sections is
        # the direct sum of its weight summands.  Every summand but (0, 0)
        # is acyclic (Cartan's formula for the Euler fields g*d/dg and
        # psi*d/dpsi), and the (0, 0) summand, like the whole complex, gives
        # derham's answer, term order and coefficient types included.
        atlases = {"P11": P11, "scaled": scaled_atlas(), "P^1 x C^{0|1}": P1_TIMES_ODD_LINE}
        for name, atlas in atlases.items():
            for picture, (lo, hi) in ((0, (-3, 6)), (1, (-12, 3))):
                msg = (name, picture)
                report = derham(atlas, picture, (lo, hi), 6)
                want = strict_answer(report.dims, report.generators)
                levels, d_cols = global_section_complex(atlas, picture, lo, hi)
                self.assertEqual(complex_answer(atlas, picture, lo, hi, levels, d_cols), want, msg=msg)
                summands = split_by_weight(atlas, levels, d_cols)
                self.assertIn((0, 0), summands, msg=msg)
                if picture == 1:
                    self.assertGreater(len(summands), 1, msg=msg)
                for w, (sub_levels, sub_d) in summands.items():
                    got = complex_answer(atlas, picture, lo, hi, sub_levels, sub_d)
                    if w == (0, 0):
                        self.assertEqual(got, want, msg=msg)
                    else:
                        self.assertEqual(set(got[0].values()), {0}, msg=(msg, w))


# The flat block enumerator: the reference that derham's flat classes are
# checked against.


def _weak_compositions(total, slots):
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, slots - 1):
            yield (first,) + rest


def _subsets(items):
    items = list(items)
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def flat_block_monomials(table, picture, e_total, u):
    """All normal monomial sections in the conserved block (e_total, u), over
    every carrier set of size picture."""
    m = len(table.even_names)
    n = len(table.odd_names)
    out = []
    for carriers in combinations(range(n), picture):
        per_index = []
        feasible = True
        for j in range(n):
            options = []
            for th in (0, 1):
                if j in carriers:
                    order = th - u[j]
                    if order >= 0:
                        options.append((th, 0, order))
                else:
                    power = u[j] - th
                    if power >= 0:
                        options.append((th, power, None))
            if not options:
                feasible = False
                break
            per_index.append(options)
        if not feasible:
            continue
        for choice in product(*per_index):
            thetas = tuple(j for j in range(n) if choice[j][0])
            dodds = tuple((j, choice[j][1]) for j in range(n) if choice[j][1])
            deltas = tuple((j, choice[j][2]) for j in carriers)
            for devens in _subsets(range(m)):
                even_degree = e_total - len(devens)
                if even_degree < 0:
                    continue
                mon = Monomial(thetas, devens, dodds, deltas)
                for exps in _weak_compositions(even_degree, m):
                    out.append((mon, exps))
    out.sort(key=lambda el: (el[0].sort_key(), el[1]))
    return out


def _block_error(key):
    return StructuralError("de Rham block is not closed under d")


def _flat_block_d(chart, basis_dom, basis_cod):
    """Columns {row: coeff} of d from basis_dom to basis_cod: exterior_d of
    each basis form, read off in basis_cod."""
    index = {el: r for r, el in enumerate(basis_cod)}
    cols = []
    for mon, exps in basis_dom:
        lp = LaurentPoly.monomial(chart.table.even_names, exps)
        form = Superform(chart.id, chart.table, {mon: lp})
        cols.append(_coordinates(exterior_d(form), index, lambda m, e: (m, e), _block_error))
    return cols


def block_cohomology(chart, picture, e_total, u):
    """(dims, reps, bins) of block (e_total, u) over all of its degrees, or
    None when the block is empty; bins holds the basis of each degree."""
    bins = {}
    for el in flat_block_monomials(chart.table, picture, e_total, u):
        bins.setdefault(el[0].degree(), []).append(el)
    if not bins:
        return None
    d_cols = {
        i: _flat_block_d(chart, bins.get(i, []), bins.get(i + 1, []))
        for i in range(min(bins) - 1, max(bins) + 1)
    }
    dims, reps = _complex_cohomology(d_cols, min(bins), max(bins))
    return dims, reps, bins


def box_blocks(chart, picture, box):
    """{(E, u): (dims, reps, bins)} of every non-empty block of the box
    E <= box, |u_j| <= box, each over all of its degrees."""
    n = len(chart.table.odd_names)
    blocks = {}
    for e_total, u in product(range(box + 1), product(range(-box, box + 1), repeat=n)):
        block = block_cohomology(chart, picture, e_total, u)
        if block is not None:
            blocks[(e_total, u)] = block
    return blocks


def box_walk(atlas, blocks, picture, lo, hi, cutoff):
    """Flat de Rham (dims, generators) from every block of the box at cutoff,
    in (E, u) order: the reference for the candidate-only solver."""
    dims = {(i, picture): 0 for i in range(lo, hi + 1)}
    gens = {i: [] for i in range(lo, hi + 1)}
    for (e_total, u), (block_dims, reps, bins) in sorted(blocks.items()):
        if e_total > cutoff or any(abs(x) > cutoff for x in u):
            continue
        for i, dim in block_dims.items():
            if lo <= i <= hi and dim:
                dims[(i, picture)] += dim
                labels = [("U0", mon, exps) for mon, exps in bins[i]]
                gens[i] += [_glue(atlas, labels, z) for z in reps[i]]
    return dims, gens


def u_scan_derham(m, n, picture, degree_range, cutoff):
    """Flat de Rham (dims, generators, stabilized) as the scan over u in
    {0, 1}^n computed it, with the box rule stated in the scan and again for
    `stabilized`: the oracle of the classes in combinations order."""
    lo, hi = degree_range
    if lo > hi:
        raise StructuralError("empty degree range %r" % (degree_range,))
    atlas = builtin_flat(m, n)
    if cutoff < 0:
        raise StructuralError("cutoff must be non-negative, got %d" % cutoff)
    (chart,) = atlas.charts.values()
    if not 0 <= picture <= n:
        raise UnsupportedSpaceError("picture %d not supported on this flat space" % picture)
    dims = {(i, picture): 0 for i in range(lo, hi + 1)}
    gens = {i: [] for i in range(lo, hi + 1)}
    if lo <= 0 <= hi:
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
    return dims, gens, not (cutoff == 0 and picture >= 1 and lo <= 0 <= hi)


class TestFlatBlocks(unittest.TestCase):
    def test_matches_u_scan(self):
        # The classes in reversed combinations order, the box rule stated
        # once and the closedness check in derham answer as the u scan did:
        # dims, generators (term order and coefficient types), stabilized
        # and errors, with and without degree 0 in range.
        def outcome(run):
            try:
                dims, gens, stabilized = run()
            except (StructuralError, UnsupportedSpaceError) as exc:
                return type(exc), str(exc)
            strict = {
                i: [[(cid, strict_form(f)) for cid, f in parts.items()] for parts in group]
                for i, group in gens.items()
            }
            return dims, strict, stabilized

        def report(*args):
            got = derham(*args)
            return got.dims, got.generators, got.stabilized

        listed = 0
        for m, n in product(range(3), range(7)):
            space = "flat:%d,%d" % (m, n)
            for picture, cutoff in product(range(-1, n + 2), range(3)):
                for degrees in ((0, 0), (-2, 1), (0, 3), (1, 3), (-3, -1), (2, 1)):
                    msg = (space, picture, degrees, cutoff)
                    want = outcome(lambda: u_scan_derham(m, n, picture, degrees, cutoff))
                    got = outcome(lambda: report(space, picture, degrees, cutoff))
                    self.assertEqual(got, want, msg=msg)
                    listed += len(want) == 3 and want[0].get((0, picture), 0) > 1
        self.assertGreater(listed, 100)

    def test_candidate_blocks_equal_box_walk(self):
        # Only the blocks E = 0, u in {0, 1}^n with |u| = picture can carry a
        # class; derham must equal the walk over the whole box at D and D + 2.
        # flat:1,3 stops at D = 1: its box at D + 2 = 4 alone takes 15 s.
        spaces = (((0, 1), 3), ((1, 1), 3), ((2, 1), 3), ((1, 2), 3), ((2, 2), 2), ((1, 3), 1))
        for (m, n), top in spaces:
            atlas = builtin_flat(m, n)
            space = "flat:%d,%d" % (m, n)
            for picture in range(n + 1):
                blocks = box_blocks(atlas.chart("U0"), picture, top + 2)
                for (e_total, u), (dims, _, _) in blocks.items():
                    if e_total == 0 and set(u) <= {0, 1} and sum(u) == picture:
                        continue
                    msg = "%s picture %d block %r" % (space, picture, (e_total, u))
                    self.assertFalse(any(dims.values()), msg=msg)
                for cutoff in range(top + 1):
                    for lo, hi in ((0, cutoff), (-cutoff, cutoff)):
                        msg = "%s picture %d range %r at %d" % (space, picture, (lo, hi), cutoff)
                        want = box_walk(atlas, blocks, picture, lo, hi, cutoff)
                        again = box_walk(atlas, blocks, picture, lo, hi, cutoff + 2)
                        report = derham(space, picture, (lo, hi), cutoff)
                        self.assertEqual(report.dims, want[0], msg=msg)
                        self.assertEqual(
                            printed_gens(report.generators), printed_gens(want[1]), msg=msg
                        )
                        self.assertEqual(report.stabilized, want[0] == again[0], msg=msg)
                        later = derham(space, picture, (lo, hi), cutoff + 2)
                        self.assertEqual(later.dims, again[0], msg=msg)
                        self.assertEqual(
                            printed_gens(later.generators), printed_gens(again[1]), msg=msg
                        )
        self.assertFalse(derham("flat:1,1", 1, (0, 2), 0).stabilized)

    def test_closure_check_kept(self):
        # A class whose differential is not zero is rejected, not reported.
        with mock.patch("superforms.cohomology.exterior_d", lambda form: form):
            with self.assertRaises(StructuralError):
                derham("flat:1,1", 1, (0, 0), 2)

    def test_candidate_block_has_one_class_on_its_carrier_set(self):
        # Sizes the box walk cannot reach: each full candidate block (0, u),
        # over every carrier set, has exactly the class theta_S*delta_S of
        # S = supp(u), in degree 0.
        for (m, n), picture in (((2, 6), 3), ((1, 4), 2)):
            atlas = builtin_flat(m, n)
            chart = atlas.chart("U0")
            for u in product((0, 1), repeat=n):
                if sum(u) != picture:
                    continue
                msg = "flat:%d,%d picture %d block %r" % (m, n, picture, u)
                dims, reps, bins = block_cohomology(chart, picture, 0, u)
                self.assertEqual({i: dim for i, dim in dims.items() if dim}, {0: 1}, msg=msg)
                carriers = tuple(j for j in range(n) if u[j])
                mon = Monomial(carriers, (), (), tuple((j, 0) for j in carriers))
                labels = [("U0", basis_mon, exps) for basis_mon, exps in bins[0]]
                (rep,) = reps[0]
                self.assertEqual(
                    _glue(atlas, labels, rep)["U0"],
                    normalize(mon.factors(), 1, "U0", chart.table),
                    msg=msg,
                )

    def test_north_star_scale(self):
        # Eliminating every block of the box, not only the candidates, takes
        # about 25 s on flat:1,4 at D=2 alone.
        for (m, n), picture, (lo, hi), cutoff in (
            ((4, 4), 2, (-10, 10), 10),
            ((3, 3), 1, (-2, 2), 2),
            ((1, 4), 2, (-2, 2), 2),
        ):
            space = "flat:%d,%d" % (m, n)
            table = builtin_flat(m, n).chart("U0").table
            report = derham(space, picture, (lo, hi), cutoff)
            want = {(i, picture): comb(n, picture) if i == 0 else 0 for i in range(lo, hi + 1)}
            self.assertEqual(report.dims, want, msg=space)
            self.assertTrue(report.stabilized, msg=space)
            products = [
                Monomial(s, (), (), tuple((j, 0) for j in s)) for s in combinations(range(n), picture)
            ]
            self.assertEqual(
                sorted(pretty_print(g["U0"]) for g in report.generators[0]),
                sorted(pretty_print(normalize(mon.factors(), 1, "U0", table)) for mon in products),
                msg=space,
            )


class TestPairingMatrix(unittest.TestCase):
    def test_rank_full_for_line(self):
        matrix, rank = pairing_matrix(1, 10)
        self.assertEqual(len(matrix), 8)
        self.assertEqual(rank, 8)

    def test_entries_rational(self):
        matrix, _ = pairing_matrix(0, 8)
        for row in matrix:
            for entry in row:
                self.assertIsInstance(entry, Fraction)

    def test_full_rank_at_default_cutoff(self):
        # At cutoff 10 the windowed groups held 16 of the 20 classes of
        # H^1(Omega^{5|0}), so this raised WindowOverflowError.
        matrix, rank = pairing_matrix(4, 10)
        self.assertEqual([len(row) for row in matrix], [20] * 20)
        self.assertEqual(rank, 20)
        self.assertEqual((matrix, rank), pairing_matrix(4, 13))

    def test_theta_free_term_changes_nothing(self):
        # An entry is the Berezin trace of the product, which reads only the
        # theta*dg*delta(dpsi) terms, so a theta-free term dg*delta(dpsi)*g^e
        # added to every product, at any power of g, changes no entry.
        # The pairing memo is cleared before each patched call, so that the
        # call forms its products, and after the last.
        table = P11.chart("U0").table
        theta_free = Monomial((), (0,), (), ((0, 0),))
        want = {n: pairing_matrix(n, 8) for n in range(4)}
        self.addCleanup(cohomology._pairing.cache_clear)
        for e in (-1, 0, 1):
            stray = lambda a, b: pair(a, b) + Superform(
                "U0", table, {theta_free: LaurentPoly.monomial(("g",), (e,))}
            )
            with mock.patch.object(cohomology, "pair", side_effect=stray) as paired:
                for n in range(4):
                    cohomology._pairing.cache_clear()
                    self.assertEqual(pairing_matrix(n, 8), want[n], msg=(n, e))
            self.assertGreater(paired.call_count, 0)

    def test_trace_kills_coboundaries(self):
        # s0 has no g^-1 term and, by the residue theorem, neither has
        # Phi*(s1), so the trace of s0 - Phi*(s1) is zero for every pair of
        # Omega^{1|1} sections; the trace of g^-1*theta*dg*delta(dpsi) is 1.
        rng = random.Random(32)
        mons = p11_sheaf_monomials(1, 1)
        for atlas in (P11, scaled_atlas()):
            c0, c1 = sorted(atlas.charts)
            m01 = atlas.transition(c0, c1)
            t0, t1 = atlas.chart(c0).table, atlas.chart(c1).table
            self.assertEqual(
                berezin_integral(Superform(c0, t0, {mons[1]: LaurentPoly.monomial(t0.even_names, (-1,))})), 1
            )
            section = lambda c, t: Superform(
                c, t, {m: random_poly(rng, t.even_names, terms=3, max_exp=4, allow_negative=False) for m in mons}
            )
            for k in range(200):
                s0, s1 = section(c0, t0), section(c1, t1)
                self.assertEqual(berezin_integral(s0 - pullback(m01, s1)), 0, msg=(c0, k))

    def corrupted_solves(self):
        # An H^0 kernel dropped, or replaced by a copy of another of the same
        # weight, or an H^1 representative dropped, leaves the n = 3 pairing
        # of rank 15, short of both sides or of one.  Yields a patched
        # `_solve` per case, with the sheaf it changes.
        solve = cohomology._solve
        m01 = cohomology._transition(P11)
        dom, kernels, no_reps = solve(m01, -3, 1)
        weights = [
            {_weight(dom[s][1], dom[s][2][0]) for s in combo if dom[s][0] == "U0"} for combo in kernels
        ]
        t, u = next((t, u) for t, u in combinations(range(len(kernels)), 2) if weights[t] == weights[u])
        copied = kernels[:u] + (kernels[t],) + kernels[u + 1 :]
        dom1, no_kernels, reps = solve(m01, 4, 0)
        cases = (
            ((-3, 1), (dom, kernels[1:], no_reps)),
            ((-3, 1), (dom, copied, no_reps)),
            ((4, 0), (dom1, no_kernels, reps[1:])),
        )
        for sheaf, changed in cases:
            yield sheaf, lambda m, *s, sheaf=sheaf, changed=changed: changed if s == sheaf else solve(m, *s)

    def test_pairing_is_certified_perfect(self):
        # A pairing that is not perfect must raise rather than answer.  A warm
        # pairing memo would answer without reading the patched solves, so it
        # is cleared first.
        cohomology._pairing.cache_clear()
        for sheaf, patched in self.corrupted_solves():
            with mock.patch.object(cohomology, "_solve", side_effect=patched):
                with self.assertRaisesRegex(StructuralError, "n = 3 is not perfect: rank 15", msg=sheaf):
                    pairing_matrix(3, 10)
        self.assertEqual(pairing_matrix(3, 10)[1], 16)

    def test_failed_certificate_is_not_cached(self):
        # A pairing that raises leaves no memo entry, so every call on the
        # corrupted solves raises, at any cutoff, not only the first.
        cohomology._pairing.cache_clear()
        for sheaf, patched in self.corrupted_solves():
            with mock.patch.object(cohomology, "_solve", side_effect=patched):
                for cutoff in (10, 0, 10, 45):
                    with self.assertRaisesRegex(StructuralError, "rank 15", msg=(sheaf, cutoff)):
                        pairing_matrix(3, cutoff)
            self.assertEqual(cohomology._pairing.cache_info().currsize, 0, msg=sheaf)
        self.assertEqual(pairing_matrix(3, 10)[1], 16)

    def test_second_cutoff_computes_nothing(self):
        # The pairing does not depend on the cutoff, so a call at a second
        # cutoff reads the memo: no product, no elimination and no solve miss,
        # and the same entries with their types.
        typed = lambda matrix: [[(type(c), c) for c in row] for row in matrix]
        for n in (0, 3, 7):
            first, rank = pairing_matrix(n, 2 * n + 5)
            misses = cohomology._solve.cache_info().misses
            with (
                mock.patch.object(cohomology, "pair", wraps=pair) as paired,
                mock.patch.object(cohomology, "_eliminate", wraps=_eliminate) as eliminated,
            ):
                again, again_rank = pairing_matrix(n, 0)
            self.assertEqual((paired.call_count, eliminated.call_count), (0, 0), msg=n)
            self.assertEqual(cohomology._solve.cache_info().misses, misses, msg=n)
            self.assertEqual((typed(again), again_rank), (typed(first), rank), msg=n)

    def test_changed_rows_change_no_later_answer(self):
        # Every call lays out fresh rows, so neither a changed row nor a
        # changed matrix list reaches the next call.
        want = pairing_matrix(2, 9)
        want = ([list(row) for row in want[0]], want[1])
        matrix, _ = pairing_matrix(2, 9)
        matrix[0][0] = Fraction(99)
        matrix[1].append(Fraction(5))
        del matrix[2][0]
        matrix.append([Fraction(1)])
        del matrix[3]
        self.assertEqual(pairing_matrix(2, 9), want)
        self.assertIsNot(pairing_matrix(2, 9)[0][0], pairing_matrix(2, 9)[0][0])

    def test_cold_call_makes_two_solves(self):
        # Omega^{n+1|0} and Omega^{-n|1}, and no Omega^{1|1} probe.
        cohomology._solve.cache_clear()
        cohomology._pairing.cache_clear()
        pairing_matrix(4, 13)
        self.assertEqual(cohomology._solve.cache_info().misses, 2)

    def test_second_call_pulls_back_nothing(self):
        # pairing_matrix builds a fresh builtin_p11() on every call; its
        # transitions equal the last call's, so every pullback is reused.
        cohomology._solve.cache_clear()
        cohomology._pairing.cache_clear()
        with mock.patch.object(cohomology, "pullback", wraps=pullback) as pulled:
            first = pairing_matrix(4, 10)
            calls = pulled.call_count
            second = pairing_matrix(4, 10)
        self.assertGreater(calls, 0)
        self.assertEqual(pulled.call_count, calls)
        self.assertEqual(second, first)

    def test_warm_call_reads_the_solve_labels(self):
        # No report is built and no form glued; M1*M2 is formed once per
        # pair of sheaf monomials, at most 4 x 4 of them.  The solves stay
        # warm; the pairing memo is cleared, so that the call forms products.
        pairing_matrix(4, 10)
        cohomology._pairing.cache_clear()
        with (
            mock.patch.object(cohomology, "cech", wraps=cech) as reports,
            mock.patch.object(cohomology, "_glue", wraps=_glue) as glued,
            mock.patch.object(cohomology, "pair", wraps=pair) as paired,
        ):
            matrix, rank = pairing_matrix(4, 13)
        self.assertEqual((reports.call_count, glued.call_count), (0, 0))
        self.assertLessEqual(paired.call_count, 16)
        self.assertGreater(paired.call_count, 0)
        self.assertEqual((matrix, rank), pairing_matrix(4, 10))

    def test_matches_report_pairing_oracle(self):
        # Entries, their types and the rank equal those of the pairing of
        # the glued cech generators, for every n and cutoff.
        for n in range(13):
            want, want_rank = report_pairing(n, 2 * n + 5)
            for cutoff in (0, n, 2 * n + 5):
                matrix, rank = pairing_matrix(n, cutoff)
                self.assertEqual(rank, want_rank, msg=(n, cutoff))
                self.assertEqual(
                    [[(type(c), c) for c in row] for row in matrix],
                    [[(type(c), c) for c in row] for row in want],
                    msg=(n, cutoff),
                )

    def test_matches_all_products_oracle(self):
        # Only products of weights summing to (0, 0) are formed; the matrix,
        # zero entries and coefficient types included, equals the one with
        # every product reduced in the windowed blocks at cutoff 2n+5.
        for n in range(7):
            want, want_rank = all_products_pairing(n, 2 * n + 5)
            self.assertEqual(want_rank, 4 * n + 4, msg=n)
            for cutoff in (0, n, 2 * n + 5):
                matrix, rank = pairing_matrix(n, cutoff)
                self.assertEqual(rank, want_rank, msg=(n, cutoff))
                self.assertEqual(
                    [[(type(c), c) for c in row] for row in matrix],
                    [[(type(c), c) for c in row] for row in want],
                    msg=(n, cutoff),
                )


def all_products_pairing(n, cutoff):
    """The pairing matrix with every product formed and reduced in the block
    of its weight of the windowed Omega^{1|1} solve: the oracle of the
    weight-selective pairing.  Returns (matrix rows, rank)."""
    dom, kernels, _, _, _ = windowed_cech_solve(P11, (-n, 1), cutoff)
    _, _, _, reps, _ = windowed_cech_solve(P11, (n + 1, 0), cutoff)
    _, _, index, volume_reps, elims = windowed_cech_solve(P11, (1, 1), cutoff)
    generator = (Monomial((0,), (0,), (), ((0, 0),)), -1)
    if volume_reps != [generator]:
        raise StructuralError("the H^1(Omega^{1|1}) probe does not single out the generator")
    matrix = []
    for s, (mon, e) in enumerate(reps):
        rep = _glue(P11, [("U0", mon, (e,))], {0: Fraction(1)})["U0"]
        row = []
        for t, kernel in enumerate(kernels):
            product = pair(rep, _glue(P11, dom, kernel)["U0"])
            vec = _coordinates(product, index, lambda m, exps: (m, exps[0]), _overlap_error)
            elim = elims[_form_weight(product)] if product.terms else Eliminator()
            combo = elim.insert(vec, ("prod", s, t))
            if combo is None:
                raise WindowOverflow("pairing product escapes the coboundary window")
            row.append(-combo.get(generator, Fraction(0)))
        matrix.append(row)
    return matrix, _eliminate([dict(enumerate(row)) for row in matrix])[0].rank


def report_pairing(n, cutoff):
    """The pairing matrix from the two cech reports: each H^1 representative
    wedged with the U0 part of each glued H^0 generator of the opposite
    weight, read as the coefficient on the generator.  The oracle of the
    pairing read off the solve labels.  Returns (matrix rows, rank)."""
    h1 = cech(P11, (n + 1, 0), cutoff)
    h0 = cech(P11, (-n, 1), cutoff)
    generator = (Monomial((0,), (0,), (), ((0, 0),)), -1)
    if solve_sheaf(P11, (1, 1))[2] != (generator,):
        raise StructuralError("the H^1(Omega^{1|1}) probe does not single out the generator")
    weights0 = [_form_weight(parts["U0"]) for parts in h0.generators_h0]
    matrix = []
    for rep in h1.generators_h1:
        lam, mu = _form_weight(rep)
        row = []
        for t, parts in enumerate(h0.generators_h0):
            if weights0[t] != (-lam, -mu):
                row.append(Fraction(0))
                continue
            product = pair(rep, parts["U0"])
            coeffs = {(m, exps[0]): c for m, lp in product.terms.items() for exps, c in lp.terms.items()}
            if not coeffs.keys() <= {generator}:
                raise StructuralError("pairing product %r is no multiple of the generator" % product)
            row.append(coeffs.get(generator, Fraction(0)))
        matrix.append(row)
    return matrix, _eliminate([dict(enumerate(row)) for row in matrix])[0].rank


def checked_form(form):
    """The form rebuilt from its own terms through the checked constructors
    of Superform, Monomial and LaurentPoly: the oracle of the unchecked
    wrappers."""
    return Superform(
        form.chart,
        form.table,
        {
            Monomial(m.thetas, m.devens, m.dodds, m.deltas): LaurentPoly(lp.variables, lp.terms)
            for m, lp in form.terms.items()
        },
    )


class TestUncheckedForms(unittest.TestCase):
    # _glue, cech's H^1 representatives and _derham_classes wrap their terms
    # unchecked; each form equals its checked rebuild, with its term order,
    # coefficient types and a tuple of variable names.
    def assert_clean(self, form, msg):
        want = checked_form(form)
        self.assertEqual(form, want, msg=msg)
        self.assertEqual(strict_form(form), strict_form(want), msg=msg)
        self.assertEqual(
            [(type(m), type(lp.variables)) for m, lp in form.terms.items()],
            [(Monomial, tuple)] * len(form.terms),
            msg=msg,
        )

    def test_cech_forms_are_clean(self):
        for atlas in (P11, scaled_atlas()):
            for picture in (0, 1):
                for i in range(-40, 41):
                    msg = (sorted(atlas.charts), i, picture)
                    report = cech(atlas, (i, picture), 0)
                    for parts in report.generators_h0:
                        self.assertEqual(list(parts), sorted(atlas.charts), msg=msg)
                        for form in parts.values():
                            self.assert_clean(form, msg)
                    for form in report.generators_h1:
                        self.assert_clean(form, msg)

    def test_derham_classes_are_clean(self):
        cases = [(builtin_flat(2, 4), p) for p in range(5)] + [(P11, 0), (P11, 1), (scaled_atlas(), 1)]
        for atlas, picture in cases:
            classes = cohomology._derham_classes(atlas, picture)
            n = len(atlas.chart(min(atlas.charts)).table.odd_names)
            self.assertEqual(len(classes), comb(n, picture))
            for parts in classes:
                for form in parts.values():
                    self.assert_clean(form, (sorted(atlas.charts), picture))


class TestNegativeCutoff(unittest.TestCase):
    def test_every_entry_point_rejects(self):
        # A cutoff must be an int >= 0.  At 0.5 the flat box would miss the
        # class of flat:1,1 in picture 1, which used to be answered as
        # stabilized, and cech and pairing_matrix used to answer too.
        calls = {
            "cech": lambda cutoff: cech(P11, (0, 0), cutoff),
            "cech -1|1": lambda cutoff: cech(P11, (-1, 1), cutoff),
            "derham p11": lambda cutoff: derham("p11", 0, (0, 1), cutoff),
            "derham flat": lambda cutoff: derham("flat:1,1", 1, (0, 1), cutoff),
            "pairing_matrix": lambda cutoff: pairing_matrix(0, cutoff),
        }
        refusals = {-1: "non-negative, got -1", 0.5: "an int, got 0.5", None: "an int, got None"}
        for name, call in calls.items():
            for cutoff, message in refusals.items():
                with self.assertRaisesRegex(StructuralError, "cutoff must be " + message, msg=(name, cutoff)):
                    call(cutoff)


class TestCechDeRhamConsistency(unittest.TestCase):
    def test_dimensions_agree(self):
        report = cech_derham_check(8)
        self.assertTrue(report.passed, msg=str(report.mismatches))
        self.assertEqual(report.derham_dims, report.constant_sheaf_dims)
        self.assertEqual(report.fiber_dim, 1)

    def test_generator_image_must_be_a_constant_multiple(self):
        # The constant sheaf is counted only after `derham` has checked
        # psi*delta(dpsi) glued: its image must be the generator itself, so
        # a transition that scales it, by g^3 or by the constant 2, fails.
        for factor in (LaurentPoly.monomial(("g",), (3,)), LaurentPoly.const(("g",), 2)):
            scaled = lambda m, form: pullback(m, form).times_poly(factor)
            with mock.patch.object(cohomology, "pullback", side_effect=scaled):
                with self.assertRaisesRegex(StructuralError, "not glued", msg=factor):
                    cech_derham_check(8)


def printed(parts):
    return {chart_id: pretty_print(form) for chart_id, form in parts.items()}


def printed_gens(gens):
    return {i: [printed(parts) for parts in group] for i, group in gens.items()}


def pretty_print_mon(mon):
    table = P11.chart("U0").table
    return pretty_print(normalize(mon.factors(), 1, "U0", table))


if __name__ == "__main__":
    unittest.main()
