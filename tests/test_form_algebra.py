"""Tests for the graded form algebra: normal form, wedge, d, and pairing."""

import random
import unittest
from fractions import Fraction
from math import factorial

import sympy
from hypothesis import given, settings
from hypothesis.strategies import integers

from superforms import (
    LaurentPoly,
    Monomial,
    StructuralError,
    Superform,
    UnsupportedMorphismError,
    bidegree_components,
    builtin_flat,
    builtin_p11,
    delta,
    delta_expand,
    dgamma,
    dpsi,
    exterior_d,
    koszul_sign,
    normalize,
    pair,
    parse,
    pretty_print,
    theta,
    wedge,
)
from superforms.coeff_ring import lp_scale
from superforms.form_algebra import DG, DL, DP, TH, _add_terms, _validate_atoms

from formgen import form_degree, random_form, random_monomial, random_poly, total_parity

P11 = builtin_p11()
T11 = P11.chart("U0").table
FLAT22 = builtin_flat(2, 2)
T22 = FLAT22.chart("U0").table


def mono(factors, coeff=1, table=T11):
    return normalize(list(factors), coeff, "U0", table)


# The normal order written out as ranks, so that the oracles below do not
# rely on how the atoms themselves compare.
RANK = {TH: 0, DG: 1, DP: 2, DL: 3}


def rank_key(a):
    """Normal order: thetas, dgammas, dpsis, deltas, each by index, deltas
    then by order."""
    return (RANK[a[0]], a[1], a[2] if a[0] == DL else 0)


def bubble_sign(atoms):
    """Reference sign: sort by adjacent transpositions, multiplying pair signs."""
    atoms = list(atoms)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(atoms) - 1):
            if rank_key(atoms[i]) > rank_key(atoms[i + 1]):
                sign *= koszul_sign(atoms[i], atoms[i + 1])
                atoms[i], atoms[i + 1] = atoms[i + 1], atoms[i]
                changed = True
    return sign, atoms


def random_sortable_atoms(rng):
    """A shuffled factor list with no vanishing repeats and no contractions."""
    atoms = []
    for j in range(2):
        if rng.random() < 0.5:
            atoms.append(theta(j))
        r = rng.random()
        if r < 0.35:
            atoms.append(delta(j, rng.randrange(4)))
        elif r < 0.6:
            atoms.extend([dpsi(j)] * rng.randint(1, 3))
    for i in range(2):
        if rng.random() < 0.5:
            atoms.append(dgamma(i))
    rng.shuffle(atoms)
    return atoms


def stepwise_normalize(factors, coeff, chart, table):
    """normalize with the contraction applied one dpsi at a time: move the
    rightmost dpsi_j next to delta^(k)(dpsi_j), collecting the crossing signs,
    replace the pair by -k * delta^(k-1)(dpsi_j) and rescan the factor list.
    The oracle of normalize's one-step contraction."""
    lp = coeff if isinstance(coeff, LaurentPoly) else LaurentPoly.const(table.even_names, coeff)
    if lp.is_zero():
        return Superform.zero(chart, table)
    fs = list(factors)
    _validate_atoms(fs, table)
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and rank_key(fs[j - 1]) > rank_key(fs[j]):
            sign *= koszul_sign(fs[j - 1], fs[j])
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    for t in range(1, len(fs)):
        a, b = fs[t - 1], fs[t]
        if a[0] == b[0] and a[0] in (TH, DG, DL) and a[1] == b[1]:
            return Superform.zero(chart, table)
    scalar = Fraction(1)
    while True:
        dp_positions = {}
        for t, a in enumerate(fs):
            if a[0] == DP:
                dp_positions[a[1]] = t  # rightmost occurrence wins
        target = None
        for t, a in enumerate(fs):
            if a[0] == DL and a[1] in dp_positions:
                target = (dp_positions[a[1]], t)
                break
        if target is None:
            break
        p, q = target
        mover = fs[p]
        for crossed in fs[p + 1 : q]:
            sign *= koszul_sign(mover, crossed)
        k = fs[q][2]
        if k == 0:
            return Superform.zero(chart, table)
        scalar *= -k
        fs[q] = (DL, fs[q][1], k - 1)
        del fs[p]
    thetas = tuple(a[1] for a in fs if a[0] == TH)
    devens = tuple(a[1] for a in fs if a[0] == DG)
    dodds = {}
    for a in fs:
        if a[0] == DP:
            dodds[a[1]] = dodds.get(a[1], 0) + 1
    deltas = tuple((a[1], a[2]) for a in fs if a[0] == DL)
    mon = Monomial(thetas, devens, tuple(sorted(dodds.items())), deltas)
    return Superform(chart, table, {mon: lp_scale(lp, scalar * sign)})


def random_contracting_atoms(rng, table):
    """A shuffled factor list over every odd index of the table: dpsi powers
    up to 5 against delta orders up to 5 (a contraction that may vanish),
    thetas and dgammas, and now and then a vanishing repeat."""
    atoms = []
    for j in range(len(table.odd_names)):
        if rng.random() < 0.5:
            atoms.append(theta(j))
        atoms.extend([dpsi(j)] * rng.randint(0, 5))
        if rng.random() < 0.7:
            atoms.append(delta(j, rng.randrange(6)))
    for i in range(len(table.even_names)):
        if rng.random() < 0.5:
            atoms.append(dgamma(i))
    if rng.random() < 0.05:
        atoms.append(rng.choice(atoms or [theta(0)]))
    rng.shuffle(atoms)
    return atoms


def strict_terms(terms):
    """A terms map in insertion order, each coefficient polynomial as its
    (exponents, value, type) list."""
    return [(mon, [(e, c, type(c)) for e, c in lp.terms.items()]) for mon, lp in terms.items()]


class TestNormalForm(unittest.TestCase):
    def test_square_zero_generators(self):
        self.assertTrue(mono([theta(0), theta(0)]).is_zero())
        self.assertTrue(mono([dgamma(0), dgamma(0)]).is_zero())
        self.assertTrue(mono([delta(0, 1), delta(0, 2)]).is_zero())

    def test_dpsi_powers_accumulate(self):
        form = mono([dpsi(0), dpsi(0), dpsi(0)])
        (m, lp), = form.terms.items()
        self.assertEqual(m.dodds, ((0, 3),))
        self.assertEqual(lp.coefficient((0,)), 1)

    def test_contraction_annihilates_when_order_too_low(self):
        self.assertTrue(mono([dpsi(0), delta(0, 0)]).is_zero())
        self.assertTrue(mono([dpsi(0), dpsi(0), delta(0, 1)]).is_zero())

    def test_contraction_example(self):
        self.assertEqual(pretty_print(mono([dpsi(0), dpsi(0), delta(0, 2)])), "2*delta(dpsi)")

    def test_delta_factors_anticommute_at_order_zero(self):
        ab = mono([delta(0, 0), delta(1, 0)], table=T22)
        ba = mono([delta(1, 0), delta(0, 0)], table=T22)
        self.assertEqual(ba, -ab)

    def test_contraction_against_distribution_calculus(self):
        # x^a * delta^(b)(x) = (-1)^a b!/(b-a)! delta^(b-a)(x): both sides are
        # checked as distributions by pairing with test monomials x^c, where
        # <delta^(k), f> = (-1)^k f^(k)(0) is evaluated with sympy.
        x = sympy.Symbol("x")
        for a in range(6):
            for b in range(6):
                form = mono([dpsi(0)] * a + [delta(0, b)])
                if a > b:
                    self.assertTrue(form.is_zero())
                    continue
                (m, lp), = form.terms.items()
                self.assertEqual(m, Monomial((), (), (), ((0, b - a),)))
                coeff = lp.coefficient((0,))
                k = b - a
                for c in range(9):
                    lhs = (-1) ** b * sympy.diff(x ** (a + c), x, b).subs(x, 0)
                    rhs = coeff * (-1) ** k * sympy.diff(x**c, x, k).subs(x, 0)
                    self.assertEqual(lhs, rhs, msg="a=%d b=%d c=%d" % (a, b, c))

    @settings(deadline=None, max_examples=120)
    @given(integers(0, 10**6))
    def test_reordering_sign_matches_bubble_sort(self, seed):
        rng = random.Random(seed)
        atoms = random_sortable_atoms(rng)
        sign, sorted_atoms = bubble_sign(atoms)
        got = mono(atoms, table=T22)
        want = mono(sorted_atoms, sign, table=T22)
        self.assertEqual(got, want)

    def test_one_step_contraction_matches_stepwise(self):
        # Sums of several products per case, so that term order, cancellation
        # and the signs of mixed indices are compared as well.
        rng = random.Random(20261018)
        for case in range(1500):
            table = T11 if case % 2 else T22
            got, want = {}, {}
            for _ in range(rng.randint(1, 4)):
                atoms = random_contracting_atoms(rng, table)
                coeff = random_poly(rng, table.even_names)
                _add_terms(got, normalize(atoms, coeff, "U0", table).terms)
                _add_terms(want, stepwise_normalize(atoms, coeff, "U0", table).terms)
            self.assertEqual(strict_terms(got), strict_terms(want), msg=case)

    def test_listing_order_prefers_high_rank_factors(self):
        mons = [
            Monomial((), (), (), ((0, 1),)),
            Monomial((0,), (), (), ((0, 1),)),
            Monomial((), (0,), (), ((0, 2),)),
            Monomial((0,), (0,), (), ((0, 2),)),
        ]
        shuffled = [mons[2], mons[0], mons[3], mons[1]]
        self.assertEqual(sorted(shuffled, key=lambda m: m.sort_key()), mons)

    def test_atoms_compare_in_normal_order(self):
        # normalize and Monomial.sort_key compare the atoms themselves.
        atoms = [make(j) for make in (theta, dgamma, dpsi) for j in range(3)]
        atoms += [delta(j, k) for j in range(3) for k in range(6)]
        for a in atoms:
            for b in atoms:
                self.assertEqual(a < b, rank_key(a) < rank_key(b), msg=(a, b))

    def test_repr_names_the_kinds(self):
        # Error messages embed forms, so the repr prints the kinds by name.
        self.assertEqual(
            repr(parse("g*psi*dg*dpsi^2 + delta^(3)(dpsi)")),
            "Superform(U0, (('th', 0), ('dg', 0), ('dp', 0), ('dp', 0)):LaurentPoly(1*(1,)); "
            "(('dl', 0, 3),):LaurentPoly(1*(0,)))",
        )


class TestWedge(unittest.TestCase):
    @settings(deadline=None, max_examples=60)
    @given(integers(0, 10**6))
    def test_associative(self, seed):
        rng = random.Random(seed)
        a = random_form(rng, "U0", T22, terms=2, max_order=2)
        b = random_form(rng, "U0", T22, terms=2, max_order=2)
        c = random_form(rng, "U0", T22, terms=2, max_order=2)
        self.assertEqual(wedge(wedge(a, b), c), wedge(a, wedge(b, c)))

    @settings(deadline=None, max_examples=60)
    @given(integers(0, 10**6))
    def test_bilinear(self, seed):
        rng = random.Random(seed)
        a = random_form(rng, "U0", T22, terms=2)
        b = random_form(rng, "U0", T22, terms=2)
        c = random_form(rng, "U0", T22, terms=2)
        self.assertEqual(wedge(a + b, c), wedge(a, c) + wedge(b, c))
        self.assertEqual(wedge(a, b + c), wedge(a, b) + wedge(a, c))

    @settings(deadline=None, max_examples=120)
    @given(integers(0, 10**6))
    def test_sign_rule_on_monomials(self, seed):
        rng = random.Random(seed)
        ma = random_monomial(rng, T22)
        mb = random_monomial(rng, T22)
        a = normalize(ma.factors(), 1, "U0", T22)
        b = normalize(mb.factors(), 1, "U0", T22)
        flip = (ma.degree() * mb.degree() + total_parity(ma) * total_parity(mb)) % 2
        ab = wedge(a, b)
        ba = wedge(b, a)
        self.assertEqual(ab, -ba if flip else ba)

    def test_chart_mismatch_rejected(self):
        a = Superform.constant("U0", T11, 1)
        b = Superform.constant("U1", T11, 1)
        with self.assertRaises(StructuralError):
            wedge(a, b)


class TestExteriorDerivative(unittest.TestCase):
    def test_on_coordinates(self):
        g = Superform.from_poly("U0", T11, LaurentPoly.monomial(("g",), (1,)))
        self.assertEqual(pretty_print(exterior_d(g)), "dg")
        ps = mono([theta(0)])
        self.assertEqual(pretty_print(exterior_d(ps)), "dpsi")

    def test_closed_generators(self):
        for form in [mono([dgamma(0)]), mono([dpsi(0)]), mono([delta(0, 2)])]:
            self.assertTrue(exterior_d(form).is_zero())

    def test_picture_one_witness_is_closed(self):
        self.assertTrue(exterior_d(mono([theta(0), delta(0, 0)])).is_zero())

    def test_contraction_interplay(self):
        # d(theta*delta'(dpsi)) = dpsi*delta'(dpsi) = -delta(dpsi)
        form = exterior_d(mono([theta(0), delta(0, 1)]))
        self.assertEqual(form, mono([delta(0, 0)], -1))

    @settings(deadline=None, max_examples=120)
    @given(integers(0, 10**6))
    def test_d_squared_zero(self, seed):
        rng = random.Random(seed)
        a = random_form(rng, "U0", T22, terms=3, max_order=3)
        self.assertTrue(exterior_d(exterior_d(a)).is_zero())

    @settings(deadline=None, max_examples=120)
    @given(integers(0, 10**6))
    def test_graded_leibniz(self, seed):
        rng = random.Random(seed)
        ma = random_monomial(rng, T22)
        a = normalize(ma.factors(), 1, "U0", T22).times_poly(
            LaurentPoly.monomial(T22.even_names, (rng.randint(-2, 2), rng.randint(-2, 2)))
        )
        b = random_form(rng, "U0", T22, terms=2)
        lhs = exterior_d(wedge(a, b))
        rhs = wedge(exterior_d(a), b)
        tail = wedge(a, exterior_d(b))
        rhs = rhs + (-tail if ma.degree() % 2 else tail)
        self.assertEqual(lhs, rhs)


class TestBidegree(unittest.TestCase):
    def test_components_partition(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_form(rng, "U0", T22, terms=4)
            parts = bidegree_components(a)
            total = Superform.zero("U0", T22)
            for (deg, pic), part in parts.items():
                bd = part.bidegree()
                self.assertEqual((bd.degree, bd.picture), (deg, pic))
                total = total + part
            self.assertEqual(total, a)

    def test_monomial_bidegrees(self):
        self.assertEqual(mono([dgamma(0)]).bidegree().degree, 1)
        m = mono([theta(0), delta(0, 2)])
        self.assertEqual((m.bidegree().degree, m.bidegree().picture), (-2, 1))


class TestDeltaExpand(unittest.TestCase):
    def test_identity_argument(self):
        arg = mono([dpsi(0)])
        for k in range(4):
            self.assertEqual(delta_expand(k, arg), mono([delta(0, k)]))

    def test_scalar_rescaling(self):
        arg = mono([dpsi(0)]).times_poly(LaurentPoly.monomial(("g",), (2,), Fraction(3)))
        got = delta_expand(1, arg)
        want = mono([delta(0, 1)]).times_poly(
            LaurentPoly.monomial(("g",), (-4,), Fraction(1, 9))
        )
        self.assertEqual(got, want)

    def test_nilpotent_tail_terminates(self):
        # argument g^-1*dpsi - g^-2*psi*dg: the expansion of delta about the
        # invertible term has exactly two surviving orders.
        tail = mono([theta(0), dgamma(0)], -1).times_poly(LaurentPoly.monomial(("g",), (-2,)))
        arg = mono([dpsi(0)]).times_poly(LaurentPoly.monomial(("g",), (-1,))) + tail
        got = delta_expand(0, arg)
        want = mono([delta(0, 0)]).times_poly(
            LaurentPoly.monomial(("g",), (1,))
        ) + mono([theta(0), dgamma(0), delta(0, 1)], -1)
        self.assertEqual(got, want)
        self.assertEqual(pretty_print(got), "g*delta(dpsi) - psi*dg*delta'(dpsi)")

    def test_truncation_must_reach_a_zero_power(self):
        # rest = -g^-2*psi*dg has rest^2 = 0: the series stops after the
        # terms of rest^0 and rest^1, and adds nothing for rest^2.
        tail = mono([theta(0), dgamma(0)], -1).times_poly(LaurentPoly.monomial(("g",), (-2,)))
        arg = mono([dpsi(0)]).times_poly(LaurentPoly.monomial(("g",), (-1,))) + tail
        orders = [dl[0][1] for dl in (mon.deltas for mon in delta_expand(0, arg).terms)]
        self.assertEqual(orders, [0, 1])
        # dpsi_2 is even and never nilpotent.
        arg = normalize([dpsi(0)], 1, "U0", T22) + normalize([dpsi(1)], 1, "U0", T22)
        with self.assertRaisesRegex(UnsupportedMorphismError, "^delta series does not terminate"):
            delta_expand(0, arg)

    def test_series_runs_to_the_first_zero_power(self):
        # On flat:2,2, rest = psi1*dg1 + psi2*dg2 has rest^2 = 2*psi1*psi2*dg1*dg2
        # and rest^3 = 0, so the series needs the delta'' term of rest^2/2!.
        arg = (
            normalize([dpsi(0)], 1, "U0", T22)
            + normalize([theta(0), dgamma(0)], 1, "U0", T22)
            + normalize([theta(1), dgamma(1)], 1, "U0", T22)
        )
        self.assertEqual(
            pretty_print(delta_expand(0, arg)),
            "delta(dpsi1) + psi1*dg1*delta'(dpsi1) + psi2*dg2*delta'(dpsi1)"
            " + psi1*psi2*dg1*dg2*delta''(dpsi1)",
        )

    def test_scalar_rest_does_not_terminate(self):
        # rest = 1 is made of dpsi factors alone (none): every power is 1.
        arg = mono([dpsi(0)]) + Superform.constant("U0", T11, 1)
        with self.assertRaisesRegex(UnsupportedMorphismError, "^delta series does not terminate"):
            delta_expand(0, arg)

    def test_invalid_orders_rejected(self):
        with self.assertRaises(StructuralError):
            delta_expand(-1, mono([dpsi(0)]))


class TestPairing(unittest.TestCase):
    def test_volume_row(self):
        for n in range(6):
            a = mono([dgamma(0)] + [dpsi(0)] * n)
            b = mono([delta(0, n)])
            want = mono([dgamma(0), delta(0, 0)], (-1) ** n * factorial(n))
            self.assertEqual(pair(a, b), want)

    def test_transverse_row(self):
        for n in range(6):
            a = mono([dpsi(0)] * (n + 1))
            b = mono([dgamma(0), delta(0, n + 1)])
            want = mono([dgamma(0), delta(0, 0)], factorial(n + 1))
            self.assertEqual(pair(a, b), want)

    def test_bidegree_validation(self):
        with self.assertRaises(StructuralError):
            pair(mono([dgamma(0)]), mono([dgamma(0)]))
        with self.assertRaises(StructuralError):
            pair(mono([dpsi(0)]), mono([delta(0, 2)]))
        with self.assertRaises(StructuralError):
            pair(mono([theta(0), delta(0, 0)]), mono([dgamma(0), dpsi(0)]))


if __name__ == "__main__":
    unittest.main()
