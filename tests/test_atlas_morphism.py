"""Tests for charts, transition morphisms, and pullbacks."""

import random
import unittest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis.strategies import integers

from superforms import (
    LaurentPoly,
    Morphism,
    StructuralError,
    Superform,
    UnsupportedMorphismError,
    builtin_flat,
    builtin_p11,
    delta,
    dgamma,
    dpsi,
    exterior_d,
    identity_morphism,
    normalize,
    pretty_print,
    pullback,
    theta,
    verify_cocycle,
    wedge,
)

from formgen import random_form

P11 = builtin_p11()
T0 = P11.chart("U0").table
T1 = P11.chart("U1").table
M01 = P11.transition("U0", "U1")  # expresses U1 coordinates over U0


def u1(factors, coeff=1):
    return normalize(list(factors), coeff, "U1", T1)


def u0(factors, coeff=1):
    return normalize(list(factors), coeff, "U0", T0)


def gpow(form, k):
    return form.times_poly(LaurentPoly.monomial(("g",), (k,)))


class TestAtlasStructure(unittest.TestCase):
    def test_projective_atlas_charts(self):
        self.assertEqual(sorted(P11.charts), ["U0", "U1"])
        self.assertEqual(T0.even_names, ("g",))
        self.assertEqual(T0.odd_names, ("psi",))

    def test_flat_atlas_single_chart(self):
        flat = builtin_flat(2, 3)
        self.assertEqual(list(flat.charts), ["U0"])
        table = flat.chart("U0").table
        self.assertEqual(table.even_names, ("g1", "g2"))
        self.assertEqual(table.odd_names, ("psi1", "psi2", "psi3"))

    def test_unknown_transition_rejected(self):
        with self.assertRaises(StructuralError):
            P11.transition("U0", "U9")

    def test_identity_pullback_is_identity(self):
        ident = identity_morphism(P11.chart("U0"))
        rng = random.Random(11)
        for _ in range(10):
            a = random_form(rng, "U0", T0, terms=3)
            self.assertEqual(pullback(ident, a), a)


class TestTransitionImages(unittest.TestCase):
    def test_even_coordinate_inverts(self):
        g = Superform.from_poly("U1", T1, LaurentPoly.monomial(("g",), (1,)))
        self.assertEqual(pretty_print(pullback(M01, g)), "g^-1")

    def test_even_differential(self):
        self.assertEqual(pretty_print(pullback(M01, u1([dgamma(0)]))), "-g^-2*dg")

    def test_odd_coordinate(self):
        self.assertEqual(pretty_print(pullback(M01, u1([theta(0)]))), "g^-1*psi")

    def test_odd_differential(self):
        self.assertEqual(
            pretty_print(pullback(M01, u1([dpsi(0)]))), "-g^-2*psi*dg + g^-1*dpsi"
        )

    def test_odd_differential_square(self):
        got = pullback(M01, u1([dpsi(0), dpsi(0)]))
        want = gpow(u0([dpsi(0), dpsi(0)]), -2) + gpow(u0([theta(0), dgamma(0), dpsi(0)], -2), -3)
        self.assertEqual(got, want)

    def test_delta_image(self):
        self.assertEqual(
            pretty_print(pullback(M01, u1([delta(0, 0)]))),
            "g*delta(dpsi) - psi*dg*delta'(dpsi)",
        )

    def test_delta_images_all_orders(self):
        # delta^(n) pulls back to g^(n+1)*delta^(n) - g^n*psi*dg*delta^(n+1).
        for n in range(6):
            got = pullback(M01, u1([delta(0, n)]))
            want = gpow(u0([delta(0, n)]), n + 1) + gpow(u0([theta(0), dgamma(0), delta(0, n + 1)], -1), n)
            self.assertEqual(got, want, msg="order %d" % n)

    def test_picture_one_witness_is_invariant(self):
        got = pullback(M01, u1([theta(0), delta(0, 0)]))
        self.assertEqual(got, u0([theta(0), delta(0, 0)]))

    def test_exact_picture_one_generator_dies(self):
        self.assertTrue(pullback(M01, u1([dpsi(0), delta(0, 0)])).is_zero())


class TestFunctoriality(unittest.TestCase):
    @settings(deadline=None, max_examples=60)
    @given(integers(0, 10**6))
    def test_pullback_is_a_ring_map(self, seed):
        rng = random.Random(seed)
        a = random_form(rng, "U1", T1, terms=2, max_order=2, max_exp=2)
        b = random_form(rng, "U1", T1, terms=2, max_order=2, max_exp=2)
        self.assertEqual(pullback(M01, wedge(a, b)), wedge(pullback(M01, a), pullback(M01, b)))
        self.assertEqual(pullback(M01, a + b), pullback(M01, a) + pullback(M01, b))

    @settings(deadline=None, max_examples=60)
    @given(integers(0, 10**6))
    def test_pullback_commutes_with_d(self, seed):
        rng = random.Random(seed)
        a = random_form(rng, "U1", T1, terms=2, max_order=2, max_exp=2)
        self.assertEqual(pullback(M01, exterior_d(a)), exterior_d(pullback(M01, a)))

    def test_round_trip_through_both_charts(self):
        m10 = P11.transition("U1", "U0")
        rng = random.Random(23)
        for _ in range(10):
            a = random_form(rng, "U1", T1, terms=2, max_order=2, max_exp=2)
            self.assertEqual(pullback(m10, pullback(M01, a)), a)


class TestDeltaSeries(unittest.TestCase):
    def test_non_terminating_series_rejected(self):
        # psi1 -> psi1 + psi2 sends dpsi1 to dpsi1 + dpsi2, and dpsi2 is not
        # nilpotent: no truncation of the delta series is exact.
        chart = builtin_flat(1, 2).chart("U0")
        one = LaurentPoly.const(("g",), 1)
        m = Morphism(
            chart, chart, {0: LaurentPoly.monomial(("g",), (1,))}, {0: ((one, 0), (one, 1)), 1: ((one, 1),)}
        )
        form = normalize([delta(0)], 1, "U0", chart.table)
        with self.assertRaises(UnsupportedMorphismError):
            pullback(m, form)


class TestCocycleVerification(unittest.TestCase):
    def test_standard_probes_pass(self):
        probes = [
            u1([delta(0, k)]) for k in range(4)
        ] + [u1([theta(0), delta(0, 1)]), u1([dpsi(0), dpsi(0)]), u1([dgamma(0), dpsi(0)])]
        report = verify_cocycle(P11, probes)
        self.assertTrue(report.passed)
        self.assertEqual(report.failures, [])
        self.assertGreater(report.checked, 0)

    def test_random_probes_pass(self):
        rng = random.Random(5)
        probes = [random_form(rng, "U1", T1, terms=2, max_order=2, max_exp=2) for _ in range(8)]
        report = verify_cocycle(P11, probes)
        self.assertTrue(report.passed, msg=str(report.failures))


if __name__ == "__main__":
    unittest.main()
