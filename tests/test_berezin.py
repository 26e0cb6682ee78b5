"""Tests for Berezin reduction and the bosonic residue."""

import random
import unittest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis.strategies import integers

from superforms import (
    LaurentPoly,
    NotATopFormError,
    StructuralError,
    Superform,
    berezin_integral,
    berezin_reduce,
    bosonic_residue,
    builtin_flat,
    builtin_p11,
    delta,
    dgamma,
    dpsi,
    exterior_d,
    normalize,
    theta,
)

from formgen import random_poly

P11 = builtin_p11()
T11 = P11.chart("U0").table
FLAT12 = builtin_flat(1, 2)
T12 = FLAT12.chart("U0").table


def top11(factors, coeff=1):
    return normalize(list(factors), coeff, "U0", T11)


def top12(factors, coeff=1):
    return normalize(list(factors), coeff, "U0", T12)


def volume12():
    """dg * delta(dpsi1) * delta(dpsi2) on the flat (1|2) chart."""
    return [dgamma(0), delta(0, 0), delta(1, 0)]


class TestReduce(unittest.TestCase):
    def test_full_theta_block_survives(self):
        # (a + b*psi1*psi2) * volume -> b
        a, b = Fraction(5), Fraction(-7, 3)
        form = top12(volume12(), a) + top12([theta(0), theta(1)] + volume12(), b)
        self.assertEqual(berezin_reduce(form), LaurentPoly.const(("g",), b))

    def test_swapped_theta_block_flips_sign(self):
        b = Fraction(4)
        form = top12([theta(1), theta(0)] + volume12(), b)
        self.assertEqual(berezin_reduce(form), LaurentPoly.const(("g",), -b))

    def test_theta_independent_integrand_vanishes(self):
        form = top12(volume12(), 9)
        self.assertTrue(berezin_reduce(form).is_zero())

    def test_partial_theta_block_vanishes(self):
        form = top12([theta(0)] + volume12(), 2)
        self.assertTrue(berezin_reduce(form).is_zero())

    def test_even_coefficient_passes_through(self):
        lp = LaurentPoly(("g",), {(-1,): Fraction(2), (3,): Fraction(1, 2)})
        form = top11([theta(0), dgamma(0), delta(0, 0)]).times_poly(lp)
        self.assertEqual(berezin_reduce(form), lp)

    def test_missing_dgamma_rejected(self):
        with self.assertRaises(NotATopFormError):
            berezin_reduce(top11([theta(0), delta(0, 0)]))

    def test_bare_dpsi_rejected(self):
        with self.assertRaises(NotATopFormError):
            berezin_reduce(top12([dgamma(0), dpsi(0), delta(1, 0)]))

    def test_higher_delta_order_rejected(self):
        with self.assertRaises(NotATopFormError):
            berezin_reduce(top11([theta(0), dgamma(0), delta(0, 1)]))

    def test_missing_delta_factor_rejected(self):
        with self.assertRaises(NotATopFormError):
            berezin_reduce(top12([dgamma(0), delta(0, 0)]))

    def test_linearity(self):
        rng = random.Random(3)
        for _ in range(15):
            la = random_poly(rng, ("g",), terms=3)
            lb = random_poly(rng, ("g",), terms=3)
            base = top11([theta(0), dgamma(0), delta(0, 0)])
            got = berezin_reduce(base.times_poly(la) + base.times_poly(lb))
            self.assertEqual(got, la + lb)


class TestResidue(unittest.TestCase):
    def test_simple_pole(self):
        lp = LaurentPoly(("g",), {(-1,): Fraction(1)})
        self.assertEqual(bosonic_residue(lp, "g"), 1)

    def test_regular_part_ignored(self):
        lp = LaurentPoly(("g",), {(0,): Fraction(2), (3,): Fraction(1), (-2,): Fraction(9)})
        self.assertEqual(bosonic_residue(lp, "g"), 0)

    def test_scaled_pole(self):
        lp = LaurentPoly(("g",), {(-1,): Fraction(5), (1,): Fraction(2)})
        self.assertEqual(bosonic_residue(lp, "g"), 5)

    def test_mixed_variables_require_other_exponents_zero(self):
        lp = LaurentPoly(
            ("g1", "g2"), {(-1, 0): Fraction(3), (-1, 1): Fraction(7), (-1, -1): Fraction(2)}
        )
        self.assertEqual(bosonic_residue(lp, "g1"), 3)

    def test_unknown_variable(self):
        with self.assertRaises(StructuralError):
            bosonic_residue(LaurentPoly.const(("g",), 1), "z")

    def test_missing_residue_is_fraction_zero(self):
        # Both reads return the stored coefficient or Fraction(0), never int 0.
        lp = LaurentPoly(("g1", "g2"), {(-1, 1): Fraction(7), (1, -1): Fraction(2)})
        for variable in ("g1", "g2"):
            got = bosonic_residue(lp, variable)
            self.assertEqual((type(got), got), (Fraction, Fraction(0)))
        g2 = LaurentPoly.monomial(("g",), (2,))
        form = normalize([theta(0), dgamma(0), delta(0, 0)], g2, "U0", T11)
        got = berezin_integral(form)
        self.assertEqual((type(got), got), (Fraction, Fraction(0)))
        got = berezin_integral(Superform.zero("U0", T11))
        self.assertEqual((type(got), got), (Fraction, Fraction(0)))


class TestIntegral(unittest.TestCase):
    def test_unit_volume(self):
        lp = LaurentPoly(("g",), {(-1,): Fraction(1)})
        form = top11([theta(0), dgamma(0), delta(0, 0)]).times_poly(lp)
        self.assertEqual(berezin_integral(form), 1)

    def test_double_pole_integrates_to_zero(self):
        lp = LaurentPoly(("g",), {(-2,): Fraction(1)})
        form = top11([theta(0), dgamma(0), delta(0, 0)]).times_poly(lp)
        self.assertEqual(berezin_integral(form), 0)

    @settings(deadline=None, max_examples=60)
    @given(integers(0, 10**6))
    def test_derivatives_have_no_residue(self, seed):
        # d(f(g) * psi * delta(dpsi)) is a top form whose integral vanishes.
        rng = random.Random(seed)
        f = random_poly(rng, ("g",), terms=3, max_exp=4)
        form = top11([theta(0), delta(0, 0)]).times_poly(f)
        self.assertEqual(berezin_integral(exterior_d(form)), 0)

    def test_flat_two_odd(self):
        lp = LaurentPoly(("g",), {(-1,): Fraction(6)})
        form = top12([theta(0), theta(1)] + volume12()).times_poly(lp)
        self.assertEqual(berezin_integral(form), 6)
        self.assertEqual(bosonic_residue(berezin_reduce(form), "g"), 6)


if __name__ == "__main__":
    unittest.main()
