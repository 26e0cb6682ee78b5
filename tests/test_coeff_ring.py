"""Tests for the exact Laurent-polynomial coefficient ring."""

import random
import unittest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis.strategies import integers

from superforms import (
    LaurentPoly,
    StructuralError,
    UnsupportedMorphismError,
    lp_add,
    lp_mul,
    lp_neg,
    lp_partial,
    lp_scale,
    lp_substitute_monomial,
)

from superforms.coeff_ring import _axpy

from formgen import axpy_oracle, random_poly, random_rational, strict_map

VARS = ("g", "h")


def poly_from_seed(seed, terms=3):
    return random_poly(random.Random(seed), VARS, terms=terms, max_exp=4)


def evaluate(p, point):
    """Evaluate at a dict of nonzero Fractions; independent of the ring ops."""
    total = Fraction(0)
    for exps, c in p.items():
        value = c
        for name, e in zip(p.variables, exps):
            value *= point[name] ** e
        total += value
    return total


class TestConstruction(unittest.TestCase):
    def test_zero_and_const(self):
        z = LaurentPoly.zero(VARS)
        self.assertTrue(z.is_zero())
        one = LaurentPoly.const(VARS, 1)
        self.assertEqual(one.coefficient((0, 0)), 1)
        self.assertFalse(one.is_zero())

    def test_zero_coefficients_never_stored(self):
        p = LaurentPoly(VARS, {(1, 0): Fraction(2), (0, 1): Fraction(0)})
        self.assertEqual(list(p.terms), [(1, 0)])
        q = lp_add(p, lp_neg(p))
        self.assertTrue(q.is_zero())
        self.assertEqual(q.terms, {})

    def test_exponent_arity_checked(self):
        with self.assertRaises(StructuralError):
            LaurentPoly(VARS, {(1,): Fraction(1)})
        with self.assertRaises(StructuralError):
            LaurentPoly.monomial(VARS, (1, 2, 3))
        with self.assertRaises(StructuralError):
            lp_substitute_monomial(LaurentPoly.const(("g",), 1), {"g": (1, (1, 0))})

    def test_non_integral_exponents_rejected(self):
        # Each of the first three used to truncate: to 3*g, to g^2 and g -> 1.
        with self.assertRaises(StructuralError):
            LaurentPoly(("g",), {(1.5,): 1, (1,): 2})
        with self.assertRaises(StructuralError):
            LaurentPoly.monomial(("g",), (2.7,))
        with self.assertRaises(StructuralError):
            lp_substitute_monomial(LaurentPoly.monomial(("g",), (1,)), {"g": (1, (0.5,))})
        for bad in ("3", Fraction(1, 2), float("nan"), float("inf"), None):
            with self.assertRaises(StructuralError):
                LaurentPoly(("g",), {(bad,): 1})
        # Integral entries of other types are integers.
        p = LaurentPoly(VARS, {(Fraction(2), True): 3, (2.0, -1): 0, (0, 4): 1})
        self.assertEqual(p.terms, {(2, 1): 3, (0, 4): 1})
        q = LaurentPoly.monomial(VARS, (Fraction(-6, 3), False), 5)
        self.assertEqual(q.terms, {(-2, 0): 5})
        for exps in (*p.terms, *q.terms):
            self.assertEqual([type(e) for e in exps], [int, int])

    def test_monomial_and_accessors(self):
        p = LaurentPoly.monomial(VARS, (-2, 3), Fraction(1, 3))
        self.assertTrue(p.is_monomial())
        self.assertEqual(p.single_term(), ((-2, 3), Fraction(1, 3)))
        self.assertEqual(p.coefficient((-2, 3)), Fraction(1, 3))
        self.assertEqual(p.coefficient((0, 0)), 0)
        self.assertEqual(p.total_degree(), 1)
        self.assertEqual(p.degree_in(0), -2)
        self.assertEqual(p.degree_in(1), 3)

    def test_exact_fractions_survive_arithmetic(self):
        third = LaurentPoly.const(VARS, Fraction(1, 3))
        three = LaurentPoly.const(VARS, 3)
        self.assertEqual(lp_mul(third, three), LaurentPoly.const(VARS, 1))


class TestAccumulate(unittest.TestCase):
    def test_each_accumulation_cancels_in_order(self):
        g, one = LaurentPoly.monomial(("g",), (1,)), LaurentPoly.const(("g",), 1)
        # The two g terms cancel; g^2 and -1 keep the order of the products.
        self.assertEqual(list(lp_mul(g + one, g - one).items()), [((2,), 1), ((0,), -1)])
        # g -> h and h -> h send g - h to a sum whose two terms cancel.
        gh = LaurentPoly(VARS, {(1, 0): 1, (0, 1): -1})
        images = {"g": (1, (0, 1)), "h": (1, (0, 1))}
        self.assertEqual(lp_substitute_monomial(gh, images).terms, {})
        dst = {"a": Fraction(1), "b": Fraction(2)}
        _axpy(dst, ((k, c) for k, c in (("b", 1), ("c", 3), ("a", Fraction(-1, 2)))), 2)
        self.assertEqual(list(dst.items()), [("b", 4), ("c", 6)])

    def test_unit_shortcuts_match_the_oracle(self):
        # Random sparse updates by each factor, through _axpy and through the
        # loop that multiplies and adds every coefficient, give the same
        # entries in the same order with the same types.  Some pairs cancel
        # an entry exactly, some have a coefficient of 0 and some keys are
        # new.  Ints sit in dst, and in pairs when the factor is an int too:
        # with a Fraction factor of 1 or -1, _axpy takes Fraction pairs.
        rng = random.Random(33)
        factors = (0, 1, -1, Fraction(1), Fraction(-1), Fraction(2, 3), -5)
        seen = {"cancelled": 0, "new": 0}
        for trial in range(400):
            factor = factors[trial % len(factors)]
            dst = {}
            for key in rng.sample(range(12), rng.randint(0, 8)):
                value = random_rational(rng) or Fraction(1)
                dst[key] = int(value) if value.denominator == 1 and rng.random() < 0.3 else value
            pairs = []
            for _ in range(rng.randint(0, 10)):
                key = rng.randrange(16)
                if key in dst and factor and rng.random() < 0.4:
                    c = -Fraction(dst[key]) / factor
                else:
                    c = random_rational(rng)
                    if type(factor) is int and rng.random() < 0.3:
                        c = rng.randint(-3, 3)
                pairs.append((key, c))
            want = dict(dst)
            axpy_oracle(want, pairs, factor)
            got = dict(dst)
            _axpy(got, iter(pairs), factor)
            self.assertEqual(strict_map(got), strict_map(want), msg=(trial, dst, pairs, factor))
            seen["cancelled"] += len(dst.keys() - want.keys())
            seen["new"] += len(want.keys() - dst.keys())
        self.assertTrue(all(seen.values()), msg=seen)

    def test_unit_coefficients_match_the_oracle(self):
        # Coefficients of 1 and -1, as Fractions and as ints, against every
        # kind of factor: _axpy takes them as +-factor for a Fraction factor
        # only, so entries, order and types are the oracle's.
        rng = random.Random(37)
        factors = (1, -1, 0, 2, -5, Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-7, 4))
        units = (Fraction(1), Fraction(-1), 1, -1)
        for trial in range(300):
            factor = factors[trial % len(factors)]
            dst = {key: rng.choice((Fraction(1, 2), Fraction(-3), 2)) for key in rng.sample(range(6), 3)}
            pairs = [(rng.randrange(8), rng.choice(units + (Fraction(5, 3),))) for _ in range(6)]
            if type(factor) is not int:
                # _axpy takes Fraction pairs with a Fraction factor.
                pairs = [(k, Fraction(c)) for k, c in pairs]
            want = dict(dst)
            axpy_oracle(want, pairs, factor)
            got = dict(dst)
            _axpy(got, iter(pairs), factor)
            self.assertEqual(strict_map(got), strict_map(want), msg=(trial, dst, pairs, factor))


class TestRingAxioms(unittest.TestCase):
    @settings(deadline=None, max_examples=60)
    @given(integers(0, 10**6), integers(0, 10**6), integers(0, 10**6))
    def test_ring_identities(self, sa, sb, sc):
        a, b, c = poly_from_seed(sa), poly_from_seed(sb), poly_from_seed(sc)
        self.assertEqual(a + b, b + a)
        self.assertEqual((a + b) + c, a + (b + c))
        self.assertEqual(a * b, b * a)
        self.assertEqual((a * b) * c, a * (b * c))
        self.assertEqual(a * (b + c), a * b + a * c)
        self.assertEqual(a + (-a), LaurentPoly.zero(VARS))
        self.assertEqual(a - b, a + (-b))

    @settings(deadline=None, max_examples=60)
    @given(integers(0, 10**6), integers(0, 10**6))
    def test_operations_agree_with_evaluation(self, sa, sb):
        a, b = poly_from_seed(sa), poly_from_seed(sb)
        point = {"g": Fraction(3, 2), "h": Fraction(-5, 7)}
        self.assertEqual(evaluate(lp_add(a, b), point), evaluate(a, point) + evaluate(b, point))
        self.assertEqual(evaluate(lp_mul(a, b), point), evaluate(a, point) * evaluate(b, point))
        self.assertEqual(evaluate(lp_scale(a, Fraction(2, 5)), point), evaluate(a, point) * Fraction(2, 5))

    def test_mixed_variable_sets_rejected(self):
        a = LaurentPoly.const(("g",), 1)
        b = LaurentPoly.const(("h",), 1)
        with self.assertRaises(StructuralError):
            lp_add(a, b)


class TestSubstitution(unittest.TestCase):
    @settings(deadline=None, max_examples=60)
    @given(integers(0, 10**6))
    def test_monomial_substitution_matches_evaluation(self, seed):
        # g -> 2*x^-1*y, h -> (1/3)*x^2, checked by evaluating both sides.
        p = poly_from_seed(seed)
        images = {"g": (Fraction(2), (-1, 1)), "h": (Fraction(1, 3), (2, 0))}
        q = lp_substitute_monomial(p, images, out_variables=("x", "y"))
        point = {"x": Fraction(5, 3), "y": Fraction(-7, 2)}
        pulled = {
            "g": Fraction(2) * point["x"] ** -1 * point["y"],
            "h": Fraction(1, 3) * point["x"] ** 2,
        }
        self.assertEqual(evaluate(q, point), evaluate(p, pulled))

    def test_negative_exponents_invert_exactly(self):
        p = LaurentPoly.monomial(("g",), (-3,))
        q = lp_substitute_monomial(p, {"g": (Fraction(2), (1,))})
        self.assertEqual(q, LaurentPoly.monomial(("g",), (-3,), Fraction(1, 8)))

    def test_zero_image_rejected(self):
        p = LaurentPoly.monomial(("g",), (-1,))
        with self.assertRaises(UnsupportedMorphismError):
            lp_substitute_monomial(p, {"g": (0, (1,))})

    def test_missing_image_rejected(self):
        p = LaurentPoly.const(VARS, 1)
        with self.assertRaises(StructuralError):
            lp_substitute_monomial(p, {"g": (1, (1, 0))})


class TestPartial(unittest.TestCase):
    def test_power_rule_including_negative(self):
        p = LaurentPoly(("g",), {(4,): Fraction(1), (-2,): Fraction(3)})
        d = lp_partial(p, "g")
        self.assertEqual(d, LaurentPoly(("g",), {(3,): Fraction(4), (-3,): Fraction(-6)}))

    def test_unit_coefficients_stay_fractions(self):
        # A coefficient of 1 or -1 gives Fraction(+-k), and an exponent of
        # -1 gives -c, as c * k would.
        p = LaurentPoly(VARS, {(3, 1): 1, (-2, 0): -1, (1, 5): -1, (4, 4): Fraction(2, 3), (0, 2): 1, (-1, -1): 7})
        for v in range(2):
            want = {}
            for exps, c in p.terms.items():
                if exps[v]:
                    want[exps[:v] + (exps[v] - 1,) + exps[v + 1 :]] = c * exps[v]
            self.assertEqual(strict_map(lp_partial(p, v).terms), strict_map(want))

    def test_constant_kills(self):
        self.assertTrue(lp_partial(LaurentPoly.const(VARS, 7), "g").is_zero())

    @settings(deadline=None, max_examples=60)
    @given(integers(0, 10**6), integers(0, 10**6))
    def test_leibniz_rule(self, sa, sb):
        a, b = poly_from_seed(sa), poly_from_seed(sb)
        for v in VARS:
            lhs = lp_partial(lp_mul(a, b), v)
            rhs = lp_add(lp_mul(lp_partial(a, v), b), lp_mul(a, lp_partial(b, v)))
            self.assertEqual(lhs, rhs)

    def test_unknown_variable(self):
        with self.assertRaises(StructuralError):
            lp_partial(LaurentPoly.const(VARS, 1), "z")


if __name__ == "__main__":
    unittest.main()
