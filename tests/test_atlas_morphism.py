"""Tests for charts, transition morphisms, and pullbacks."""

import random
import unittest
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis.strategies import integers

from superforms import (
    LaurentPoly,
    Monomial,
    Morphism,
    StructuralError,
    Superform,
    UnsupportedMorphismError,
    builtin_flat,
    builtin_p11,
    delta,
    delta_expand,
    dgamma,
    dpsi,
    exterior_d,
    identity_morphism,
    lp_substitute_monomial,
    normalize,
    pretty_print,
    pullback,
    theta,
    verify_cocycle,
    wedge,
)

from superforms import atlas_morphism, form_algebra
from superforms.form_algebra import DG, DL, DP, TH

from formgen import random_form, scaled_atlas, strict_form

# Counts the delta series a pullback expands.
EXPAND = dict(target=atlas_morphism, attribute="delta_expand", wraps=atlas_morphism.delta_expand)

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


def atom_image(m, atom):
    """The pullback of one generator factor, computed afresh: the oracle
    reads no cache, not even for the dpsi a delta expands about."""
    src = m.source
    kind = atom[0]
    if kind == TH:
        return m.odd_image_form(atom[1])
    if kind == DG:
        return exterior_d(Superform.from_poly(src.id, src.table, m.even_images[atom[1]]))
    image = exterior_d(m.odd_image_form(atom[1]))
    return image if kind == DP else delta_expand(atom[2], image)


def chain_pullback(m, a):
    """The earlier pullback, kept as the oracle of the monomial image cache:
    each term's substituted coefficient is wedged with the atom images of its
    monomial one factor at a time, with nothing reused between terms or
    calls."""
    if a.chart != m.target.id or a.table != m.target.table:
        raise StructuralError("form does not live on the morphism target chart")
    images = m.substitution_images()
    src = m.source
    out = Superform.zero(src.id, src.table)
    for mon, f in a.terms.items():
        pulled_f = lp_substitute_monomial(f, images, src.table.even_names)
        acc = Superform.from_poly(src.id, src.table, pulled_f)
        for atom in mon.factors():
            if acc.is_zero():
                break
            acc = wedge(acc, atom_image(m, atom))
        out = out + acc
    return out


def non_terminating_morphism():
    # psi1 -> psi1 + psi2 sends dpsi1 to dpsi1 + dpsi2, and dpsi2 is not
    # nilpotent: the delta series does not terminate.
    chart = builtin_flat(1, 2).chart("U0")
    one = LaurentPoly.const(("g",), 1)
    m = Morphism(
        chart, chart, {0: LaurentPoly.monomial(("g",), (1,))}, {0: ((one, 0), (one, 1)), 1: ((one, 1),)}
    )
    return m, normalize([delta(0)], 1, "U0", chart.table)


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

    def test_builtin_atlases_share_charts_and_morphisms(self):
        # Each call builds a fresh Atlas with its own dicts around charts and
        # morphisms built once, whose image tables refuse writes.
        for build in (builtin_p11, lambda: builtin_flat(2, 2)):
            first, second = build(), build()
            self.assertIsNot(first.charts, second.charts)
            self.assertIsNot(first.transitions, second.transitions)
            for cid, chart in first.charts.items():
                self.assertIs(second.charts[cid], chart)
            for key, m in first.transitions.items():
                self.assertIs(second.transitions[key], m)
                with self.assertRaises(TypeError):
                    m.even_images[0] = m.even_images[0]
                with self.assertRaises(TypeError):
                    m.odd_images[0] = ()
            first.charts.clear()
            first.transitions.clear()
            self.assertEqual(build().charts, second.charts)
            self.assertEqual(build().transitions, second.transitions)

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

    def test_odd_image_pieces_on_one_index_add(self):
        # psi -> g*psi + g^2*psi - g*psi: the pieces on index 0 add term by
        # term, and the two g*psi pieces cancel without a trace.
        g = LaurentPoly.monomial(("g",), (1,))
        pieces = ((g, 0), (LaurentPoly.monomial(("g",), (2,)), 0), (-g, 0))
        m = Morphism(P11.chart("U0"), P11.chart("U1"), {0: g}, {0: pieces})
        image = m.odd_image_form(0)
        self.assertEqual(image, u0([theta(0)]).times_poly(LaurentPoly.monomial(("g",), (2,))))
        self.assertEqual(list(image.terms), [Monomial(thetas=(0,))])
        self.assertEqual(pretty_print(pullback(m, u1([theta(0)]))), "g^2*psi")

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
        m, form = non_terminating_morphism()
        with self.assertRaises(UnsupportedMorphismError):
            pullback(m, form)


class TestMonomialImageCache(unittest.TestCase):
    def transitions(self):
        p11, scaled = builtin_p11(), scaled_atlas()
        flat = builtin_flat(2, 2)
        # psi -> (g^-1 + g^2)*psi: images with several terms per monomial,
        # and no delta image (its dpsi coefficient is not invertible).
        skew = LaurentPoly(("g",), {(-1,): 1, (2,): 1})
        inverse = LaurentPoly.monomial(("g",), (-1,))
        skewed = Morphism(P11.chart("U0"), P11.chart("U1"), {0: inverse}, {0: ((skew, 0),)})
        return [
            P11.transition("U0", "U1"),
            P11.transition("U1", "U0"),
            P11.transition("U0", "U0"),
            P11.transition("U1", "U1"),
            p11.transition("U0", "U1"),
            scaled.transition("A", "B"),
            scaled.transition("B", "A"),
            flat.transition("U0", "U0"),
            skewed,
        ]

    def test_matches_chain_pullback_oracle(self):
        # Terms, their order and coefficient types equal the term-by-term
        # wedge chain, whatever the cache already holds.
        rng = random.Random(14)
        for m in self.transitions():
            t = m.target
            evens = t.table.even_names
            for k in range(40):
                a = random_form(rng, t.id, t.table, terms=rng.randint(1, 4), max_order=5, max_exp=3)
                g_power = LaurentPoly.monomial(evens, (k % 5 - 2,) * len(evens), rng.randint(1, 5))
                a = a + normalize([theta(0), dgamma(0), delta(0, k % 4)], g_power, t.id, t.table)
                a = a + normalize([dpsi(0)] * (1 + k % 3), g_power, t.id, t.table)
                a = a + normalize([theta(0), dpsi(0)], g_power, t.id, t.table)
                if not m.odd_images[0][0][0].is_monomial():
                    a = Superform(t.id, t.table, {mon: lp for mon, lp in a.terms.items() if not mon.deltas})
                msg = (t.id, m.source.id, k)
                want = chain_pullback(m, a)
                got = pullback(m, a)
                self.assertEqual((got.chart, strict_form(got)), (want.chart, strict_form(want)), msg=msg)
                again = pullback(m, a)
                self.assertEqual(strict_form(again), strict_form(want), msg=msg)

    def test_second_pullback_expands_no_delta(self):
        # The cache is keyed by the transition's value, so a fresh build of
        # P11 reuses the image of delta''(dpsi) computed on another build.
        form = u1([theta(0), delta(0, 2)], 3)
        atlas_morphism._monomial_image.cache_clear()
        first = pullback(builtin_p11().transition("U0", "U1"), form)
        with mock.patch.object(**EXPAND) as expand:
            second = pullback(builtin_p11().transition("U0", "U1"), form)
        self.assertEqual(expand.call_count, 0)
        self.assertEqual(strict_form(second), strict_form(first))

    def test_other_gluing_shares_no_entry(self):
        # y = 2/x, s = t/x pulls back the same Monomial to another image.
        # dg*delta'(dpsi) makes four entries on each gluing: the images of
        # dg, of dpsi, of delta'(dpsi) (expanded about that of dpsi) and of
        # their product.
        mon = Monomial(devens=(0,), deltas=((0, 1),))
        atlas_morphism._monomial_image.cache_clear()
        pullback(M01, Superform("U1", T1, {mon: LaurentPoly.const(("g",), 1)}))
        self.assertEqual(atlas_morphism._monomial_image.cache_info().currsize, 4)
        scaled = scaled_atlas().transition("A", "B")
        form = Superform("B", scaled.target.table, {mon: LaurentPoly.const(("y",), 1)})
        with mock.patch.object(**EXPAND) as expand:
            got = pullback(scaled, form)
        self.assertEqual(expand.call_count, 1)
        self.assertEqual(atlas_morphism._monomial_image.cache_info().currsize, 8)
        self.assertEqual(strict_form(got), strict_form(chain_pullback(scaled, form)))
        self.assertNotEqual(strict_form(got), strict_form(pullback(M01, u1([dgamma(0), delta(0, 1)]))))

    def test_non_terminating_series_raises_every_time(self):
        # An exception is not cached: the second call expands and raises
        # again.  The image of dpsi1 it expands about is cached, and is the
        # one entry either call leaves.
        m, form = non_terminating_morphism()
        atlas_morphism._monomial_image.cache_clear()
        for _ in range(2):
            with mock.patch.object(**EXPAND) as expand:
                with self.assertRaises(UnsupportedMorphismError):
                    pullback(m, form)
            self.assertEqual(expand.call_count, 1)
            self.assertEqual(atlas_morphism._monomial_image.cache_info().currsize, 1)
        hits = atlas_morphism._monomial_image.cache_info().hits
        atlas_morphism._monomial_image(m, Monomial(dodds=((0, 1),)))
        self.assertEqual(atlas_morphism._monomial_image.cache_info().hits, hits + 1)

    def test_zero_prefix_images_no_later_factor(self):
        # psi1, psi2 -> psi1 + psi2 sends psi1*psi2 to zero and delta(dpsi1)
        # to a series that does not terminate; psi1*psi2*delta(dpsi1) is
        # zero, and its delta is never imaged.
        chart = builtin_flat(1, 2).chart("U0")
        one = LaurentPoly.const(("g",), 1)
        both = ((one, 0), (one, 1))
        m = Morphism(chart, chart, {0: LaurentPoly.monomial(("g",), (1,))}, {0: both, 1: both})
        with self.assertRaises(UnsupportedMorphismError):
            atlas_morphism._monomial_image(m, Monomial(deltas=((0, 0),)))
        with mock.patch.object(**EXPAND) as expand:
            image = atlas_morphism._monomial_image(m, Monomial(thetas=(0, 1), deltas=((0, 0),)))
        self.assertEqual((image, expand.call_count), ((), 0))

    def test_cached_image_is_read_only(self):
        # Every pullback shares the cached image: it is a tuple, and a
        # caller that changes its result does not change the next one.
        form = u1([dpsi(0), dpsi(0), dgamma(0)])
        image = atlas_morphism._monomial_image(M01, Monomial(devens=(0,), dodds=((0, 2),)))
        self.assertIs(type(image), tuple)
        with self.assertRaises(TypeError):
            image[0] = image[0]
        want = strict_form(pullback(M01, form))
        for lp in pullback(M01, form).terms.values():
            lp.terms.clear()
        self.assertEqual(strict_form(pullback(M01, form)), want)

    def test_repeated_atom_imaged_once(self):
        # dpsi^6 lists dpsi six times; d of the odd image is taken once.
        # dpsi^3 then reads the cached image of dpsi, and psi*dpsi^6 those
        # of psi and dpsi^6, so it takes one wedge.
        forms = [u1([dpsi(0)] * 6), u1([dpsi(0)] * 3), u1([theta(0)] + [dpsi(0)] * 6)]
        want = [chain_pullback(M01, form) for form in forms]
        atlas_morphism._monomial_image.cache_clear()
        d = dict(target=atlas_morphism, attribute="exterior_d", wraps=atlas_morphism.exterior_d)
        with mock.patch.object(**d) as exterior_d:
            got = [pullback(M01, form) for form in forms[:2]]
        self.assertEqual(exterior_d.call_count, 1)
        wedges = []
        counted = lambda a, b: wedges.append(1) or wedge(a, b)
        with mock.patch.object(atlas_morphism, "wedge", counted):
            with mock.patch.object(form_algebra, "wedge", counted):
                got.append(pullback(M01, forms[2]))
        self.assertEqual(len(wedges), 1)
        self.assertEqual([strict_form(f) for f in got], [strict_form(f) for f in want])

    def test_power_by_squaring(self):
        # The image of dpsi^1000 takes about 2*log2(1000) wedges, not 1000,
        # and equals the chain of 1000.  A zero product, such as that of the
        # monomial psi*dpsi^3*delta''(dpsi) (not in normal form, so wrapped
        # by `_of`: the field constructor rejects it), is still ().
        form = u1([dpsi(0)] * 1000)
        want = chain_pullback(M01, form)
        atlas_morphism._monomial_image.cache_clear()
        wedges = []
        counted = lambda a, b: wedges.append(1) or wedge(a, b)
        with mock.patch.object(atlas_morphism, "wedge", counted):
            with mock.patch.object(form_algebra, "wedge", counted):
                got = pullback(M01, form)
        self.assertLessEqual(len(wedges), 2 * 10 + 1)
        self.assertEqual(got, want)
        unnormal = Monomial._of((((TH, 0), 1), ((DP, 0), 3), ((DL, 0, 2), 1)))
        self.assertEqual(atlas_morphism._monomial_image(M01, unnormal), ())


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
