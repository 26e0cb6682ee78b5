"""Tests for the graded form algebra: normal form, wedge, d, and pairing."""

import random
import sys
import unittest
from fractions import Fraction
from math import factorial
from unittest import mock

import sympy
from hypothesis import given, settings
from hypothesis.strategies import integers

from superforms import (
    LaurentPoly,
    Monomial,
    NotATopFormError,
    StructuralError,
    Superform,
    UnsupportedMorphismError,
    berezin_reduce,
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
from superforms import form_algebra
from superforms.coeff_ring import lp_mul, lp_partial, lp_scale
from superforms.form_algebra import (
    DG,
    DL,
    DP,
    TH,
    _add_normal,
    _add_terms,
    _validate_atoms,
    atom_degree,
    atom_parity,
)

from formgen import (
    form_degree,
    random_form,
    random_monomial,
    random_poly,
    strict_form,
    total_parity,
)

P11 = builtin_p11()
T11 = P11.chart("U0").table
FLAT22 = builtin_flat(2, 2)
T22 = FLAT22.chart("U0").table
T13 = builtin_flat(1, 3).chart("U0").table


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


def atomwise_wedge(a, b):
    """wedge with each dpsi^p spelled as p atoms: normalize of the
    concatenated factor lists.  The oracle of the product of factor powers."""
    out = Superform.zero(a.chart, a.table)
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            c = lp_mul(ca, cb)
            _add_terms(out.terms, normalize(ma.factors() + mb.factors(), c, a.chart, a.table).terms)
    return out


def atomwise_d(a):
    """exterior_d atom by atom: each theta_j swapped for dpsi_j in place, with
    the sign of the degree before it, and the factor list normalized."""
    out = Superform.zero(a.chart, a.table)
    for mon, f in a.terms.items():
        factors = mon.factors()
        for i in range(len(a.table.even_names)):
            g = lp_partial(f, i)
            if not g.is_zero():
                _add_terms(out.terms, normalize(((DG, i),) + factors, g, a.chart, a.table).terms)
        prefix_degree = 0
        for t, atom in enumerate(factors):
            if atom[0] == TH:
                coeff = f if prefix_degree % 2 == 0 else lp_scale(f, -1)
                swapped = factors[:t] + ((DP, atom[1]),) + factors[t + 1 :]
                _add_terms(out.terms, normalize(swapped, coeff, a.chart, a.table).terms)
            prefix_degree += atom_degree(atom)
    return out


def coefficient_first_wedge(a, b):
    """The earlier wedge, kept as the oracle: each product's coefficients are
    multiplied before its normal form is known to be non-zero."""
    out = Superform.zero(a.chart, a.table)
    for ma, ca in a.terms.items():
        pa = ma.powers()
        for mb, cb in b.terms.items():
            _add_normal(out.terms, pa + mb.powers(), lp_mul(ca, cb))
    return out


def coefficient_first_d(a):
    """The earlier exterior_d, kept as the oracle: each partial derivative is
    taken before it is known whether dgamma_i is already a factor."""
    out = Superform.zero(a.chart, a.table)
    for mon, f in a.terms.items():
        pairs = mon.powers()
        for i in range(len(a.table.even_names)):
            g = lp_partial(f, i)
            if not g.is_zero():
                _add_normal(out.terms, (((DG, i), 1),) + pairs, g)
        cut = {atom[1] for atom, _ in pairs if atom[0] == DL and not atom[2]}
        for t, (atom, _) in enumerate(pairs):
            if atom[0] != TH:
                break
            if atom[1] not in cut:
                _add_normal(out.terms, pairs[:t] + (((DP, atom[1]), 1),) + pairs[t + 1 :], f)
    return out


def random_unit_form(rng, table, terms=3):
    """A random form whose coefficients are random polynomials or +-1 times
    a Laurent monomial, so that unit shortcuts and vanishing products both
    occur."""
    out = Superform.zero("U0", table)
    for _ in range(terms):
        mon = random_monomial(rng, table, max_order=rng.randrange(4), max_power=3)
        if rng.random() < 0.5:
            exps = tuple(rng.randint(-2, 3) for _ in table.even_names)
            lp = LaurentPoly.monomial(table.even_names, exps, rng.choice((1, -1)))
        else:
            lp = random_poly(rng, table.even_names, terms=rng.randint(1, 3))
        out = out + normalize(mon.factors(), lp, "U0", table)
    return out


def strict_terms(terms):
    """A terms map in insertion order, each coefficient polynomial as its
    (exponents, value, type) list."""
    return [(mon, [(e, c, type(c)) for e, c in lp.terms.items()]) for mon, lp in terms.items()]


class TestNormalForm(unittest.TestCase):
    def test_sign_table_is_the_koszul_rule(self):
        # The three-class table read by koszul_sign and by the sort in
        # _add_normal gives (-1)^(deg*deg' + par*par') on every pair of atoms
        # of flat:2,2 with delta orders 0-3.
        atoms = [theta(j) for j in (0, 1)] + [dgamma(i) for i in (0, 1)] + [dpsi(j) for j in (0, 1)]
        atoms += [delta(j, k) for j in (0, 1) for k in range(4)]
        for a in atoms:
            for b in atoms:
                want = (-1) ** (atom_degree(a) * atom_degree(b) + atom_parity(a) * atom_parity(b))
                self.assertEqual(koszul_sign(a, b), want, msg=(a, b))
                ab, ba = mono([a, b], table=T22), mono([b, a], table=T22)
                self.assertEqual(ba, ab.scale(want), msg=(a, b))

    def test_atoms_outside_the_chart_rejected(self):
        # Each factor must be an atom of the chart's generator table: a theta
        # with trailing entries used to read as psi, a dgamma with one as dg,
        # and (DL, 0) raised a bare IndexError.
        bad = [
            (TH, 0, 5),
            (DG, 0, 9),
            (DL, 0),
            (DG, 1),
            (TH, 1),
            (DP, 1),
            (DL, 1, 0),
            (TH, -1),
            (DL, 0, -1),
            (4, 0),
            (),
            0,
        ]
        for atom in bad:
            for coeff in (1, 0):
                with self.assertRaisesRegex(StructuralError, "is not an atom of the chart", msg=atom):
                    normalize([theta(0), atom], coeff, "U0", T11)
        with self.assertRaisesRegex(StructuralError, r"^factor \(1, 2\) is not an atom"):
            normalize([dgamma(2)], 1, "U0", T22)
        self.assertEqual(
            pretty_print(normalize([dgamma(1), theta(1), delta(0, 7)], 2, "U0", T22)),
            "2*psi2*dg2*delta^(7)(dpsi1)",
        )

    def test_delta_order_must_be_an_int(self):
        # A delta order that is not an int used to pass the k >= 0 check
        # (or fail it with a bare TypeError) and end in a TypeError from
        # math.perm.
        for order in (1.5, 2.0, Fraction(1), "1", None):
            for coeff in (1, 0):
                with self.assertRaisesRegex(StructuralError, "is not an atom of the chart", msg=order):
                    normalize([(DL, 0, order)], coeff, "U0", T11)
                with self.assertRaisesRegex(StructuralError, "is not an atom of the chart", msg=order):
                    normalize([dpsi(0), (DL, 0, order)], coeff, "U0", T11)

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

    def test_listing_order_reads_factor_powers(self):
        # sort_key compares (atom, power) pairs, in the order of the reversed
        # factor tuples that spell each power out.
        rng = random.Random(20261019)
        mons = [random_monomial(rng, table, max_order=5, max_power=7) for table in (T11, T22) * 150]
        spelled = lambda m: tuple(reversed(m.factors()))
        for a in mons:
            for b in mons[:60]:
                self.assertEqual(a.sort_key() < b.sort_key(), spelled(a) < spelled(b), msg=(a, b))

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

    def test_matches_atomwise_oracle(self):
        # wedge and d against the atom-by-atom oracles, term order and
        # coefficient types included, with dpsi powers up to 7 against delta
        # orders 0-5: odd powers >= 3 are where koszul_sign^(p*q) differs from
        # a sign taken once per pair of factor powers.
        spaces = [(P11, "U0"), (P11, "U1"), (FLAT22, "U0")]
        spaces += [(builtin_flat(2, 6), "U0"), (builtin_flat(1, 3), "U0")]
        rng = random.Random(20261019)
        odd_powers = 0
        for case in range(400):
            atlas, chart = spaces[case % len(spaces)]
            table = atlas.chart(chart).table
            kw = dict(terms=rng.randint(1, 3), max_order=rng.randrange(6), max_power=7)
            a = random_form(rng, chart, table, **kw)
            b = random_form(rng, chart, table, **kw)
            product = wedge(a, b)
            self.assertEqual(strict_form(product), strict_form(atomwise_wedge(a, b)), msg=case)
            self.assertEqual(strict_form(exterior_d(a)), strict_form(atomwise_d(a)), msg=case)
            want = strict_form(atomwise_d(product))
            self.assertEqual(strict_form(exterior_d(product)), want, msg=case)
            odd_powers += any(p >= 3 and p % 2 for mon in product.terms for _, p in mon.dodds)
        self.assertGreater(odd_powers, 50)

    @settings(deadline=None, max_examples=150)
    @given(integers(0, 10**6))
    def test_matches_coefficient_first_oracle(self, seed):
        # wedge and d find each product's normal form before any coefficient
        # arithmetic; term order and coefficient types are the oracle's.
        rng = random.Random(seed)
        table = (T11, T22, T13)[seed % 3]
        a, b = random_unit_form(rng, table), random_unit_form(rng, table)
        product = wedge(a, b)
        self.assertEqual(strict_form(product), strict_form(coefficient_first_wedge(a, b)))
        self.assertEqual(strict_form(exterior_d(a)), strict_form(coefficient_first_d(a)))
        self.assertEqual(strict_form(exterior_d(product)), strict_form(coefficient_first_d(product)))

    def test_vanishing_products_multiply_no_coefficients(self):
        # Every product below has a repeated theta, dgamma or delta, or a
        # dpsi against delta(dpsi): none of them multiplies its coefficients.
        cases = (
            ("psi + 2*g*psi*dg", "3/2*psi*delta(dpsi) - g^2*psi"),
            ("g*dg*delta'(dpsi)", "-dg + 5*g^-1*delta(dpsi)"),
            ("dpsi*dg", "2/3*delta(dpsi)*g"),
        )
        for left, right in cases:
            a, b = parse(left), parse(right)
            with mock.patch.object(form_algebra, "lp_mul", wraps=lp_mul) as mul:
                product = wedge(a, b)
            self.assertTrue(product.is_zero(), msg=(left, right))
            self.assertEqual(mul.call_count, 0, msg=(left, right))
        a, b = parse("psi + 2*g*dg"), parse("3*psi*delta(dpsi) + dg")
        with mock.patch.object(form_algebra, "lp_mul", wraps=lp_mul) as mul:
            product = wedge(a, b)
        self.assertEqual(pretty_print(product), "psi*dg + 6*g*psi*dg*delta(dpsi)")
        self.assertEqual(mul.call_count, 2)

    def test_dpsi_power_passes_as_one_factor(self):
        # dg passes dpsi^201 with one sign, not one per dpsi: the sort reads
        # the sign table once per crossing of factor powers.
        class CountedTable(tuple):
            reads = 0

            def __getitem__(self, row):
                CountedTable.reads += 1
                return tuple.__getitem__(self, row)

        a, b = parse("g*psi*dpsi^201"), parse("dg")
        with mock.patch.object(form_algebra, "_SIGN", CountedTable(form_algebra._SIGN)):
            product = wedge(a, b)
        self.assertEqual(CountedTable.reads, 1)
        self.assertEqual(strict_form(product), strict_form(atomwise_wedge(a, b)))
        self.assertEqual(pretty_print(product), "-g*psi*dg*dpsi^201")
        self.assertEqual(pretty_print(parse("psi^1000000")), "0")
        self.assertEqual(pretty_print(parse("dg^2")), "0")

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

    def test_zero_contraction_is_not_normalized(self):
        # d(theta_j) = dpsi_j meets delta(dpsi_j) in a zero contraction, so
        # d(theta_S*delta_S) puts no term in normal form; it made |S| calls
        # before the skip.  A delta order >= 1 still contracts to a term.
        table = builtin_flat(1, 4).chart("U0").table
        for s in ((), (0,), (1, 3), (0, 1, 2, 3)):
            form = normalize([theta(j) for j in s] + [delta(j, 0) for j in s], 1, "U0", table)
            with mock.patch.object(form_algebra, "_add_normal", wraps=form_algebra._add_normal) as add:
                self.assertTrue(exterior_d(form).is_zero(), msg=s)
            self.assertEqual(add.call_count, 0, msg=s)
        form = mono([theta(0), delta(0, 1)])
        with mock.patch.object(form_algebra, "_add_normal", wraps=form_algebra._add_normal) as add:
            form = exterior_d(form)
        self.assertEqual((form, add.call_count), (mono([delta(0, 0)], -1), 1))

    def test_dgamma_factor_takes_no_partial(self):
        # d(f*dg*M) has no dg*dg term, so f is not differentiated in g.
        table = builtin_flat(2, 1).chart("U0").table
        form = parse("g1^3*g2^2*dg1*psi + g1*g2^-1*psi*delta'(dpsi)", table)
        with mock.patch.object(form_algebra, "lp_partial", wraps=lp_partial) as partial:
            got = exterior_d(form)
        self.assertEqual([c.args[1] for c in partial.call_args_list], [1, 0, 1])
        self.assertEqual(strict_form(got), strict_form(coefficient_first_d(form)))

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


class TestWedgePower(unittest.TestCase):
    def test_matches_repeated_wedge(self):
        # Squaring gives the k-fold product; up to k = 3 with its term order.
        rng = random.Random(20261019)
        for table in (T11, T22) * 15:
            a = random_form(rng, "U0", table, terms=rng.randint(1, 3), max_order=3, max_exp=2)
            if rng.random() < 0.5:
                a = a + Superform.constant("U0", table, rng.randint(1, 3))
            chain = Superform.constant("U0", table, 1)
            for k in range(10):
                got = form_algebra._wedge_power(a, k)
                self.assertEqual(got, chain, msg=(a, k))
                if k <= 3:
                    self.assertEqual(strict_form(got), strict_form(chain), msg=(a, k))
                chain = wedge(chain, a)

    def test_stops_at_a_zero_power(self):
        # psi*dg + dg squares to zero, so a power of 10^11 takes one wedge.
        a = parse("psi*dg + dg", T11)
        with mock.patch.object(form_algebra, "wedge", wraps=wedge) as counted:
            self.assertTrue(form_algebra._wedge_power(a, 10**11).is_zero())
        self.assertEqual(counted.call_count, 1)
        self.assertEqual(pretty_print(form_algebra._wedge_power(parse("g*dpsi", T11), 10**11)),
                         "g^100000000000*dpsi^100000000000")

    def test_check_sees_each_power(self):
        # The check is called on each power on the way and may stop the loop.
        a = parse("2 + psi", T11)
        seen = []
        form_algebra._wedge_power(a, 13, seen.append)
        self.assertEqual(seen, [form_algebra._wedge_power(a, k) for k in (3, 6, 13)])
        # The square check is called on each power about to be squared.
        squared = []
        form_algebra._wedge_power(a, 13, None, squared.append)
        self.assertEqual(squared, [form_algebra._wedge_power(a, k) for k in (1, 3, 6)])

        def stop(power):
            raise ValueError(power)

        with self.assertRaises(ValueError) as ctx:
            form_algebra._wedge_power(a, 2**40, stop)
        self.assertEqual(ctx.exception.args[0], form_algebra._wedge_power(a, 2))


    def test_unit_constants_take_their_power_mod_two(self):
        # 1^k and (-1)^k are (+-1)^(k mod 2), with no wedge: a 4300-digit k
        # took about 14,300 squarings, while 2^k is rejected at once.
        digits = sys.get_int_max_str_digits() or 4300
        for last, odd in (("9", True), ("8", False)):
            k = "9" * (digits - 1) + last
            cases = {"1^" + k: "1", "(1)^" + k: "1", "(-1)^" + k: "-1" if odd else "1", "-1^" + k: "-1"}
            for text, want in cases.items():
                with mock.patch.object(form_algebra, "wedge", wraps=wedge) as counted:
                    got = parse(text, T11)
                self.assertEqual(counted.call_count, 0, msg=text[:8])
                self.assertEqual(strict_form(got), strict_form(parse(want, T11)), msg=text[:8])
        for sign in (1, -1):
            unit = Superform.constant("U0", T22, sign)
            for k in range(6):
                self.assertEqual(form_algebra._wedge_power(unit, k), Superform.constant("U0", T22, sign**k))


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


class TestMonomialSurface(unittest.TestCase):
    """What library callers and error messages read off a Monomial, whatever
    it stores: the field constructor, the four field views, powers(), the
    repr naming the four fields, equality and hash."""

    def test_fields_read_back_and_match_normalize(self):
        rng = random.Random(20261019)
        tables = (T11, T22, builtin_flat(1, 3).chart("U0").table)
        for table in tables * 100:
            ref = random_monomial(rng, table, max_order=4, max_power=3)
            fields = (ref.thetas, ref.devens, ref.dodds, ref.deltas)
            mon = Monomial(*fields)
            self.assertEqual((mon.thetas, mon.devens, mon.dodds, mon.deltas), fields)
            self.assertEqual(Monomial(thetas=fields[0], devens=fields[1], dodds=fields[2], deltas=fields[3]), mon)
            pairs = tuple(((TH, j), 1) for j in fields[0]) + tuple(((DG, i), 1) for i in fields[1])
            pairs += tuple(((DP, j), p) for j, p in fields[2]) + tuple(((DL, j, k), 1) for j, k in fields[3])
            self.assertEqual(mon.powers(), pairs)
            self.assertEqual(
                repr(mon), "Monomial(thetas=%r, devens=%r, dodds=%r, deltas=%r)" % fields
            )
            # The same factors, in normal order, through the checked entry point.
            factors = [theta(j) for j in fields[0]] + [dgamma(i) for i in fields[1]]
            factors += [dpsi(j) for j, p in fields[2] for _ in range(p)]
            factors += [delta(j, k) for j, k in fields[3]]
            built = normalize(factors, 1, "U0", table)
            self.assertEqual(list(built.terms), [mon])
            [key] = built.terms
            self.assertEqual(hash(key), hash(mon))
            self.assertEqual({mon: 1}[key], 1)

    def test_unit_views_and_immutability(self):
        unit = Monomial()
        self.assertEqual(unit, form_algebra.UNIT_MONOMIAL)
        self.assertEqual(hash(unit), hash(form_algebra.UNIT_MONOMIAL))
        self.assertEqual((unit.thetas, unit.devens, unit.dodds, unit.deltas, unit.powers()), ((),) * 5)
        self.assertEqual(repr(unit), "Monomial(thetas=(), devens=(), dodds=(), deltas=())")
        self.assertNotEqual(unit, ())
        self.assertNotEqual(Monomial((0,)), Monomial((), (0,)))
        with self.assertRaises(AttributeError):
            unit.thetas = (0,)

    def test_constructor_rejects_fields_not_in_normal_form(self):
        # Stored unchecked, such fields gave silently wrong forms on a 1|2
        # chart: psi2*psi1 + psi1*psi2, which is not zero, dpsi1*delta(dpsi1),
        # which contracts to 0, and psi1*psi1.
        bad = [
            dict(thetas=(1, 0)),
            dict(dodds=((0, 1),), deltas=((0, 0),)),
            dict(thetas=(0, 0)),
            dict(devens=(1, 0)),
            dict(dodds=((1, 1), (0, 1))),
            dict(dodds=((0, 0),)),
            dict(dodds=((0, 1.5),)),
            dict(deltas=((0, 0), (0, 1))),
            dict(deltas=((1, 0), (0, 0))),
            dict(deltas=((0, -1),)),
            dict(deltas=((0, 1.0),)),
        ]
        for fields in bad:
            with self.assertRaises(StructuralError, msg=fields) as caught:
                Monomial(**fields)
            self.assertIn("is not in normal form", str(caught.exception))
        mon = Monomial((0, 1), (0,), ((0, 2),), ((1, 3),))
        self.assertEqual(mon.powers(), (((TH, 0), 1), ((TH, 1), 1), ((DG, 0), 1), ((DP, 0), 2), ((DL, 1, 3), 1)))

    def test_not_a_top_form_messages(self):
        # The messages embed the Monomial repr; each check is reached in turn.
        t12 = builtin_flat(1, 2).chart("U0").table
        cases = [
            (
                [theta(0), delta(0, 0)],
                T11,
                "missing part of the dgamma block: "
                "Monomial(thetas=(0,), devens=(), dodds=(), deltas=((0, 0),))",
            ),
            (
                [dgamma(0), dpsi(0), dpsi(0), delta(1, 0)],
                t12,
                "bare dpsi factor in a top form: "
                "Monomial(thetas=(), devens=(0,), dodds=((0, 2),), deltas=((1, 0),))",
            ),
            (
                [theta(0), dgamma(0), delta(0, 1)],
                T11,
                "delta block is not the full order-zero block: "
                "Monomial(thetas=(0,), devens=(0,), dodds=(), deltas=((0, 1),))",
            ),
            (
                [dgamma(0), delta(0, 0)],
                t12,
                "delta block is not the full order-zero block: "
                "Monomial(thetas=(), devens=(0,), dodds=(), deltas=((0, 0),))",
            ),
        ]
        for factors, table, message in cases:
            with self.assertRaises(NotATopFormError) as caught:
                berezin_reduce(normalize(factors, 1, "U0", table))
            self.assertEqual(str(caught.exception), message)


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

    def test_classification_on_flat22(self):
        # A missing invertible-monomial dpsi term is reported before a
        # second term made of dpsi factors alone.
        no_head = "^delta argument has no invertible-monomial dpsi term"
        endless = "^delta series does not terminate"
        cases = [
            ("(1+g1)*dpsi1", no_head),
            ("dpsi1*dpsi2", no_head),
            ("1", no_head),
            ("psi1*dg1", no_head),
            ("0", no_head),
            ("dpsi1^2 + (1+g1)*dpsi2", no_head),
            ("dpsi1 + dpsi2", endless),
            ("g1*dpsi2 + dpsi1^2", endless),
            ("(1+g1)*dpsi1 + dpsi2", endless),
        ]
        for text, message in cases:
            with self.assertRaisesRegex(UnsupportedMorphismError, message, msg=text):
                delta_expand(0, parse(text, T22))
        self.assertEqual(
            pretty_print(delta_expand(0, parse("dpsi2 + psi1*dg1", T22))),
            "delta(dpsi2) + psi1*dg1*delta'(dpsi2)",
        )
        # Each series term is c^-(k+m+1)/m! times rest^m: here rest^2 is
        # 2*psi1*psi2*dg1*dg2, and 2 * 3^-5 / 2! = 1/243.
        got = delta_expand(2, parse("3*g1^-1*dpsi2 + psi1*dg1 + psi2*dg2", T22))
        self.assertEqual(
            pretty_print(got),
            "1/27*g1^3*delta''(dpsi2) + 1/81*g1^4*psi1*dg1*delta^(3)(dpsi2)"
            " + 1/81*g1^4*psi2*dg2*delta^(3)(dpsi2)"
            " + 1/243*g1^5*psi1*psi2*dg1*dg2*delta^(4)(dpsi2)",
        )
        self.assertEqual(
            {type(c) for lp in got.terms.values() for c in lp.terms.values()}, {Fraction}
        )


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
