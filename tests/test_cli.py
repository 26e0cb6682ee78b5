"""Tests for the expression grammar, pretty printer, and command line."""

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import string
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from math import factorial
from unittest import mock

from hypothesis import given, settings
from hypothesis.strategies import integers

from superforms import (
    FormParseError,
    GeneratorTable,
    LaurentPoly,
    Monomial,
    StructuralError,
    Superform,
    builtin_flat,
    builtin_p11,
    delta,
    dgamma,
    dpsi,
    normalize,
    parse,
    pretty_print,
    run_command,
    theta,
    wedge,
)
import superforms
from superforms.cli import _build_parser, _merge_negative_values
from superforms.form_algebra import _NAME_RE, _add_terms

from formgen import random_form

P11 = builtin_p11()
T11 = P11.chart("U0").table
T22 = builtin_flat(2, 2).chart("U0").table


# The earlier token scan, kept with the oracle below.
_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:/\d+)?)|(?P<name>%s)|(?P<op>[-+*^()'])|(?P<space>\s+)|(?P<other>.)"
    % _NAME_RE.pattern,
    re.S,
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "other":
            raise FormParseError("unexpected character %r" % m.group(), m.start())
        if kind != "space":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class FoldParser:
    """The earlier product parser, kept as the oracle: every factor becomes a
    normalized Superform and a product is folded with one wedge per '*' and
    per unit of an exponent.  It resolves names by the earlier rules (even,
    odd, "d" + even, "d" + odd, in that order), not by the chart's name
    table.  Its token scan and token reads are the earlier parser's too."""

    def __init__(self, text, table, chart_id):
        self.table = table
        self.chart = chart_id
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise FormParseError("expected %s, found %r" % (kind, tok[1] or "end of input"), tok[2])
        if value is not None and tok[1] != value:
            raise FormParseError("expected %r, found %r" % (value, tok[1] or "end of input"), tok[2])
        self.pos += 1
        return tok

    def at_op(self, *values):
        tok = self.peek()
        return tok[0] == "op" and tok[1] in values

    def parse(self):
        form = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise FormParseError("trailing input %r" % tok[1], tok[2])
        return form

    def expr(self):
        sign = 1
        if self.at_op("+", "-"):
            if self.take()[1] == "-":
                sign = -1
        form = self.term()
        if sign < 0:
            form = -form
        while self.at_op("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            _add_terms(form.terms, (rhs if op == "+" else -rhs).terms)
        return form

    def signed_int(self):
        sign = 1
        if self.at_op("+", "-"):
            if self.take()[1] == "-":
                sign = -1
        tok = self.take("number")
        if "/" in tok[1]:
            raise FormParseError("exponent must be an integer", tok[2])
        return sign * int(tok[1])

    def term(self):
        form = self.factor()
        while self.at_op("*"):
            self.take()
            form = wedge(form, self.factor())
        return form

    def factor(self):
        primary, even_index = self.primary()
        if not self.at_op("^"):
            return primary
        self.take()
        exponent = self.signed_int()
        if exponent < 0:
            if even_index is None:
                raise FormParseError(
                    "negative powers are only defined for even coordinates",
                    self.peek()[2],
                )
            lp = LaurentPoly.monomial(
                self.table.even_names,
                tuple(exponent if k == even_index else 0 for k in range(len(self.table.even_names))),
            )
            return Superform.from_poly(self.chart, self.table, lp)
        out = Superform.constant(self.chart, self.table, 1)
        for _ in range(exponent):
            out = wedge(out, primary)
        return out

    def primary(self):
        """Returns (Superform, even-coordinate index or None)."""
        tok = self.peek()
        if tok[0] == "number":
            self.take()
            try:
                value = Fraction(tok[1])
            except ZeroDivisionError:
                raise FormParseError("zero denominator in %r" % tok[1], tok[2]) from None
            return Superform.constant(self.chart, self.table, value), None
        if self.at_op("("):
            self.take()
            form = self.expr()
            self.take("op", ")")
            return form, None
        name_tok = self.take("name")
        name = name_tok[1]
        if name == "delta":
            return self.delta_factor(name_tok), None
        return self.named_atom(name, name_tok[2])

    def named_atom(self, name, pos):
        table = self.table
        if name in table.even_names:
            idx = table.even_names.index(name)
            lp = LaurentPoly.monomial(
                table.even_names,
                tuple(1 if k == idx else 0 for k in range(len(table.even_names))),
            )
            return Superform.from_poly(self.chart, table, lp), idx
        if name in table.odd_names:
            return self.atom_form(theta(table.odd_names.index(name))), None
        if name.startswith("d"):
            if name[1:] in table.even_names:
                return self.atom_form(dgamma(table.even_names.index(name[1:]))), None
            if name[1:] in table.odd_names:
                return self.atom_form(dpsi(table.odd_names.index(name[1:]))), None
        raise FormParseError("unknown coordinate %r" % name, pos)

    def delta_factor(self, name_tok):
        order = 0
        if self.at_op("'"):
            while self.at_op("'"):
                self.take()
                order += 1
        elif self.at_op("^"):
            self.take()
            self.take("op", "(")
            order = self.signed_int()
            self.take("op", ")")
            if order < 0:
                raise FormParseError("delta order must be non-negative", name_tok[2])
        self.take("op", "(")
        arg = self.take("name")
        self.take("op", ")")
        j = self.odd_differential_index(arg)
        return self.atom_form(delta(j, order))

    def odd_differential_index(self, tok):
        name = tok[1]
        if name.startswith("d") and name[1:] in self.table.odd_names:
            return self.table.odd_names.index(name[1:])
        raise FormParseError("expected an odd differential, found %r" % name, tok[2])

    def atom_form(self, atom):
        return normalize([atom], 1, self.chart, self.table)


def fold_parse(text, table):
    return FoldParser(text, table, "U0").parse()


def random_product_text(rng, table, depth=0):
    """A random expression: ± terms, each a product mixing numbers, g^±k,
    theta, dg, dpsi and delta atoms with powers, (sum) and (sum)^k."""
    evens, odds = table.even_names, table.odd_names
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 5)):
            r = rng.random()
            if depth < 2 and r < 0.12:
                inner = "(%s)" % random_product_text(rng, table, depth + 1)
                factors.append(inner if rng.random() < 0.5 else "%s^%d" % (inner, rng.randint(0, 3)))
            elif r < 0.25:
                factors.append(rng.choice(["0", "1", "2", "3", "1/2", "2/3", "7/4"]))
                if rng.random() < 0.2:
                    factors[-1] += "^%d" % rng.randint(0, 3)
            elif r < 0.45:
                factors.append("%s^%d" % (rng.choice(evens), rng.randint(-3, 3)))
            elif r < 0.5:
                factors.append(rng.choice(evens))
            else:
                j = rng.choice(odds)
                atom = rng.choice(
                    [j, "d" + rng.choice(evens), "d" + j, "d" + j]
                    + ["delta%s(d%s)" % (head, j) for head in ("", "'", "''", "^(3)", "^(%d)" % rng.randint(0, 6))]
                )
                if rng.random() < 0.25:
                    atom += "^%d" % rng.randint(0, 3)
                factors.append(atom)
        terms.append("*".join(factors))
    text = rng.choice(["", "", "-", "+"]) + terms[0]
    for t in terms[1:]:
        text += rng.choice([" + ", " - "]) + t
    return text


def parse_outcome(text, table, parser):
    try:
        return parser(text, table)
    except FormParseError as exc:
        return ("error", str(exc), exc.position)


def strict_items(form):
    """The terms of a form as a list, in insertion order, with each
    coefficient polynomial's (exponents, value, type) list."""
    if not isinstance(form, Superform):
        return form
    return (form.chart, form.table, [
        (mon, [(e, c, type(c)) for e, c in lp.terms.items()]) for mon, lp in form.terms.items()
    ])


def invoke(argv):
    """Run one CLI invocation, capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


class TestGrammar(unittest.TestCase):
    def test_examples(self):
        cases = {
            "0": "0",
            "1/2": "1/2",
            "g^-1*psi*dg*delta(dpsi)": "g^-1*psi*dg*delta(dpsi)",
            "2/3*g^-2*psi*dg*delta''(dpsi)": "2/3*g^-2*psi*dg*delta''(dpsi)",
            "delta^(7)(dpsi)": "delta^(7)(dpsi)",
            "(g+psi)^2": "g^2 + 2*g*psi",
            "dpsi*dpsi*delta''(dpsi)": "2*delta(dpsi)",
            "g*delta(dpsi) - psi*dg*delta'(dpsi)": "g*delta(dpsi) - psi*dg*delta'(dpsi)",
            # A form takes a leading sign, and primes count the order.
            "-psi": "-psi",
            "delta'''(dpsi)": "delta^(3)(dpsi)",
        }
        for text, want in cases.items():
            self.assertEqual(pretty_print(parse(text, T11)), want, msg=text)

    def test_leading_minus_after_expr(self):
        # argparse takes a bare "-g" after --expr for an option, yet
        # pretty_print writes such forms: "-g" must act as "--expr=-g".
        for head, text, want in (
            (["normalize"], "-g", "-g"),
            (["normalize"], "-dg*delta'(dpsi)", "-dg*delta'(dpsi)"),
            (["wedge", "--expr", "g"], "-psi", "-g*psi"),
        ):
            for tail in (["--expr", text], ["--expr=" + text]):
                self.assertEqual(invoke(head + tail), (0, want + "\n", ""), msg=tail)

    def test_error_positions(self):
        cases = {
            "psi^-1": 6,
            "q*dg": 0,
            "g^": 2,
            "delta(dg)": 6,
            "dpsi*(": 6,
            "g$": 1,
            # Errors after a product has started gathering factors.
            "g*psi^-1": 8,
            "2*dg^-1*psi": 7,
            "g*(psi": 6,
            "3*delta^(-1)(dpsi)": 2,
            "psi*1/0": 4,
            # A factor takes no sign: "expected name, found '-'".
            "g*-psi": 2,
        }
        for text, pos in cases.items():
            with self.assertRaises(FormParseError, msg=text) as ctx:
                parse(text, T11)
            self.assertEqual(ctx.exception.position, pos, msg=text)

    def test_error_messages(self):
        # The whole text of each token that is not the one the grammar
        # expects, and of trailing input.
        cases = {
            "delta^(2(dpsi)": "expected ')', found '(' (at position 8)",
            "delta)": "expected '(', found ')' (at position 5)",
            "delta x": "expected op, found 'x' (at position 6)",
            "(g": "expected op, found 'end of input' (at position 2)",
            "delta(2)": "expected name, found '2' (at position 6)",
            "g*": "expected name, found 'end of input' (at position 2)",
            "g^x": "expected number, found 'x' (at position 2)",
            "g)": "trailing input ')' (at position 1)",
        }
        for text, want in cases.items():
            with self.assertRaises(FormParseError, msg=text) as ctx:
                parse(text, T11)
            self.assertEqual(str(ctx.exception), want)

    @unittest.skipUnless(sys.get_int_max_str_digits(), "no integer digit limit")
    def test_digit_limit_is_a_parse_error(self):
        # A number, exponent or delta order past the interpreter's digit
        # limit (4300 by default) is a parse error at its token; it ended
        # in a bare ValueError.
        limit = sys.get_int_max_str_digits()
        huge = "7" * (limit + 100)
        cases = {
            huge: 0,
            "g*" + huge + "*psi": 2,
            "g + 1/" + huge: 4,
            "2/3*g^" + huge: 6,
            "g^-" + huge: 3,
            "psi*delta^(" + huge + ")(dpsi)": 11,
        }
        for text, pos in cases.items():
            with self.assertRaises(FormParseError, msg=pos) as ctx:
                parse(text, T11)
            self.assertEqual(ctx.exception.position, pos)
            self.assertIn(str(limit), str(ctx.exception))
        # At the limit a number still parses.
        self.assertEqual(pretty_print(parse("9" * limit + "*psi", T11)), "9" * limit + "*psi")

    def test_huge_powers(self):
        # A number's power past the digit limit is a parse error at its
        # exponent, raised while it is squared, as soon as a power passes
        # the limit; 0 and 1 take any power.  (expr)^k is computed by
        # squaring and stops at a zero power.  Each of these used to run
        # until memory or patience ran out.
        limit = sys.get_int_max_str_digits()
        k = int(limit / math.log10(2))
        while 2 ** (k + 1) < 10**limit:
            k += 1
        while 2**k >= 10**limit:
            k -= 1
        errors = [
            "2^99999999999999999999",
            "psi*3^99999999999",
            "g + 1/2^99999999999999999999",
            "2^%d" % (k + 1),
            "10^%d" % limit,
            "(2)^2*7/10^%d" % limit,
        ]
        for text in errors:
            start = time.perf_counter()
            with self.assertRaises(FormParseError, msg=text) as ctx:
                parse(text, T11)
            self.assertLess(time.perf_counter() - start, 1.0, msg=text)
            self.assertEqual(ctx.exception.position, text.rindex("^") + 1, msg=text)
            self.assertIn("number too long: more than %d digits" % limit, str(ctx.exception))
        cases = {
            "0^99999999999999999999": "0",
            "1^99999999999999999999*psi": "psi",
            "1/1^99999999999999999999": "1",
            "(g)^99999999999": "g^99999999999",
            "(psi)^99999999999": "0",
            "(dpsi)^99999999999": "dpsi^99999999999",
            "(psi*dg + dg)^99999999999": "0",
            "(-1)^99999999999*psi": "-psi",
            "(g^-1*dpsi)^1000000": "g^-1000000*dpsi^1000000",
        }
        for text, want in cases.items():
            start = time.perf_counter()
            self.assertEqual(pretty_print(parse(text, T11)), want, msg=text)
            self.assertLess(time.perf_counter() - start, 1.0, msg=text)
        # Within the limit a power still parses, up to the last digit.
        form = parse("2^%d*psi" % k, T11)
        self.assertEqual(form.terms[Monomial((0,))].coefficient((0,)), 2**k)
        self.assertEqual(parse("10^%d" % (limit - 1), T11), parse("1" + "0" * (limit - 1), T11))

    def test_parenthesized_huge_powers(self):
        # A number in parentheses gets the digit limit too: a power whose
        # coefficient passes it is a parse error at its exponent, raised
        # while squaring.  These used to run until memory ran out.
        limit = sys.get_int_max_str_digits()
        for text in ("(2)^99999999999", "(1/2)^99999999999", "(2*g)^99999999999", "psi*(-3*g^2)^99999999999"):
            start = time.perf_counter()
            with self.assertRaises(FormParseError, msg=text) as ctx:
                parse(text, T11)
            self.assertLess(time.perf_counter() - start, 1.0, msg=text)
            self.assertEqual(ctx.exception.position, text.rindex("^") + 1, msg=text)
            self.assertIn("number too long: more than %d digits" % limit, str(ctx.exception))
        # Powers whose coefficients stay small still answer at once.
        cases = {
            "(1 + 2*psi)^99999999999": "1 + 199999999998*psi",
            "(g + psi)^99999999999": "g^99999999999 + 99999999999*g^99999999998*psi",
            "(2)^10": "1024",
            "(1/2*g)^3": "1/8*g^3",
        }
        for text, want in cases.items():
            start = time.perf_counter()
            self.assertEqual(pretty_print(parse(text, T11)), want, msg=text)
            self.assertLess(time.perf_counter() - start, 1.0, msg=text)

    def test_power_terms_are_bounded(self):
        # A power whose square could have more terms than the digit limit L,
        # n*(n + 1)/2 > L for n terms, is a parse error at its exponent,
        # raised before that squaring.  (g + 1)^k and the dpsi power below
        # have k + 1 terms and coefficients that pass L only at about 10^4
        # terms, so both ran for minutes of term products first.  n is the
        # most terms a squared power may have.
        limit = sys.get_int_max_str_digits()
        n = math.isqrt(2 * limit)
        while n * (n + 1) // 2 > limit:
            n -= 1
        form = parse("(g + 1)^%d" % (2 * n - 2), T11)
        self.assertEqual(len(form.terms[Monomial(())].terms), 2 * n - 1)
        errors = [
            ("(g + 1)^%d" % (2 * n), T11),
            ("(g + 1)^99999999999", T11),
            ("(-2*dpsi2 - 7/2*g2^2*dpsi2^2)^99999999999", T22),
        ]
        for text, table in errors:
            start = time.perf_counter()
            with self.assertRaises(FormParseError, msg=text) as ctx:
                parse(text, table)
            self.assertLess(time.perf_counter() - start, 1.0, msg=text)
            self.assertEqual(ctx.exception.position, text.rindex("^") + 1, msg=text)
            self.assertIn("its square could have more than %d terms" % limit, str(ctx.exception))
        code, out, err = invoke(["normalize", "--space", "flat:2,2", "--expr", errors[2][0]])
        self.assertEqual((code, out), (2, ""))
        self.assertTrue(err.startswith("error (parse): power too large"), msg=err)

    def test_number_power_is_a_form_power(self):
        # n^k and (n)^k give the same outcome: the same form, or the same
        # error at the exponent token.  k0 is the least k with 2^k at or
        # past 10^limit.  An exponent of limit digits is an int too large
        # for a float: n^k ended in an OverflowError traceback.
        limit = sys.get_int_max_str_digits()
        ks = [0, 1, 5, 99999999999]
        if limit:
            k0 = int(limit / math.log10(2)) - 1
            while 2**k0 < 10**limit:
                k0 += 1
            ks += [k0 - 1, k0, 10 ** (limit - 1)]
        for n in ("0", "1", "2", "10", "1/2", "7/3"):
            for k in ks:
                outcomes = []
                for text in ("%s^%d" % (n, k), "(%s)^%d" % (n, k)):
                    start = time.perf_counter()
                    try:
                        outcomes.append(parse(text, T11))
                    except FormParseError as exc:
                        self.assertEqual(exc.position, text.rindex("^") + 1, msg=text)
                        outcomes.append(str(exc).rpartition(" (at position")[0])
                    self.assertLess(time.perf_counter() - start, 1.0, msg=text)
                self.assertEqual(outcomes[0], outcomes[1], msg=(n, k))

    def test_tokenizer_edge_cases(self):
        # Unicode digits and whitespace, stray characters and empty texts
        # give the oracle's answer, error message and position.
        texts = [
            "\u0663*g", "g*\u0663/\u0664", "g\u3000*psi", "g\u2003*\u00a0psi", "g/psi", "/", "1/2/3",
            "1/", "2*/3", "_", "g_1", "\u00e9", "g\u00e9", "$", "g*$", "", " ", "\t\n \u3000",
        ]
        for table in (T11, T22):
            for text in texts:
                self.assert_matches_fold(text, table)

    def test_whitespace_and_stray_characters(self):
        # Every character that str.isspace() accepts separates tokens; any
        # other character that starts no token is an error at its position.
        want = parse("g*psi", T11)
        spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        self.assertGreater(len(spaces), 20)
        for c in spaces:
            self.assertEqual(parse("g" + c + "*psi", T11), want, msg=repr(c))
            self.assertEqual(parse(c * 3 + "g*" + c + "psi" + c, T11), want, msg=repr(c))
        rng = random.Random(20261019)
        token_starts = set(string.ascii_letters + "-+*^()'")
        stray = ["$", "!", "#", ".", "/", "\x00", "\u00e9", "\u2227", "\ud800", "\U0010ffff"]
        stray += [chr(k) for k in rng.sample(range(sys.maxunicode + 1), 3000)]
        stray = [c for c in stray if not (c.isspace() or c.isdecimal() or c in token_starts)]
        self.assertGreater(len(stray), 2500)
        for c in stray:
            prefix = rng.choice(["", "g", "g*", "2/3 * psi", "delta'(dpsi) ", "(g + "])
            with self.assertRaises(FormParseError, msg=repr(c)) as ctx:
                parse(prefix + c + "*psi" + c, T11)
            self.assertEqual(ctx.exception.position, len(prefix), msg=repr(c))
            self.assertEqual(str(ctx.exception), "unexpected character %r (at position %d)" % (c, len(prefix)))

    def test_indexed_coordinates(self):
        form = parse("g1*psi2*dg2*delta'(dpsi1)", T22)
        self.assertEqual(pretty_print(form), "g1*psi2*dg2*delta'(dpsi1)")

    @settings(deadline=None, max_examples=150)
    @given(integers(0, 10**6))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        table = T11 if rng.random() < 0.5 else T22
        form = random_form(rng, "U0", table, terms=3, max_order=4)
        self.assertEqual(parse(pretty_print(form), table), form)

    def test_large_powers(self):
        # A coordinate power is exponent arithmetic and a square of psi is 0;
        # neither may cost one wedge per unit of the exponent.
        for text, want in (
            ("g^1000000*psi*delta(dpsi)", "g^1000000*psi*delta(dpsi)"),
            ("psi^1000000", "0"),
        ):
            start = time.perf_counter()
            got = pretty_print(parse(text, T11))
            self.assertLess(time.perf_counter() - start, 1.0, msg=text)
            self.assertEqual(got, want)

    def test_long_contraction_parses_fast(self):
        # dpsi^4000 * delta^(4000)(dpsi) contracts in one step, to 4000!*delta(dpsi).
        start = time.perf_counter()
        form = parse("dpsi^4000*delta^(4000)(dpsi)", T11)
        self.assertLess(time.perf_counter() - start, 0.1)
        (mon, lp), = form.terms.items()
        self.assertEqual(mon.deltas, ((0, 0),))
        self.assertEqual(lp.coefficient((0,)), factorial(4000))

    def assert_matches_fold(self, text, table):
        want = strict_items(parse_outcome(text, table, fold_parse))
        self.assertEqual(strict_items(parse_outcome(text, table, parse)), want, msg=text)

    @settings(deadline=None, max_examples=150)
    @given(integers(0, 10**6))
    def test_matches_fold_parser(self, seed):
        rng = random.Random(seed)
        table = T11 if rng.random() < 0.5 else T22
        self.assert_matches_fold(random_product_text(rng, table), table)

    def test_matches_fold_parser_bulk(self):
        # Term order and coefficient order included; every fifth text is cut
        # short or has a token replaced, so error messages and positions are
        # compared too.
        rng = random.Random(20261018)
        for k in range(1500):
            table = T11 if rng.random() < 0.5 else T22
            text = random_product_text(rng, table)
            if k % 5 == 0:
                cut = rng.randrange(len(text) + 1)
                text = text[:cut] + rng.choice(["", "^", "*", "q", "^-1", "(", "^(-1)", "/0"])
            self.assert_matches_fold(text, table)

    def test_product_scales_no_polynomial(self):
        # A product's sign and contraction scalar are folded into the
        # numerator of its one Fraction: no polynomial is scaled.
        cases = {
            "-3/2*dg*psi*dpsi^2*delta''(dpsi)*g^-2": "-3*g^-2*psi*dg*delta(dpsi)",
            "delta'(dpsi)*dpsi*2 - psi*psi": "2*delta(dpsi)",
            "dg*psi - dpsi*delta(dpsi)": "psi*dg",
        }
        for text, want in cases.items():
            with mock.patch("superforms.form_algebra.lp_scale", wraps=superforms.form_algebra.lp_scale) as scale:
                form = parse(text, T11)
            self.assertEqual((pretty_print(form), scale.call_count), (want, 0), msg=text)
            self.assert_matches_fold(text, T11)

    def test_coefficients_stay_fractions(self):
        # Atoms and coordinates multiply nothing into a product's coefficient;
        # what is stored is still a Fraction, never an int or a float (an int
        # raised to a negative power is a float).
        cases = {
            "g^-2*psi": "g^-2*psi",
            "psi*g^-1*2": "2*g^-1*psi",
            "dpsi^3*delta^(3)(dpsi)": "-6*delta(dpsi)",
            "psi*dg*g^-3": "g^-3*psi*dg",
            "(psi*dg)^1": "psi*dg",
        }
        for text, want in cases.items():
            form = parse(text, T11)
            self.assertEqual(pretty_print(form), want, msg=text)
            types = {type(c) for lp in form.terms.values() for c in lp.terms.values()}
            self.assertEqual(types, {Fraction}, msg=text)
            self.assert_matches_fold(text, T11)

    def test_round_trip_bulk(self):
        rng = random.Random(20260814)
        for _ in range(1000):
            table = T11 if rng.random() < 0.5 else T22
            form = random_form(rng, "U0", table, terms=2, max_order=3)
            self.assertEqual(parse(pretty_print(form), table), form)


class TestCommands(unittest.TestCase):
    def test_normalize(self):
        code, out, _ = invoke(["normalize", "--expr", "dpsi*dpsi*delta''(dpsi)"])
        self.assertEqual((code, out.strip()), (0, "2*delta(dpsi)"))

    def test_d_closed_witness(self):
        code, out, _ = invoke(["d", "--chart", "U0", "--expr", "psi*delta(dpsi)"])
        self.assertEqual((code, out.strip()), (0, "0"))

    def test_wedge_two_expressions(self):
        code, out, _ = invoke(["wedge", "--expr", "psi*dg", "--expr", "delta(dpsi)"])
        self.assertEqual((code, out.strip()), (0, "psi*dg*delta(dpsi)"))

    def test_pullback(self):
        code, out, _ = invoke(
            ["pullback", "--chart", "U1", "--target", "U0", "--expr", "delta(dpsi)"]
        )
        self.assertEqual((code, out.strip()), (0, "g*delta(dpsi) - psi*dg*delta'(dpsi)"))

    def test_cech_text_report(self):
        code, out, _ = invoke(["cech", "--space", "p11", "--sheaf", " -2|1", "--cutoff", "10"])
        self.assertEqual(code, 0)
        lines = out.splitlines()
        self.assertIn("h0 = 12", lines)
        self.assertIn("h1 = 0", lines)
        self.assertIn("stabilized = True", lines)

    def test_cech_negative_sheaf_unquoted(self):
        # argparse takes a bare "-3|1" for an option; quoting cannot help.  The
        # bare value must act as "--sheaf=-3|1" does, a negative picture too.
        rejected = "picture -1 not supported on P^{1|1}"
        cases = (("-3|1", 0, "h0 = 16", '"h0": 16'), ("-3|-1", 3, rejected, rejected))
        for sheaf, code, text, json_text in cases:
            for flags, want in (([], text), (["--json"], json_text)):
                got = invoke(["cech", "--sheaf", sheaf, "--cutoff", "5"] + flags)
                self.assertEqual(got, invoke(["cech", "--sheaf=" + sheaf, "--cutoff", "5"] + flags))
                self.assertEqual(got[0], code, msg=(sheaf, flags))
                self.assertIn(want, got[1] + got[2], msg=(sheaf, flags))

    def test_cech_json_report(self):
        code, out, _ = invoke(["cech", "--sheaf", "1|1", "--cutoff", "8", "--json"])
        self.assertEqual(code, 0)
        payload = json.loads(out)
        self.assertEqual(payload["schema"], 1)
        self.assertEqual((payload["h0"], payload["h1"]), (0, 1))
        self.assertEqual(payload["generators"]["h1"], ["g^-1*psi*dg*delta(dpsi)"])
        self.assertTrue(payload["stabilized"])

    def test_derham_with_negative_range(self):
        code, out, _ = invoke(
            ["derham", "--space", "p11", "--picture", "1", "--range", "-2:1", "--cutoff", "8"]
        )
        self.assertEqual(code, 0)
        self.assertIn("H^{0|1} = 1", out)
        self.assertIn("psi*delta(dpsi)", out)

    def test_derham_flat_json(self):
        code, out, _ = invoke(
            ["derham", "--space", "flat:1,1", "--picture", "1", "--range", "0:2", "--cutoff", "5", "--json"]
        )
        payload = json.loads(out)
        self.assertEqual(code, 0)
        self.assertEqual(payload["dims"], {"0|1": 1, "1|1": 0, "2|1": 0})

    def test_derham_prints_each_generator_once(self):
        # The text lines are read off the JSON payload, so each chart form
        # of a class is printed once, in text and in --json; flat:2,6
        # picture 3 made 40 calls for its 20 classes when both were built.
        for argv, forms in (
            (["--space", "flat:2,6", "--picture", "3", "--range", "0:0"], 20),
            (["--picture", "1"], 2),
        ):
            outs = []
            for flags in ([], ["--json"]):
                with mock.patch("superforms.cli.pretty_print", wraps=pretty_print) as printed:
                    code, out, _ = invoke(["derham"] + argv + flags)
                self.assertEqual((code, printed.call_count), (0, forms), msg=argv + flags)
                outs.append(out)
            gens = json.loads(outs[1])["generators"]
            texts = [line.split(": ", 1)[1] for line in outs[0].splitlines() if "]" in line]
            self.assertEqual(texts, [t for g in gens.values() for parts in g for t in parts.values()])

    def test_pair_rank(self):
        code, out, _ = invoke(["pair", "--n", "1", "--cutoff", "10"])
        self.assertEqual(code, 0)
        self.assertIn("rank=8", out.replace(" ", ""))

    def test_pair_prints_the_pairing_matrix(self):
        # The command reads the sparse rows and lays out the zero text; what
        # it prints is still str() of every entry of pairing_matrix.
        for n in (0, 3, 9):
            matrix, rank = superforms.pairing_matrix(n, 10)
            texts = [[str(v) for v in row] for row in matrix]
            code, out, _ = invoke(["pair", "--n", str(n), "--json"])
            payload = json.loads(out)
            self.assertEqual((code, payload["matrix"], payload["rank"], payload["size"]), (0, texts, rank, len(matrix)))
            code, out, _ = invoke(["pair", "--n", str(n)])
            self.assertEqual(out.splitlines()[1:], ["  ".join(row) for row in texts], msg=n)

    def test_integrate(self):
        code, out, _ = invoke(["integrate", "--expr", "g^-1*psi*dg*delta(dpsi)"])
        self.assertEqual(code, 0)
        self.assertIn("residue = 1", out)

    def test_integrate_reduces_once(self):
        # The residue is read off the one reduction the command prints: one
        # berezin_reduce call per run (two when it also called
        # berezin_integral), and the residue berezin_integral gives.
        calls = []
        original = superforms.berezin.berezin_reduce
        counted = lambda form: calls.append(form) or original(form)
        for space, expr in (
            ("p11", "3/2*g^-1*psi*dg*delta(dpsi) + g^2*psi*dg*delta(dpsi)"),
            ("p11", "g^2*psi*dg*delta(dpsi)"),
            ("flat:2,2", "-2/3*g1^-1*g2^-1*psi1*psi2*dg1*dg2*delta(dpsi1)*delta(dpsi2)"),
        ):
            atlas = builtin_p11() if space == "p11" else builtin_flat(2, 2)
            want = str(superforms.berezin_integral(parse(expr, atlas.chart(min(atlas.charts)).table)))
            for flags in ([], ["--json"]):
                calls.clear()
                with mock.patch("superforms.cli.berezin_reduce", counted), \
                        mock.patch("superforms.berezin.berezin_reduce", counted):
                    code, out, _ = invoke(["integrate", "--space", space, "--expr", expr] + flags)
                residue = json.loads(out)["residue"] if flags else out.splitlines()[-1].split(" = ")[1]
                self.assertEqual((code, len(calls), residue), (0, 1, want), msg=(expr, flags))

    def test_output_deterministic(self):
        argv = ["cech", "--sheaf", "0|1", "--cutoff", "8", "--json"]
        first = invoke(argv)
        second = invoke(argv)
        self.assertEqual(first, second)


# The CLI determinism set: every command, with exit codes 0 and 4.
DETERMINISM_SET = [
    ["normalize", "--expr", "dpsi*dpsi*delta''(dpsi)"],
    ["wedge", "--expr", "psi*dg", "--expr", "delta(dpsi)"],
    ["d", "--expr", "g^3*psi*delta'(dpsi)"],
    ["pullback", "--chart", "U1", "--target", "U0", "--expr", "delta(dpsi)"],
    ["cech", "--sheaf", "-2|1", "--cutoff", "10"],
    ["cech", "--sheaf", "5|0", "--cutoff", "3"],
    ["cech", "--sheaf", "0|0", "--cutoff", "8"],
    ["derham", "--picture", "1", "--range", "-12:3"],
    ["derham", "--picture", "0", "--range", "0:11"],
    ["derham", "--space", "flat:2,3", "--picture", "1", "--range", "-11:11", "--cutoff", "0"],
    ["derham", "--space", "flat:2,4", "--picture", "2", "--range", "-2:2"],
    ["pair", "--n", "3", "--cutoff", "10"],
    ["integrate", "--expr", "3/2*g^-1*psi*dg*delta(dpsi) + g^2*psi*dg*delta(dpsi)"],
    ["selftest"],
]


class TestOneWrite(unittest.TestCase):
    def test_determinism_set_is_deterministic(self):
        codes = set()
        for argv in DETERMINISM_SET:
            for flags in ([], ["--json"]):
                first = invoke(argv + flags)
                self.assertEqual(invoke(argv + flags), first, msg=argv + flags)
                codes.add(first[0])
        self.assertEqual(codes, {0, 4})
        with mock.patch("superforms.cohomology.pairing_matrix", return_value=([], 3)):
            self.assertEqual(invoke(["selftest"])[0], 3)

    def test_text_is_read_off_the_json_payload(self):
        # The text report is the command's renderer applied to the --json
        # payload without its schema: JSON sorts the keys, so a renderer that
        # read anything else, or relied on key order, would differ.
        for argv in DETERMINISM_SET:
            code, text, err = invoke(argv)
            json_code, out, json_err = invoke(argv + ["--json"])
            payload = json.loads(out)
            self.assertEqual(payload.pop("schema"), 1)
            render = _build_parser().parse_args(_merge_negative_values(argv)).text
            self.assertEqual(text, "".join(line + "\n" for line in render(payload)), msg=argv)
            self.assertEqual((code, err), (json_code, json_err), msg=argv)


def closed_pipe_run(argv, read=0):
    """Run the CLI in a fresh interpreter and close its stdout pipe after
    reading the first `read` bytes; returns (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(superforms.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "superforms"] + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    if read:
        os.read(proc.stdout.fileno(), read)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), err


class TestClosedPipe(unittest.TestCase):
    def test_closed_pipe_exits_141_quietly(self):
        # A reader that stops early is no computation error: the run writes
        # nothing more, stderr stays empty and the exit is 128 + SIGPIPE.
        # Both reports are larger than a pipe holds (64 KiB on Linux), so
        # after the first 10 bytes the pipe closes while the run still writes.
        for argv in (["derham", "--picture", "1", "--range=-4000:3", "--json"], ["pair", "--n", "64"]):
            for read in (0, 10):
                self.assertEqual(closed_pipe_run(argv, read), (141, b""), msg=(argv, read))


def _actions(parser):
    """Each action of parser as (option strings, dest, default, type,
    required, action class, help), in order."""
    return [
        (tuple(a.option_strings), a.dest, a.default, a.type, a.required, type(a).__name__, a.help)
        for a in parser._actions
    ]


class TestCommandTable(unittest.TestCase):
    # The argparse actions of every command, as the parser built them before
    # the flags moved into one table.  argparse formats --help differently
    # across Python versions, so the actions are pinned, not the help text.
    HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False, "_HelpAction", "show this help message and exit")
    SPACE = (("--space",), "space", "p11", None, False, "_StoreAction", "p11 or flat:m,n (default p11)")
    ATLAS = (("--atlas",), "atlas", None, None, False, "_StoreAction", "path to an atlas description file")
    JSON = (("--json",), "json", False, None, False, "_StoreTrueAction", "emit one JSON report object")
    CHART = (("--chart",), "chart", "U0", None, False, "_StoreAction", "active chart id (default U0)")
    TARGET = (("--target",), "target", "U1", None, False, "_StoreAction", "chart the expression lives on")
    EXPR = (("--expr",), "expr", [], None, False, "_AppendAction", "expression (repeatable)")
    CUTOFF = (
        ("--cutoff",), "cutoff", 10, int, False, "_StoreAction",
        "flat de Rham degree cutoff (default 10); P^{1|1} answers are exact at any cutoff",
    )
    SHEAF = (("--sheaf",), "sheaf", None, None, True, "_StoreAction", "sheaf label 'i|j'")
    PICTURE = (("--picture",), "picture", 0, int, False, "_StoreAction", "picture number (default 0)")
    RANGE = (("--range",), "range", None, None, False, "_StoreAction", "degree range 'a:b' inclusive")
    N = (("--n",), "n", None, int, True, "_StoreAction", "pairing index n >= 0")
    COMMANDS = [
        ("normalize", "normalize an expression", [HELP, SPACE, ATLAS, JSON, CHART, EXPR]),
        ("wedge", "wedge two or more expressions", [HELP, SPACE, ATLAS, JSON, CHART, EXPR]),
        ("d", "exterior differential", [HELP, SPACE, ATLAS, JSON, CHART, EXPR]),
        ("pullback", "pull a form back along a transition", [HELP, SPACE, ATLAS, JSON, CHART, TARGET, EXPR]),
        ("cech", "Cech cohomology of a sheaf Omega^{i|j}", [HELP, SPACE, ATLAS, JSON, CUTOFF, SHEAF]),
        ("derham", "holomorphic de Rham cohomology", [HELP, SPACE, ATLAS, JSON, CUTOFF, PICTURE, RANGE]),
        ("pair", "cohomological pairing matrix and rank on P^{1|1}", [HELP, JSON, CUTOFF, N]),
        ("integrate", "Berezin reduction and bosonic residue", [HELP, SPACE, ATLAS, JSON, CHART, EXPR]),
        ("selftest", "run the built-in verification battery", [HELP, JSON]),
    ]

    def test_commands_and_their_flags(self):
        parser = _build_parser()
        self.assertEqual(parser.prog, "superforms")
        self.assertEqual(parser.description, "Integral-form algebra and cohomology of supermanifolds.")
        help_action, sub = parser._actions
        self.assertEqual(_actions(parser)[0], self.HELP)
        self.assertEqual((sub.dest, sub.required), ("command", True))
        got = [(c.dest, c.help, _actions(sub.choices[c.dest])) for c in sub._choices_actions]
        self.assertEqual(got, self.COMMANDS)
        self.assertEqual(list(sub.choices), [name for name, _, _ in self.COMMANDS])
        for name, sp in sub.choices.items():
            self.assertEqual(sp.get_default("func").__name__, "_cmd_" + name)


class TestExitCodes(unittest.TestCase):
    def test_parse_error_is_2(self):
        code, _, err = invoke(["d", "--expr", "dpsi*("])
        self.assertEqual(code, 2)
        self.assertIn("parse", err)

    def test_zero_denominator_is_2(self):
        code, out, err = invoke(["normalize", "--expr", "1/0"])
        self.assertEqual((code, out), (2, ""))
        self.assertIn("error (parse)", err)
        with self.assertRaises(FormParseError) as ctx:
            parse("g + 3/0*psi", T11)
        self.assertEqual(ctx.exception.position, 4)

    def test_huge_number_is_2(self):
        code, out, err = invoke(["normalize", "--expr", "7" * 4400])
        self.assertEqual((code, out), (2, ""))
        self.assertIn("error (parse)", err)

    def test_huge_power_is_2(self):
        for text in ("2^99999999999999999999", "(2)^99999999999", "(1/2)^99999999999", "(2*g)^99999999999"):
            start = time.perf_counter()
            code, out, err = invoke(["normalize", "--expr", text])
            self.assertLess(time.perf_counter() - start, 1.0, msg=text)
            self.assertEqual((code, out), (2, ""), msg=text)
            self.assertIn("error (parse): number too long", err)

    def test_empty_range_and_negative_n_are_2(self):
        # Usage errors, like a negative --cutoff; both exited 3 as
        # computation errors from the library.
        cases = {
            ("derham", "--range", "3:1"): "empty degree range '3:1' (at position 0)",
            ("derham", "--space", "flat:1,1", "--range=-1:-2"): "empty degree range '-1:-2' (at position 0)",
            ("pair", "--n", "-1"): "--n must be non-negative, got -1",
        }
        for argv, message in cases.items():
            code, out, err = invoke(list(argv))
            self.assertEqual((code, out, err), (2, "", "error (parse): %s\n" % message), msg=argv)
            code, out, _ = invoke(list(argv) + ["--json"])
            self.assertEqual(code, 2, msg=argv)
            self.assertEqual(json.loads(out)["error"], {"kind": "parse", "message": message})
        # A one-degree range is not empty.
        self.assertEqual(invoke(["derham", "--range", "1:1"])[0], 0)

    def test_bad_expr_with_leading_minus_is_a_parse_error(self):
        # A bare "-q" after --expr reaches the parser, which names the
        # unknown coordinate, in text and --json.
        message = "unknown coordinate 'q' (at position 1)"
        code, out, err = invoke(["normalize", "--expr", "-q"])
        self.assertEqual((code, out, err), (2, "", "error (parse): %s\n" % message))
        code, out, _ = invoke(["normalize", "--expr", "-q", "--json"])
        self.assertEqual(code, 2)
        self.assertEqual(json.loads(out)["error"], {"kind": "parse", "message": message})

    def test_bad_sheaf_label_is_2(self):
        code, _, _ = invoke(["cech", "--sheaf", "bogus"])
        self.assertEqual(code, 2)

    def test_computation_error_is_3(self):
        code, _, err = invoke(["integrate", "--expr", "psi*dg"])
        self.assertEqual(code, 3)
        self.assertIn("computation", err)

    def test_unknown_space_is_3(self):
        code, _, _ = invoke(["cech", "--space", "bogus", "--sheaf", "0|0"])
        self.assertEqual(code, 3)

    def test_cech_names_the_chart_count(self):
        # A one-chart atlas used to be reported as "got 1|1", its one shape.
        message = "need two charts of dimension 1|1, got 1 chart(s) of dimension 1|1"
        code, out, err = invoke(["cech", "--space", "flat:1,1", "--sheaf", "0|0"])
        self.assertEqual((code, out), (3, ""))
        self.assertTrue(err.rstrip().endswith(message), msg=err)
        code, out, _ = invoke(["cech", "--space", "flat:2,1", "--sheaf", "0|0", "--json"])
        self.assertEqual(code, 3)
        self.assertIn("got 1 chart(s) of dimension 2|1", json.loads(out)["error"]["message"])

    def test_flat_picture_out_of_range_is_3(self):
        for picture in ("-1", "2"):
            for extra in ([], ["--json"]):
                code, _, _ = invoke(
                    ["derham", "--space", "flat:1,1", "--picture", picture, "--cutoff", "2"] + extra
                )
                self.assertEqual(code, 3, msg=(picture, extra))

    def test_projective_picture_out_of_range_is_3(self):
        message = "picture 2 not supported on P^{1|1}"
        code, out, err = invoke(["derham", "--picture", "2"])
        self.assertEqual((code, out), (3, ""))
        self.assertIn("error (computation): " + message, err)
        code, out, _ = invoke(["derham", "--picture", "2", "--json"])
        self.assertEqual(code, 3)
        self.assertEqual(json.loads(out)["error"], {"kind": "computation", "message": message})

    def test_unstable_run_is_4(self):
        # Flat de Rham at cutoff 0 sees only the block u = 0, so the class of
        # picture 1 appears only in the cutoff-2 rerun.
        code, out, _ = invoke(["derham", "--space", "flat:1,1", "--picture", "1", "--cutoff", "0"])
        self.assertEqual(code, 4)
        self.assertIn("stabilized = False", out)

    def test_small_cutoff_cech_is_0(self):
        # The Cech blocks are complete at every cutoff; at cutoff 3 this run
        # reported h1 = 0, unstabilized, with exit 4.
        code, out, _ = invoke(["cech", "--sheaf", "5|0", "--cutoff", "3"])
        self.assertEqual(code, 0)
        self.assertIn("h1 = 20", out.splitlines())
        self.assertIn("stabilized = True", out.splitlines())
        later = invoke(["cech", "--sheaf", "5|0", "--cutoff", "40"])[1]
        self.assertEqual(out.splitlines()[1:], later.splitlines()[1:])

    def test_pair_at_default_cutoff_is_0(self):
        # At the default cutoff 10 the windowed groups were truncated: this
        # printed a 16x20 matrix of rank 16, and later exited 3.
        code, out, _ = invoke(["pair", "--n", "4", "--json"])
        self.assertEqual(code, 0)
        payload = json.loads(out)
        self.assertEqual((payload["size"], payload["rank"]), (20, 20))
        code, out, _ = invoke(["pair", "--n", "4"])
        self.assertEqual(code, 0)
        self.assertIn("rank=20", out.replace(" ", ""))

    def test_negative_cutoff_is_2(self):
        for argv in (
            ["pair", "--n", "0", "--cutoff", "-1"],
            ["cech", "--sheaf", "0|0", "--cutoff", "-1"],
            ["derham", "--space", "flat:1,1", "--picture", "1", "--cutoff", "-3"],
        ):
            code, out, err = invoke(argv)
            self.assertEqual((code, out), (2, ""), msg=argv)
            self.assertIn("error (parse)", err)
            code, out, _ = invoke(argv + ["--json"])
            self.assertEqual(code, 2, msg=argv)
            payload = json.loads(out)
            self.assertEqual(payload["schema"], 1)
            self.assertEqual(payload["error"]["kind"], "parse")
            self.assertIn("cutoff", payload["error"]["message"])

    def test_pair_and_selftest_reject_space_options(self):
        # Both commands always run on P^{1|1}; a space option was ignored.
        for argv in (
            ["pair", "--space", "flat:2,2", "--n", "0", "--cutoff", "4"],
            ["selftest", "--atlas", "atlas.json"],
        ):
            with self.assertRaises(SystemExit) as ctx:
                invoke(argv)
            self.assertEqual(ctx.exception.code, 2, msg=argv)

    def test_huge_coefficient_is_3(self):
        # 2000! has 5736 digits, past the interpreter's limit (by default
        # 4300) for printing an integer; this ended in a ValueError traceback.
        limit = str(sys.get_int_max_str_digits())
        argv = ["normalize", "--expr", "dpsi^2000*delta^(2000)(dpsi)"]
        code, out, err = invoke(argv)
        self.assertEqual((code, out), (3, ""))
        self.assertIn("error (computation)", err)
        self.assertIn(limit, err)
        code, out, _ = invoke(argv + ["--json"])
        self.assertEqual(code, 3)
        payload = json.loads(out)
        self.assertEqual(payload["error"]["kind"], "computation")
        self.assertIn(limit, payload["error"]["message"])

    def test_json_errors_carry_schema(self):
        code, out, _ = invoke(["integrate", "--expr", "psi*dg", "--json"])
        self.assertEqual(code, 3)
        payload = json.loads(out)
        self.assertEqual(payload["schema"], 1)
        self.assertEqual(payload["error"]["kind"], "computation")


class TestAtlasFiles(unittest.TestCase):
    ATLAS = {
        "charts": {
            "U0": {"even": ["g"], "odd": ["psi"]},
            "U1": {"even": ["g"], "odd": ["psi"]},
        },
        "transitions": [
            {
                "source": "U0",
                "target": "U1",
                "even_images": {"g": "g^-1"},
                "odd_images": {"psi": "g^-1*psi"},
            },
            {
                "source": "U1",
                "target": "U0",
                "even_images": {"g": "g^-1"},
                "odd_images": {"psi": "g^-1*psi"},
            },
        ],
    }

    def test_file_atlas_matches_builtin(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(self.ATLAS, fh)
            path = fh.name
        try:
            code, out, _ = invoke(["cech", "--atlas", path, "--sheaf", "0|1", "--cutoff", "8", "--json"])
            self.assertEqual(code, 0)
            payload = json.loads(out)
            self.assertEqual((payload["h0"], payload["h1"]), (4, 0))

            builtin = invoke(["cech", "--sheaf", "0|1", "--cutoff", "8", "--json"])[1]
            self.assertEqual(json.loads(builtin)["generators"], payload["generators"])
        finally:
            os.unlink(path)

    def test_missing_file_is_3(self):
        code, _, _ = invoke(["cech", "--atlas", "/nonexistent.json", "--sheaf", "0|0"])
        self.assertEqual(code, 3)

    def write_atlas(self, data):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(data, fh)
        self.addCleanup(os.unlink, fh.name)
        return fh.name

    def test_two_odd_directions_rejected(self):
        # The P^{1|1} engines would ignore psi2 and answer h0(-1|1) = 8.
        chart = {"even": ["g"], "odd": ["psi1", "psi2"]}
        images = {"g": "g^-1"}, {"psi1": "g^-1*psi1", "psi2": "g^-1*psi2"}
        path = self.write_atlas(
            {
                "charts": {"U0": chart, "U1": chart},
                "transitions": [
                    {"source": s, "target": t, "even_images": images[0], "odd_images": images[1]}
                    for s, t in (("U0", "U1"), ("U1", "U0"))
                ],
            }
        )
        for argv in (
            ["cech", "--atlas", path, "--sheaf=-1|1", "--cutoff", "6"],
            ["derham", "--atlas", path, "--picture", "1", "--cutoff", "3"],
        ):
            code, out, err = invoke(argv)
            self.assertEqual((code, out), (3, ""), msg=argv)
            self.assertIn("1|1", err)

    def test_transition_exponent_must_be_minus_one(self):
        # g -> 2g with g -> g/2 back is a cocycle (the line glued to itself),
        # but its Cech blocks are not finite; it answered h0(0|0) = 22,
        # h1 = 8 with exit 4.
        atlas = json.loads(json.dumps(self.ATLAS))
        atlas["transitions"][0].update(even_images={"g": "2*g"}, odd_images={"psi": "psi"})
        atlas["transitions"][1].update(even_images={"g": "1/2*g"}, odd_images={"psi": "psi"})
        path = self.write_atlas(atlas)
        for extra in ([], ["--json"]):
            code, out, err = invoke(["cech", "--atlas", path, "--sheaf", "0|0", "--cutoff", "10"] + extra)
            self.assertEqual(code, 3, msg=extra)
            self.assertIn("g^1", out + err)

    def test_malformed_file_names_file_and_key(self):
        path = self.write_atlas({"chartz": {}})
        code, out, err = invoke(["cech", "--atlas", path, "--sheaf", "0|0"])
        self.assertEqual((code, out), (3, ""))
        self.assertIn(path, err)
        self.assertIn("'charts'", err)

        atlas = json.loads(json.dumps(self.ATLAS))
        del atlas["transitions"][1]["odd_images"]
        path = self.write_atlas(atlas)
        code, out, _ = invoke(["cech", "--atlas", path, "--sheaf", "0|0", "--json"])
        self.assertEqual(code, 3)
        message = json.loads(out)["error"]["message"]
        self.assertIn(path, message)
        self.assertIn("'odd_images'", message)

        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            fh.write("{charts")
        self.addCleanup(os.unlink, fh.name)
        code, out, err = invoke(["cech", "--atlas", fh.name, "--sheaf", "0|0"])
        self.assertEqual((code, out), (3, ""))
        self.assertIn(fh.name, err)

    def test_three_charts_rejected(self):
        # The flat solver would answer on U0 alone: H^{0|1} = 1, stabilized.
        atlas = json.loads(json.dumps(self.ATLAS))
        atlas["charts"]["U2"] = atlas["charts"]["U1"]
        atlas["transitions"] += [
            dict(tr, source=tr["source"].replace("U1", "U2"), target=tr["target"].replace("U1", "U2"))
            for tr in self.ATLAS["transitions"]
        ]
        path = self.write_atlas(atlas)
        for argv in (
            ["derham", "--atlas", path, "--picture", "1", "--range", "0:0", "--cutoff", "3"],
            ["derham", "--atlas", path, "--picture", "0", "--cutoff", "3", "--json"],
        ):
            code, out, err = invoke(argv)
            self.assertEqual(code, 3, msg=argv)
            self.assertNotIn("H^", out)

    def test_one_chart_with_any_id_is_flat(self):
        path = self.write_atlas({"charts": {"V": {"even": ["g"], "odd": ["psi"]}}})
        argv = ["derham", "--picture", "1", "--range", "0:2", "--cutoff", "5", "--json"]
        code, out, _ = invoke(argv + ["--atlas", path])
        self.assertEqual(code, 0)
        got = json.loads(out)
        want = json.loads(invoke(argv + ["--space", "flat:1,1"])[1])
        self.assertEqual(got["dims"], want["dims"])
        rename = lambda gens: {i: [list(parts.values()) for parts in g] for i, g in gens.items()}
        self.assertEqual(rename(got["generators"]), rename(want["generators"]))
        self.assertEqual(list(got["generators"]["0"][0]), ["V"])

    def test_transitions_must_be_mutually_inverse(self):
        # U1 -> U0 the identity but U0 -> U1 the inversion: not a cocycle.
        atlas = json.loads(json.dumps(self.ATLAS))
        atlas["transitions"][1].update(even_images={"g": "g"}, odd_images={"psi": "psi"})
        path = self.write_atlas(atlas)
        code, out, err = invoke(["cech", "--atlas", path, "--sheaf", "0|0", "--cutoff", "4"])
        self.assertEqual((code, out), (3, ""))
        self.assertIn(path, err)
        self.assertIn("inverse", err)

    def test_non_terminating_delta_series_is_3(self):
        # psi1 -> psi1 + psi2 sends delta(dpsi1) to a series in dpsi2, which is
        # never nilpotent; the atlas check pulls a delta back and must stop.
        chart = {"even": ["g"], "odd": ["psi1", "psi2"]}
        odd = {"psi1": "psi1 + psi2", "psi2": "psi2"}, {"psi1": "psi1 - psi2", "psi2": "psi2"}
        path = self.write_atlas(
            {
                "charts": {"U0": chart, "U1": chart},
                "transitions": [
                    {"source": s, "target": t, "even_images": {"g": "g"}, "odd_images": images}
                    for (s, t), images in zip((("U0", "U1"), ("U1", "U0")), odd)
                ],
            }
        )
        argv = ["normalize", "--atlas", path, "--expr", "psi1"]
        prefix = "delta series does not terminate"
        code, out, err = invoke(argv)
        self.assertEqual((code, out), (3, ""))
        self.assertTrue(err.startswith("error (computation): " + prefix), msg=err)
        code, out, _ = invoke(argv + ["--json"])
        self.assertEqual(code, 3)
        message = json.loads(out)["error"]["message"]
        self.assertTrue(message.startswith(prefix), msg=message)
        # No power of rest is zero, so the message names no power.
        self.assertNotRegex(err + message, r"\^\d")

    def test_rejected_pullback_names_transition_and_probe(self):
        # psi -> psi + g*psi has no invertible dpsi term, so the round trip of
        # the probe delta(dpsi) on U0 fails on its way back through U0 -> U1.
        atlas = json.loads(json.dumps(self.ATLAS))
        atlas["transitions"][0]["odd_images"] = {"psi": "psi + g*psi"}
        path = self.write_atlas(atlas)
        argv = ["normalize", "--atlas", path, "--expr", "psi"]
        cause = "delta argument has no invertible-monomial dpsi term to expand about"
        probe = "Superform(U0, (('dl', 0, 0),):LaurentPoly(1*(0,)))"
        code, out, err = invoke(argv)
        self.assertEqual((code, out), (3, ""))
        code, json_out, _ = invoke(argv + ["--json"])
        self.assertEqual(code, 3)
        for message in (err, json.loads(json_out)["error"]["message"]):
            self.assertIn(cause, message)
            self.assertIn("transition U0 -> U1", message)
            self.assertIn(probe, message)
        self.assertTrue(err.startswith("error (computation): " + cause), msg=err)

    def test_names_the_grammar_cannot_write_rejected(self):
        # With odd dg, d(g^2) printed 2*g*dg, which reads back as 2*g*theta;
        # with even elta it printed 2*elta*delta, which does not parse; a
        # name such as "x y" can never be written; dd is d + d and an odd dd.
        cases = [
            ({"even": ["g"], "odd": ["dg"]}, "g^2", "dg"),
            ({"even": ["elta"], "odd": ["psi"]}, "elta^2", "delta"),
            ({"even": ["delta"], "odd": ["psi"]}, "psi", "delta"),
            ({"even": ["x y"], "odd": ["psi"]}, "psi", "x y"),
            ({"even": ["g"], "odd": ["2psi"]}, "g", "2psi"),
            ({"even": ["g\u00e9"], "odd": ["psi"]}, "psi", "g\u00e9"),
            ({"even": ["d"], "odd": ["dd"]}, "d", "dd"),
            ({"even": ["g"], "odd": ["g"]}, "g", "g"),
        ]
        for coords, expr, word in cases:
            path = self.write_atlas({"charts": {"V": coords}})
            argv = ["d", "--atlas", path, "--chart", "V", "--expr", expr]
            code, out, err = invoke(argv)
            self.assertEqual((code, out), (3, ""), msg=coords)
            code, json_out, _ = invoke(argv + ["--json"])
            self.assertEqual(code, 3, msg=coords)
            for message in (err, json.loads(json_out)["error"]["message"]):
                self.assertIn(path, message)
                self.assertIn("chart 'V'", message)
                self.assertIn(repr(word), message)
        # A table built in the library is checked when it is built.
        with self.assertRaises(StructuralError):
            GeneratorTable(("g",), ("dg",))

    def test_non_utf8_file_is_not_json(self):
        # This ended in a UnicodeDecodeError traceback with exit 1, also
        # under --json.
        with tempfile.NamedTemporaryFile("wb", suffix=".json", delete=False) as fh:
            fh.write(b"\xff\xfe{")
        self.addCleanup(os.unlink, fh.name)
        argv = ["normalize", "--atlas", fh.name, "--expr", "psi"]
        prefix = "atlas file %s is not JSON: " % fh.name
        code, out, err = invoke(argv)
        self.assertEqual((code, out), (3, ""))
        self.assertTrue(err.startswith("error (computation): " + prefix), msg=err)
        code, out, _ = invoke(argv + ["--json"])
        self.assertEqual(code, 3)
        payload = json.loads(out)
        self.assertEqual(payload["error"]["kind"], "computation")
        self.assertTrue(payload["error"]["message"].startswith(prefix), msg=payload)

    def test_value_types_checked(self):
        path = self.write_atlas({"charts": []})
        code, out, err = invoke(["cech", "--atlas", path, "--sheaf", "0|0"])
        self.assertEqual((code, out), (3, ""))
        self.assertIn(path, err)
        self.assertIn("'charts'", err)

        # A string of coordinate names would be read letter by letter.
        path = self.write_atlas({"charts": {"U0": {"even": "gh", "odd": []}}})
        code, out, err = invoke(["normalize", "--atlas", path, "--expr", "g*h"])
        self.assertEqual((code, out), (3, ""))
        self.assertIn(path, err)
        self.assertIn("'even'", err)


class TestSelftest(unittest.TestCase):
    def test_selftest_passes(self):
        code, out, _ = invoke(["selftest"])
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)
        self.assertNotIn("FAIL", out)


if __name__ == "__main__":
    unittest.main()
