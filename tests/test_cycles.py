"""The engine builds no reference cycles: with the cyclic collector off, a
full collection after any engine call, answered or refused, frees nothing.

A caught exception that is kept, with its `__traceback__`, is the usual way a
cycle slips in: its frames hold their locals, and so whatever they reached.
So each call must also leave no traceback object alive.
"""

import gc
import json
import os
import tempfile
import types
import unittest

from superforms import (
    FormParseError,
    NotATopFormError,
    StructuralError,
    UnsupportedMorphismError,
    berezin_integral,
    builtin_flat,
    builtin_p11,
    cech,
    delta,
    delta_expand,
    derham,
    exterior_d,
    normalize,
    pairing_matrix,
    parse,
    pullback,
    theta,
    wedge,
)
from superforms.cli import load_atlas

from formgen import scaled_atlas

P11 = builtin_p11()
T11 = P11.chart("U0").table
T22 = builtin_flat(2, 2).chart("U0").table

# The parse errors of the product reader, one per way a token can be refused.
PARSE_ERRORS = (
    "g^3/2",
    "psi^-1",
    "delta(dg)",
    "delta^(-1)(dpsi)",
    "g * / 2",
    "delta(dpsi",
    "psi*",
    "(g + psi",
    "q*psi",
    "7" * 4400,
    "(2)^99999999999",
    "1/0",
    "g)",
    "g^x",
    "delta^2(dpsi)",
)


def tracebacks():
    return sum(isinstance(o, types.TracebackType) for o in gc.get_objects())


def refused(call, error):
    """Run call, which must raise error; keep nothing of the exception."""
    try:
        call()
    except error:
        return
    raise AssertionError("%r did not raise %s" % (call, error.__name__))


class TestNoCycles(unittest.TestCase):
    def setUp(self):
        self.enabled = gc.isenabled()
        gc.disable()
        gc.collect()

    def tearDown(self):
        if self.enabled:
            gc.enable()

    def assert_acyclic(self, name, call):
        gc.collect()
        before = tracebacks()
        call()
        self.assertEqual(gc.collect(), 0, msg=name)
        self.assertEqual(tracebacks(), before, msg=name)

    def test_engine_calls_free_nothing(self):
        flat = builtin_flat(2, 2)
        scaled = scaled_atlas(2, 1, -1)
        form = parse("3/2*g^-2*psi*dg*delta'(dpsi) + g*psi - dpsi*delta''(dpsi)", T11)
        calls = {
            "cech picture 0": lambda: cech(P11, (3, 0), 10),
            "cech picture 1": lambda: cech(P11, (-3, 1), 10),
            "cech scaled picture 0": lambda: cech(scaled, (3, 0), 10),
            "cech scaled picture 1": lambda: cech(scaled, (-3, 1), 10),
            "pairing_matrix": lambda: pairing_matrix(3, 10),
            "derham flat": lambda: derham(flat, 1, (-2, 2), 3),
            "derham p11": lambda: derham(P11, 1, (-4, 1), 6),
            "pullback": lambda: pullback(P11.transition("U1", "U0"), form),
            "parse": lambda: parse("-3/2*g^-2*psi*delta''(dpsi) + (1 + 2*psi)^3*dg", T11),
            "parse flat": lambda: parse("g1^2*psi2*dpsi1^2*delta^(3)(dpsi1)*dg2 - psi1*psi1", T22),
            "normalize": lambda: normalize([delta(0, 2), theta(0), delta(0, 1)], 3, "U0", T11),
            "wedge": lambda: wedge(form, form),
            "d": lambda: exterior_d(form),
            "integrate": lambda: berezin_integral(parse("3*g^-1*psi*dg*delta(dpsi) + g*psi*dg*delta(dpsi)", T11)),
        }
        for name, call in calls.items():
            self.assert_acyclic(name, call)

    def test_refused_calls_free_nothing(self):
        for text in PARSE_ERRORS:
            self.assert_acyclic(text[:20], lambda: refused(lambda: parse(text, T11), FormParseError))
        self.assert_acyclic("pairing index", lambda: refused(lambda: pairing_matrix(-1, 4), StructuralError))
        top = parse("psi*dg", T11)
        self.assert_acyclic("not a top form", lambda: refused(lambda: berezin_integral(top), NotATopFormError))
        bare = parse("dpsi + dpsi^2", T11)
        self.assert_acyclic("delta series", lambda: refused(lambda: delta_expand(0, bare), UnsupportedMorphismError))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "atlas.json")
            with open(path, "w") as fh:
                json.dump({"charts": {"U": {"even": ["g"], "odd": ["delta"]}}}, fh)
            self.assert_acyclic("load_atlas", lambda: refused(lambda: load_atlas(path), StructuralError))
