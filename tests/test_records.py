"""The record types: what callers read off a chart, an atlas, a generator
table and a report, and what importing the package costs."""

import copy
import os
import pickle
import subprocess
import sys
import unittest

import superforms
from superforms import (
    Atlas,
    Chart,
    CohomologyReport,
    GeneratorTable,
    builtin_p11,
    cech,
    cech_derham_check,
    parse,
    pretty_print,
    verify_cocycle,
)
from superforms.atlas_morphism import CocycleReport
from superforms.cohomology import CechDeRhamReport


class TestRecordContract(unittest.TestCase):
    def test_record_contract(self):
        # Construction, equality, hash, repr, immutability, new attributes,
        # copy and pickle of the six record types, as callers and error
        # messages read them.
        table = GeneratorTable(("g",), ("psi",))
        chart = Chart("U0", table)
        table_repr = "GeneratorTable(even_names=('g',), odd_names=('psi',))"
        chart_repr = "Chart(id='U0', table=%s)" % table_repr
        # (record by position, the same by keyword, its field tuple, a record
        # with one field changed, its repr)
        cases = [
            (table, GeneratorTable(even_names=["g"], odd_names=["psi"]), (("g",), ("psi",)),
             GeneratorTable(("g",), ("eta",)), table_repr),
            (chart, Chart(id="U0", table=table), ("U0", table), Chart("U1", table), chart_repr),
            (Atlas({"U0": chart}), Atlas(charts={"U0": chart}, transitions={}), ({"U0": chart}, {}),
             Atlas({}), "Atlas(charts={'U0': %s}, transitions={})" % chart_repr),
            (CocycleReport(), CocycleReport(checked=0, failures=[]), (0, []),
             CocycleReport(1), "CocycleReport(checked=0, failures=[])"),
            (CohomologyReport("p11"), CohomologyReport(space="p11", sheaf=None, stabilized=True),
             ("p11", None, 0, None, None, [], [], None, None, True),
             CohomologyReport("p11", (0, 0), 0, None, None, [], [], None, None, False),
             "CohomologyReport(space='p11', sheaf=None, cutoff=0, h0=None, h1=None, generators_h0=[],"
             " generators_h1=[], dims=None, generators=None, stabilized=True)"),
            (CechDeRhamReport({0: 1}, {0: 1}, {0: 1}, 1),
             CechDeRhamReport(derham_dims={0: 1}, constant_sheaf_dims={0: 1}, base_dims={0: 1}, fiber_dim=1),
             ({0: 1}, {0: 1}, {0: 1}, 1, []), CechDeRhamReport({0: 1}, {0: 1}, {0: 1}, 2),
             "CechDeRhamReport(derham_dims={0: 1}, constant_sheaf_dims={0: 1}, base_dims={0: 1},"
             " fiber_dim=1, mismatches=[])"),
        ]
        for record, by_keyword, fields, other, text in cases:
            cls = type(record)
            subclass = type("Sub", (cls,), {})
            self.assertTrue(record == by_keyword and not record != by_keyword, msg=text)
            self.assertTrue(record != other and not record == other, msg=text)
            self.assertTrue(record != fields and not record == fields, msg=text)
            self.assertIs(record.__eq__(fields), NotImplemented, msg=text)
            self.assertEqual(copy.copy(record), record, msg=text)
            if cls is Atlas:
                self.assertNotEqual(Atlas(*fields), subclass(*fields))
                self.assertRaises(TypeError, hash, record)
                continue
            self.assertNotEqual(record, subclass(*fields), msg=text)
            self.assertEqual(repr(record), text)
            for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                self.assertEqual(clone, record, msg=text)
                self.assertEqual(repr(clone), text)
            if cls in (Chart, GeneratorTable):
                self.assertEqual(hash(record), hash(fields), msg=text)
                for change in (lambda: setattr(record, "id", "U1"), lambda: setattr(record, "extra", 1),
                               lambda: delattr(record, "table"), lambda: delattr(record, "odd_names")):
                    self.assertRaises(AttributeError, change)
                continue
            self.assertRaises(TypeError, hash, record)
            record.stats = {"calls": 1}
            self.assertEqual((record.stats, record), ({"calls": 1}, by_keyword), msg=text)

        # An omitted list or dict is fresh for each record.
        for make, name in ((lambda: Atlas({}), "transitions"), (CocycleReport, "failures"),
                           (lambda: CohomologyReport("p11"), "generators_h0"),
                           (lambda: CohomologyReport("p11"), "generators_h1"),
                           (lambda: CechDeRhamReport({}, {}, {}, 0), "mismatches")):
            first, second = make(), make()
            self.assertIsNot(getattr(first, name), getattr(second, name), msg=name)
        # A table is a tuple of names whichever sequence it was given, and a
        # copied or unpickled one reads and prints forms.
        self.assertEqual((table.even_names, table.odd_names), (("g",), ("psi",)))
        for clone in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            self.assertEqual(pretty_print(parse("g^2*psi*dg*dpsi", clone, chart="U0")), "g^2*psi*dg*dpsi")

        # The records the engine returns: their copies and unpickled copies are
        # equal to them, and an atlas's shallow copy is too.
        atlas = builtin_p11()
        reports = [
            cech(atlas, (-1, 1), 4),
            cech(atlas, (1, 0), 4),
            cech_derham_check(4),
            verify_cocycle(atlas, [parse("psi*delta(dpsi)", atlas.chart("U0").table, chart="U0")]),
        ]
        for record in reports + list(atlas.charts.values()):
            for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                self.assertEqual(clone, record, msg=type(record))
        self.assertEqual(copy.copy(atlas), atlas)


class TestStartUp(unittest.TestCase):
    def test_import_loads_no_introspection(self):
        # The records use no dataclass machinery, so importing the package
        # loads none of it.  -S keeps site packages, and what they import,
        # out of the answer.
        src = os.path.dirname(os.path.dirname(os.path.abspath(superforms.__file__)))
        code = (
            "import sys; sys.path.insert(0, %r); import superforms;"
            " print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))" % src
        )
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
        self.assertEqual(out.stdout, "[]\n")
