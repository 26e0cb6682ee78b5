"""Expression parser, pretty printer and the batch command-line driver.

Grammar (ASCII):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ['^' ['-'] INT]
    primary := NUMBER | '(' expr ')' | delta | atom
    delta   := 'delta' ("'"* | '^' '(' INT ')') '(' DNAME ')'
    NUMBER  := INT ['/' INT]

Atoms are the active chart's coordinate names (`g`, `g1`, `psi`, ...), their
differentials (`dg`, `dpsi1`, ...) and delta factors `delta(dpsi)`,
`delta'(dpsi)`, `delta^(k)(dpsi)`.  `*` is the wedge product; negative powers
are admitted on even coordinates only.

A product is normalized once: its numbers, coordinate powers and atoms are
gathered into one raw run (a coefficient, an exponent per even coordinate and
a list of atoms) and handed to `normalize`, so a coordinate power `g^k` is
exponent arithmetic rather than k wedges.  Only a parenthesized factor is
wedged onto the product, and `(expr)^k` is k wedges.

Exit codes: 0 success, 2 parse or usage error (such as a negative --cutoff),
3 computation error, 4 stabilization failure (only flat de Rham can fail to
stabilize).  With --json every report is a
single versioned JSON object.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import cohomology
from .atlas_morphism import (
    Atlas,
    Chart,
    Morphism,
    builtin_p11,
    identity_morphism,
    pullback,
    verify_cocycle,
)
from .berezin import berezin_integral, berezin_reduce
from .coeff_ring import LaurentPoly
from .errors import (
    FormParseError,
    NotATopFormError,
    StructuralError,
    UnsupportedMorphismError,
    UnsupportedSpaceError,
)
from .form_algebra import (
    DP,
    GeneratorTable,
    Superform,
    UNIT_MONOMIAL,
    _add_terms,
    delta,
    dgamma,
    dpsi,
    exterior_d,
    normalize,
    theta,
    wedge,
)

SCHEMA_VERSION = 1

_TOKEN_RE = re.compile(r"(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z]+\d*)|(?P<op>[-+*^()'])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormParseError("unexpected character %r" % text[pos], pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# The coefficient of a coordinate or atom piece.  A Fraction, never the int 1:
# an int raised to a negative power would turn into a float.
_ONE = Fraction(1)


class _Parser:
    def __init__(self, text, table, chart_id):
        self.text = text
        self.table = table
        self.chart = chart_id
        self.tokens = _tokenize(text)
        self.pos = 0
        self.no_exps = (0,) * len(table.even_names)

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

    def term(self):
        """A product.  Its numbers, coordinate powers and atoms are gathered
        into one raw run, normalized once; a parenthesized factor flushes the
        run and is wedged on, left to right."""
        form = run = None
        while True:
            piece = self.factor()
            if isinstance(piece, Superform):
                form = self.flush(form, run)
                run = None
                form = piece if form is None else wedge(form, piece)
            elif run is None:
                run = [piece[0], piece[1], list(piece[2])]
            else:
                # Atoms and coordinates carry the shared factor 1 and no
                # exponents; the run's coefficient stays a Fraction.
                if piece[0] is not _ONE:
                    run[0] *= piece[0]
                if piece[1] is not self.no_exps:
                    run[1] = [a + b for a, b in zip(run[1], piece[1])]
                run[2] += piece[2]
            if not self.at_op("*"):
                return self.flush(form, run)
            self.take()

    def flush(self, form, run):
        """form times the normal form of run; None stands for an absent one."""
        if run is None:
            return form
        coeff, exps, atoms = run
        lp = LaurentPoly.monomial(self.table.even_names, exps, coeff)
        out = normalize(atoms, lp, self.chart, self.table)
        return out if form is None else wedge(form, out)

    def factor(self):
        """A raw piece (coefficient, even exponents, atoms), or a Superform
        for a parenthesized factor."""
        piece = self.primary()
        if not self.at_op("^"):
            return piece
        self.take()
        exponent = self.signed_int()
        # Only an even coordinate carries exponents.
        if exponent < 0 and (isinstance(piece, Superform) or not any(piece[1])):
            raise FormParseError(
                "negative powers are only defined for even coordinates",
                self.peek()[2],
            )
        if isinstance(piece, Superform):
            out = Superform.constant(self.chart, self.table, 1)
            for _ in range(exponent):
                out = wedge(out, piece)
            return out
        coeff, exps, atoms = piece
        # theta, dgamma and delta square to zero; dpsi does not.
        if exponent >= 2 and atoms and atoms[0][0] != DP:
            return 0, self.no_exps, ()
        return coeff**exponent, tuple(exponent * e for e in exps), atoms * exponent

    def signed_int(self):
        sign = 1
        if self.at_op("+", "-"):
            if self.take()[1] == "-":
                sign = -1
        tok = self.take("number")
        if "/" in tok[1]:
            raise FormParseError("exponent must be an integer", tok[2])
        return sign * int(tok[1])

    def primary(self):
        """A raw piece (coefficient, even exponents, atoms), or a Superform
        for a parenthesized expression."""
        tok = self.peek()
        if tok[0] == "number":
            self.take()
            try:
                value = Fraction(tok[1])
            except ZeroDivisionError:
                raise FormParseError("zero denominator in %r" % tok[1], tok[2]) from None
            return value, self.no_exps, ()
        if self.at_op("("):
            self.take()
            form = self.expr()
            self.take("op", ")")
            return form
        name_tok = self.take("name")
        name = name_tok[1]
        if name == "delta":
            return self.delta_factor(name_tok)
        return self.named_atom(name, name_tok[2])

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

    def named_atom(self, name, pos):
        table = self.table
        if name in table.even_names:
            idx = table.even_names.index(name)
            return _ONE, tuple(int(k == idx) for k in range(len(table.even_names))), ()
        if name in table.odd_names:
            return self.atom_form(theta(table.odd_names.index(name)))
        if name.startswith("d"):
            if name[1:] in table.even_names:
                return self.atom_form(dgamma(table.even_names.index(name[1:])))
            if name[1:] in table.odd_names:
                return self.atom_form(dpsi(table.odd_names.index(name[1:])))
        raise FormParseError("unknown coordinate %r" % name, pos)

    def atom_form(self, atom):
        return _ONE, self.no_exps, (atom,)


def parse(text, table=None, chart="U0"):
    """Parse an expression into a normalized Superform on the given chart."""
    if table is None:
        table = builtin_p11().chart(chart).table
    return _Parser(text, table, chart).parse()


def _delta_head(order):
    if order == 0:
        return "delta"
    if order <= 2:
        return "delta" + "'" * order
    return "delta^(%d)" % order


def pretty_print(a):
    """Deterministic rendering; parse(pretty_print(a)) == a.  A coefficient
    too long for the interpreter to print raises StructuralError."""
    table = a.table
    entries = []
    for mon, lp in a.terms.items():
        for exps, c in lp.items():
            entries.append(((mon.degree(), mon.picture(), mon.sort_key(), exps), mon, exps, c))
    if not entries:
        return "0"
    entries.sort(key=lambda e: e[0])
    rendered = []
    for _, mon, exps, c in entries:
        parts = []
        for k, e in enumerate(exps):
            if e == 0:
                continue
            name = table.even_names[k]
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        for j in mon.thetas:
            parts.append(table.odd_names[j])
        for i in mon.devens:
            parts.append("d" + table.even_names[i])
        for j, b in mon.dodds:
            name = "d" + table.odd_names[j]
            parts.append(name if b == 1 else "%s^%d" % (name, b))
        for j, k in mon.deltas:
            parts.append("%s(d%s)" % (_delta_head(k), table.odd_names[j]))
        mag = abs(c)
        if mag != 1 or not parts:
            try:
                parts.insert(0, str(mag))
            except ValueError:
                raise StructuralError(
                    "coefficient too large to print: more than %d digits, the limit of"
                    " sys.get_int_max_str_digits()" % sys.get_int_max_str_digits()
                ) from None
        body = "*".join(parts)
        if not rendered:
            rendered.append(body if c > 0 else "-" + body)
        else:
            rendered.append((" + " if c > 0 else " - ") + body)
    return "".join(rendered)


# ---------------------------------------------------------------------------
# Atlas description files


_JSON_TYPES = {dict: "object", list: "list", str: "string"}


def load_atlas(path):
    """Declarative atlas: chart coordinate lists plus transition images
    written in the expression grammar over the source chart.  A file that is
    not JSON, lacks a key, holds a value of the wrong type, names an unknown
    chart or whose transitions are not mutually inverse on the coordinates
    and their differentials raises StructuralError."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructuralError("atlas file %s is not JSON: %s" % (path, exc)) from None

    def field(obj, key, where, kind=object, item=None):
        """obj[key], which must be a `kind` holding only `item` values."""
        if not isinstance(obj, dict) or key not in obj:
            raise StructuralError("atlas file %s: %s has no key %r" % (path, where, key))
        value = obj[key]
        values = value.values() if isinstance(value, dict) else value
        if not isinstance(value, kind) or item and not all(isinstance(v, item) for v in values):
            what = _JSON_TYPES[kind] + (" of %ss" % _JSON_TYPES[item] if item else "")
            raise StructuralError("atlas file %s: %r in %s must be a JSON %s" % (path, key, where, what))
        return value

    charts = {}
    for cid, coords in field(data, "charts", "the file", dict, dict).items():
        where = "chart %r" % cid
        table = GeneratorTable(
            tuple(field(coords, "even", where, list, str)), tuple(field(coords, "odd", where, list, str))
        )
        charts[cid] = Chart(cid, table)
    transitions = {}
    for cid, chart in charts.items():
        transitions[(cid, cid)] = identity_morphism(chart)
    listed = field(data, "transitions", "the file", list, dict) if "transitions" in data else []
    for k, tr in enumerate(listed):
        where = "transition %d" % k
        src = field(charts, field(tr, "source", where, str), "'charts'")
        tgt = field(charts, field(tr, "target", where, str), "'charts'")
        even_images = {}
        for name, text in field(tr, "even_images", where, dict, str).items():
            if name not in tgt.table.even_names:
                raise UnsupportedMorphismError("unknown target coordinate %r" % name)
            sf = parse(text, src.table, src.id)
            if set(sf.terms) != {UNIT_MONOMIAL}:
                raise UnsupportedMorphismError(
                    "even image of %r must be an even monomial" % name
                )
            even_images[tgt.table.even_names.index(name)] = sf.terms[UNIT_MONOMIAL]
        odd_images = {}
        for name, text in field(tr, "odd_images", where, dict, str).items():
            if name not in tgt.table.odd_names:
                raise UnsupportedMorphismError("unknown target coordinate %r" % name)
            sf = parse(text, src.table, src.id)
            pieces = []
            for mon, lp in sf.terms.items():
                if mon.devens or mon.dodds or mon.deltas or len(mon.thetas) != 1:
                    raise UnsupportedMorphismError(
                        "odd image of %r must be linear in the odd coordinates" % name
                    )
                pieces.append((lp, mon.thetas[0]))
            odd_images[tgt.table.odd_names.index(name)] = tuple(pieces)
        transitions[(src.id, tgt.id)] = Morphism(src, tgt, even_images, odd_images)
    atlas = Atlas(charts, transitions)
    probes = []
    for cid, chart in charts.items():
        table = chart.table
        m, n = len(table.even_names), len(table.odd_names)
        for i in range(m):
            coordinate = LaurentPoly.monomial(table.even_names, [int(k == i) for k in range(m)])
            probes.append(Superform.from_poly(cid, table, coordinate))
        atoms = [theta(j) for j in range(n)] + [dgamma(i) for i in range(m)]
        atoms += [dpsi(j) for j in range(n)] + [delta(j) for j in range(n)]
        probes += [normalize([atom], 1, cid, table) for atom in atoms]
    if not verify_cocycle(atlas, probes).passed:
        raise StructuralError("atlas file %s: transitions are not mutually inverse" % path)
    return atlas


# ---------------------------------------------------------------------------
# Driver


def _space_atlas(args):
    if args.atlas:
        return load_atlas(args.atlas), "atlas:" + args.atlas
    return cohomology._resolve_space(args.space)


def _parse_sheaf(text):
    try:
        i, j = text.strip().split("|")
        return int(i), int(j)
    except ValueError:
        raise FormParseError("sheaf label must look like 'i|j', got %r" % text, 0) from None


def _parse_range(text):
    try:
        lo, hi = text.strip().split(":")
        return int(lo), int(hi)
    except ValueError:
        raise FormParseError("range must look like 'a:b', got %r" % text, 0) from None


def _single_expr(args):
    if len(args.expr) != 1:
        raise FormParseError("exactly one --expr is required", 0)
    return args.expr[0]


def _emit(args, payload, lines):
    if args.json:
        payload["schema"] = SCHEMA_VERSION
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_normalize(args):
    atlas, _ = _space_atlas(args)
    chart = atlas.chart(args.chart)
    form = parse(_single_expr(args), chart.table, chart.id)
    text = pretty_print(form)
    _emit(args, {"chart": chart.id, "form": text}, [text])
    return 0


def _cmd_wedge(args):
    atlas, _ = _space_atlas(args)
    chart = atlas.chart(args.chart)
    if len(args.expr) < 2:
        raise FormParseError("wedge needs at least two --expr operands", 0)
    forms = [parse(t, chart.table, chart.id) for t in args.expr]
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    text = pretty_print(out)
    _emit(args, {"chart": chart.id, "form": text}, [text])
    return 0


def _cmd_d(args):
    atlas, _ = _space_atlas(args)
    chart = atlas.chart(args.chart)
    form = parse(_single_expr(args), chart.table, chart.id)
    out = exterior_d(form)
    text = pretty_print(out)
    _emit(args, {"chart": chart.id, "form": text}, [text])
    return 0


def _cmd_pullback(args):
    atlas, _ = _space_atlas(args)
    target = atlas.chart(args.target)
    form = parse(_single_expr(args), target.table, target.id)
    morphism = atlas.transition(args.chart, args.target)
    out = pullback(morphism, form)
    text = pretty_print(out)
    _emit(args, {"chart": args.chart, "target": args.target, "form": text}, [text])
    return 0


def _cmd_cech(args):
    atlas, label = _space_atlas(args)
    sheaf = _parse_sheaf(args.sheaf)
    report = cohomology.cech(atlas, sheaf, args.cutoff)
    gens_h0 = [
        {cid: pretty_print(parts[cid]) for cid in sorted(parts)}
        for parts in report.generators_h0
    ]
    gens_h1 = [pretty_print(g) for g in report.generators_h1]
    payload = {
        "space": label,
        "sheaf": "%d|%d" % sheaf,
        "cutoff": args.cutoff,
        "h0": report.h0,
        "h1": report.h1,
        "generators": {"h0": gens_h0, "h1": gens_h1},
        "stabilized": report.stabilized,
    }
    lines = [
        "space %s sheaf %d|%d cutoff %d" % (label, sheaf[0], sheaf[1], args.cutoff),
        "h0 = %d" % report.h0,
        "h1 = %d" % report.h1,
    ]
    for k, parts in enumerate(gens_h0):
        lines += ["h0[%d] %s: %s" % (k, cid, text) for cid, text in parts.items()]
    for k, g in enumerate(gens_h1):
        lines.append("h1[%d] overlap: %s" % (k, g))
    lines.append("stabilized = %s" % report.stabilized)
    _emit(args, payload, lines)
    return 0 if report.stabilized else 4


def _cmd_derham(args):
    atlas, label = _space_atlas(args)
    if args.range:
        lo, hi = _parse_range(args.range)
    elif args.picture == 0:
        lo, hi = 0, 4
    else:
        lo, hi = -4, 1
    report = cohomology.derham(atlas, args.picture, (lo, hi), args.cutoff)
    dims = {"%d|%d" % key: val for key, val in sorted(report.dims.items())}
    gens = {
        str(i): [
            {cid: pretty_print(sf) for cid, sf in sorted(parts.items())}
            for parts in report.generators.get(i, [])
        ]
        for i in range(lo, hi + 1)
    }
    payload = {
        "space": label,
        "sheaf": None,
        "cutoff": args.cutoff,
        "picture": args.picture,
        "dims": dims,
        "generators": gens,
        "stabilized": report.stabilized,
    }
    lines = ["space %s picture %d cutoff %d" % (label, args.picture, args.cutoff)]
    for key, val in sorted(report.dims.items()):
        lines.append("H^{%d|%d} = %d" % (key[0], key[1], val))
    for i in sorted(report.generators):
        for k, parts in enumerate(report.generators[i]):
            for cid in sorted(parts):
                lines.append("H^{%d|%d}[%d] %s: %s" % (i, args.picture, k, cid, pretty_print(parts[cid])))
    lines.append("stabilized = %s" % report.stabilized)
    _emit(args, payload, lines)
    return 0 if report.stabilized else 4


def _cmd_pair(args):
    matrix, rank = cohomology.pairing_matrix(args.n, args.cutoff)
    payload = {
        "space": "p11",
        "n": args.n,
        "cutoff": args.cutoff,
        "rank": rank,
        "size": len(matrix),
        "matrix": [[str(v) for v in row] for row in matrix],
    }
    lines = ["pairing n=%d size=%d rank=%d" % (args.n, len(matrix), rank)]
    for row in matrix:
        lines.append("  ".join(str(v) for v in row))
    _emit(args, payload, lines)
    return 0


def _cmd_integrate(args):
    atlas, _ = _space_atlas(args)
    chart = atlas.chart(args.chart)
    form = parse(_single_expr(args), chart.table, chart.id)
    reduced = berezin_reduce(form)
    residue = berezin_integral(form)
    reduced_text = pretty_print(Superform.from_poly(chart.id, chart.table, reduced))
    payload = {"chart": chart.id, "reduced": reduced_text, "residue": str(residue)}
    _emit(args, payload, ["reduced = %s" % reduced_text, "residue = %s" % residue])
    return 0


def _cmd_selftest(args):
    atlas = builtin_p11()
    table = atlas.chart("U0").table
    checks = []

    probe_texts = ["psi*delta(dpsi)", "dpsi*delta'(dpsi)", "g^2*psi*dg*delta''(dpsi)"]
    probes = [parse(t, table, cid) for t in probe_texts for cid in ("U0", "U1")]
    checks.append(("transition cocycle", verify_cocycle(atlas, probes).passed))

    checks.append(("dpsi*delta(dpsi) = 0", parse("dpsi*delta(dpsi)", table, "U0").is_zero()))
    checks.append(
        ("d(psi*delta(dpsi)) = 0", exterior_d(parse("psi*delta(dpsi)", table, "U0")).is_zero())
    )

    report = cohomology.cech(atlas, (-2, 1), 8)
    checks.append(("cech(-2|1) = (12, 0)", (report.h0, report.h1) == (12, 0)))

    dr = cohomology.derham(atlas, 1, (-1, 1), 8)
    checks.append(
        ("derham picture 1 dims", [dr.dims[(i, 1)] for i in (-1, 0, 1)] == [0, 1, 0])
    )

    _, rank = cohomology.pairing_matrix(0, 8)
    checks.append(("pairing n=0 rank 4", rank == 4))

    ok = all(flag for _, flag in checks)
    payload = {"checks": [{"name": n, "passed": bool(f)} for n, f in checks], "passed": ok}
    lines = ["%s %s" % ("PASS" if f else "FAIL", n) for n, f in checks]
    _emit(args, payload, lines)
    return 0 if ok else 3


def _add_common(sp, space=True, chart=False, target=False, exprs=False, cutoff=False):
    if space:
        sp.add_argument("--space", default="p11", help="p11 or flat:m,n (default p11)")
        sp.add_argument("--atlas", default=None, help="path to an atlas description file")
    sp.add_argument("--json", action="store_true", help="emit one JSON report object")
    if chart:
        sp.add_argument("--chart", default="U0", help="active chart id (default U0)")
    if target:
        sp.add_argument("--target", default="U1", help="chart the expression lives on")
    if exprs:
        sp.add_argument("--expr", action="append", default=[], help="expression (repeatable)")
    if cutoff:
        sp.add_argument(
            "--cutoff",
            type=int,
            default=10,
            help="flat de Rham degree cutoff (default 10); P^{1|1} answers are exact at any cutoff",
        )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="superforms",
        description="Integral-form algebra and cohomology of supermanifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", help="normalize an expression")
    _add_common(sp, chart=True, exprs=True)
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("wedge", help="wedge two or more expressions")
    _add_common(sp, chart=True, exprs=True)
    sp.set_defaults(func=_cmd_wedge)

    sp = sub.add_parser("d", help="exterior differential")
    _add_common(sp, chart=True, exprs=True)
    sp.set_defaults(func=_cmd_d)

    sp = sub.add_parser("pullback", help="pull a form back along a transition")
    _add_common(sp, chart=True, target=True, exprs=True)
    sp.set_defaults(func=_cmd_pullback)

    sp = sub.add_parser("cech", help="Cech cohomology of a sheaf Omega^{i|j}")
    _add_common(sp, cutoff=True)
    sp.add_argument("--sheaf", required=True, help="sheaf label 'i|j'")
    sp.set_defaults(func=_cmd_cech)

    sp = sub.add_parser("derham", help="holomorphic de Rham cohomology")
    _add_common(sp, cutoff=True)
    sp.add_argument("--picture", type=int, default=0, help="picture number (default 0)")
    sp.add_argument("--range", default=None, help="degree range 'a:b' inclusive")
    sp.set_defaults(func=_cmd_derham)

    sp = sub.add_parser("pair", help="cohomological pairing matrix and rank on P^{1|1}")
    _add_common(sp, space=False, cutoff=True)
    sp.add_argument("--n", type=int, required=True, help="pairing index n >= 0")
    sp.set_defaults(func=_cmd_pair)

    sp = sub.add_parser("integrate", help="Berezin reduction and bosonic residue")
    _add_common(sp, chart=True, exprs=True)
    sp.set_defaults(func=_cmd_integrate)

    sp = sub.add_parser("selftest", help="run the built-in verification battery")
    _add_common(sp, space=False)
    sp.set_defaults(func=_cmd_selftest)
    return parser


def _merge_negative_values(argv):
    # argparse treats a bare "-4:1" after --range or "-3|1" after --sheaf as an
    # unknown flag, so fold such values into the "--flag=value" form it accepts.
    patterns = {"--range": r"-\d+:-?\d+", "--sheaf": r"-\d+\|-?\d+"}
    merged = []
    skip = False
    for pos, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[pos + 1] if pos + 1 < len(argv) else None
        if token in patterns and nxt is not None and re.fullmatch(patterns[token], nxt):
            merged.append(token + "=" + nxt)
            skip = True
        else:
            merged.append(token)
    return merged


def run_command(argv):
    """Execute one CLI invocation; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    json_mode = getattr(args, "json", False)
    try:
        if getattr(args, "cutoff", 0) < 0:
            raise FormParseError("--cutoff must be non-negative, got %d" % args.cutoff)
        return args.func(args)
    except FormParseError as exc:
        _report_error(json_mode, "parse", exc)
        return 2
    except (
        StructuralError,
        UnsupportedMorphismError,
        UnsupportedSpaceError,
        NotATopFormError,
        OSError,
    ) as exc:
        _report_error(json_mode, "computation", exc)
        return 3


def _report_error(json_mode, kind, exc):
    if json_mode:
        print(
            json.dumps(
                {"schema": SCHEMA_VERSION, "error": {"kind": kind, "message": str(exc)}},
                sort_keys=True,
            )
        )
    else:
        print("error (%s): %s" % (kind, exc), file=sys.stderr)


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
