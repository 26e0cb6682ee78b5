"""Expression parser, pretty printer and the batch command-line driver.

Grammar (ASCII):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ['^' ['-'] INT]
    primary := NUMBER | '(' expr ')' | delta | atom
    delta   := 'delta' ("'"* | '^' '(' INT ')') '(' DNAME ')'
    NUMBER  := INT ['/' INT]

Atoms are the active chart's coordinate names (`g`, `g1`, `psi`, ...), their
differentials, spelled "d" + name (`dg`, `dpsi1`, ...), and delta factors
`delta(dpsi)`, `delta'(dpsi)`, `delta^(k)(dpsi)`.  `*` is the wedge product;
negative powers are admitted on even coordinates only.

The text is split into token strings by one regex split, and the parser
compares the strings themselves; a token's position is computed only for an
error.  A product is normalized once: its numbers, coordinate powers and atoms
are gathered in place into one run (an int numerator and denominator, an
exponent per even coordinate and a list of (atom, power) pairs) and put in
normal form, so `g^k` is exponent arithmetic and `dpsi^k` one factor power
rather than k wedges.  Each product is added into the sum's one terms map, its
sign folded into the numerator.  A parenthesized factor and a number with a
power are pieces, one-term or not: a piece is raised to its power by squaring,
stopping at a zero power, and wedged onto the product, so `2^k` and `(2)^k`
are one rule.  A number, exponent or delta order longer than the interpreter's
integer digit limit is a parse error at its token, and so is a piece's power
as soon as a coefficient passes that limit while it is squared.

Exit codes: 0 success, 2 parse or usage error (such as a negative --cutoff or
--n, or an empty --range), 3 computation error, 4 stabilization failure (only flat de Rham can fail to
stabilize).  With --json every report is a
single versioned JSON object.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache, reduce

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
    DL,
    DP,
    TH,
    GeneratorTable,
    Superform,
    UNIT_MONOMIAL,
    _NAME_RE,
    _add_normal,
    _add_terms,
    _wedge_power,
    delta,
    exterior_d,
    normalize,
    wedge,
)

SCHEMA_VERSION = 1

# A token is a number, a NAME or an operator.  Any other character but
# whitespace (\s, exactly what str.isspace() accepts) is a token of its own
# and an error: a '/' outside a number, or one that _STRAY_RE finds, since it
# starts no token.  \d is exactly what str.isdecimal() accepts.
_TOKEN_RE = re.compile(r"(\d+(?:/\d+)?|%s|\S)" % _NAME_RE.pattern)
_STRAY_RE = re.compile(r"[^-+*^()'/\s\dA-Za-z]")
_OPS = frozenset("-+*^()'")
# The first character of a token of each kind, once stray characters are out.
_STARTS = {"name": str.isalpha, "number": str.isdecimal}


_TOO_LONG = "number too long: more than %d digits, the limit of sys.get_int_max_str_digits()"


@cache
def _digit_bound(limit):
    """10**limit, the least integer with more than limit digits."""
    return 10**limit


class _Parser:
    def __init__(self, text, table, chart_id):
        self.table = table
        self.chart = chart_id
        self.words = table._words
        # Token k is pieces[2k + 1], closed by "" at the end; the pieces
        # between the tokens are whitespace.
        self.pieces = _TOKEN_RE.split(text)
        self.tokens = self.pieces[1::2]
        if "/" in self.tokens or _STRAY_RE.search(text):
            for k, tok in enumerate(self.tokens):
                if tok == "/" or _STRAY_RE.match(tok):
                    raise self.error("unexpected character %r" % tok, k)
        self.tokens.append("")
        self.pos = 0

    def error(self, message, k):
        """FormParseError at token k, whose position is the length of the
        pieces before it: positions are computed only for an error."""
        return FormParseError(message, sum(map(len, self.pieces[: 2 * k + 1])))

    def expect(self, kind):
        """Take the next token, which must be this operator, a "name" or a "number"."""
        tok = self.tokens[self.pos]
        if not (tok == kind if len(kind) == 1 else _STARTS[kind](tok[:1])):
            if len(kind) == 1:  # an operator
                kind = repr(kind) if tok in _OPS else "op"
            raise self.error("expected %s, found %r" % (kind, tok or "end of input"), self.pos)
        self.pos += 1
        return tok

    def parse(self):
        form = self.expr()
        if self.tokens[self.pos]:
            raise self.error("trailing input %r" % self.tokens[self.pos], self.pos)
        return form

    def expr(self):
        """A sum, each product added into one terms map with its sign."""
        tokens = self.tokens
        out = Superform(self.chart, self.table)
        op = tokens[self.pos]
        while True:
            if op == "+" or op == "-":
                self.pos += 1
            self.term(out.terms, -1 if op == "-" else 1)
            op = tokens[self.pos]
            if op != "+" and op != "-":
                return out

    def term(self, terms, sign):
        """Add sign times a product to terms.  Its numbers, coordinate powers
        and atoms are gathered in place into one run (an int numerator and
        denominator, an exponent per even coordinate and a list of (atom,
        power) pairs), normalized once; the first run starts with the sign
        as its numerator.  A parenthesized factor and a number with a power
        are pieces: a piece is raised to its power by `_wedge_power` under
        the digit check, flushes the run and is wedged on, left to right."""
        tokens, words, n_even = self.tokens, self.words, len(self.table.even_names)
        form, piece, num, den, exps, pairs = None, None, sign, 1, [0] * n_even, []
        while True:
            k = self.pos
            tok = tokens[k]
            if tok == "(":
                self.pos += 1
                piece = self.expr()
                self.expect(")")
            elif tok[:1].isdecimal():
                self.pos += 1
                n, slash, d = tok.partition("/")
                n, d = self.integer(n, k), self.integer(d, k) if slash else 1
                if not d:
                    raise self.error("zero denominator in %r" % tok, k)
                if tokens[self.pos] == "^":
                    piece = self.flush(None, n, d, [0] * n_even, [])
                else:
                    num *= n
                    den *= d
            else:
                atom = words.get(tok)
                if atom is None and tok != "delta":
                    self.expect("name")
                    raise self.error("unknown coordinate %r" % tok, k)
                self.pos += 1
                if atom is None:
                    atom = self.delta_factor(k)
                even = atom.__class__ is int  # an even coordinate's index
                power = self.exponent(even) if tokens[self.pos] == "^" else 1
                if even:
                    exps[atom] += power
                elif power:
                    pairs.append((atom, power))
            if piece is not None:
                if tokens[self.pos] == "^":
                    piece = _wedge_power(piece, self.exponent(False), self.digit_check(self.pos - 1))
                form = wedge(self.flush(form, num, den, exps, pairs), piece)
                piece, num, den, exps, pairs = None, 1, 1, [0] * n_even, []
            if tokens[self.pos] != "*":
                break
            self.pos += 1
        if form is None:
            _add_normal(terms, pairs, self.coefficient(num, den, exps))
        else:
            _add_terms(terms, self.flush(form, num, den, exps, pairs).terms)

    def coefficient(self, num, den, exps):
        """The one-term polynomial num/den times the even powers exps."""
        return LaurentPoly._of(self.table.even_names, {tuple(exps): Fraction(num, den)} if num else {})

    def flush(self, form, num, den, exps, pairs):
        """form times the normal form of the run; None stands for no form."""
        out = Superform(self.chart, self.table)
        _add_normal(out.terms, pairs, self.coefficient(num, den, exps))
        return out if form is None else wedge(form, out)

    def exponent(self, even):
        """The power after the '^' at the current token.  Only an even
        coordinate takes a negative power."""
        self.pos += 1
        power = self.signed_int()
        if power < 0 and not even:
            raise self.error("negative powers are only defined for even coordinates", self.pos)
        return power

    def signed_int(self):
        sign = self.tokens[self.pos]
        if sign == "-" or sign == "+":
            self.pos += 1
        digits = self.expect("number")
        if "/" in digits:
            raise self.error("exponent must be an integer", self.pos - 1)
        value = self.integer(digits, self.pos - 1)
        return -value if sign == "-" else value

    def integer(self, digits, k):
        """int(digits), or FormParseError at token k past the interpreter's digit limit."""
        try:
            return int(digits)
        except ValueError:
            raise self.error(_TOO_LONG % sys.get_int_max_str_digits(), k) from None

    def digit_check(self, k):
        """A check for `_wedge_power`: FormParseError at token k as soon as a
        coefficient of a power passes the interpreter's digit limit (none if
        there is no limit)."""
        limit = sys.get_int_max_str_digits()
        bound = _digit_bound(limit)

        def check(form):
            for lp in form.terms.values():
                for c in lp.terms.values():
                    if max(abs(c.numerator), c.denominator) >= bound:
                        raise self.error(_TOO_LONG % limit, k)

        return check if limit else None

    def delta_factor(self, k):
        """The delta atom after the word `delta`, token k."""
        tokens, order = self.tokens, 0
        if tokens[self.pos] == "^":
            self.pos += 1
            self.expect("(")
            order = self.signed_int()
            self.expect(")")
            if order < 0:
                raise self.error("delta order must be non-negative", k)
        else:
            while tokens[self.pos] == "'":
                self.pos += 1
                order += 1
        self.expect("(")
        name = self.expect("name")
        self.expect(")")
        atom = self.words.get(name)
        if not isinstance(atom, tuple) or atom[0] != DP:
            raise self.error("expected an odd differential, found %r" % name, self.pos - 2)
        return delta(atom[1], order)


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


def _power(word, e):
    return word if e == 1 else "%s^%d" % (word, e)


def pretty_print(a):
    """Deterministic rendering; parse(pretty_print(a)) == a.  A coefficient
    too long for the interpreter to print raises StructuralError."""
    spell = a.table._spell
    entries = [(mon, exps, c) for mon, lp in a.terms.items() for exps, c in lp.items()]
    if not entries:
        return "0"
    if len(entries) > 1:
        entries.sort(key=lambda e: (e[0].degree(), e[0].picture(), e[0].sort_key(), e[1]))
    rendered = []
    for mon, exps, c in entries:
        parts = [_power(spell[k], e) for k, e in enumerate(exps) if e]
        parts += [
            "%s(%s)" % (_delta_head(atom[2]), spell[DP, atom[1]]) if atom[0] == DL else _power(spell[atom], p)
            for atom, p in mon.powers()
        ]
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
    not UTF-8 JSON, lacks a key, holds a value of the wrong type, names a
    coordinate the grammar cannot write (see `GeneratorTable`) or an unknown
    chart, or whose transitions are not mutually inverse on the coordinates
    and their differentials raises StructuralError."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
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

    # Per chart: its table, its identity transition, and the cocycle probes
    # (each word of the chart, then delta of each odd differential).
    charts, transitions, probes = {}, {}, []
    for cid, coords in field(data, "charts", "the file", dict, dict).items():
        where = "chart %r" % cid
        evens, odds = field(coords, "even", where, list, str), field(coords, "odd", where, list, str)
        try:
            table = GeneratorTable(tuple(evens), tuple(odds))
        except StructuralError as exc:
            raise StructuralError("atlas file %s: %s: %s" % (path, where, exc)) from None
        charts[cid] = Chart(cid, table)
        transitions[(cid, cid)] = identity_morphism(charts[cid])
        probes += [parse(word, table, cid) for word in table._words]
        probes += [normalize([delta(j)], 1, cid, table) for j in range(len(odds))]
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
                pairs = mon.powers()
                if len(pairs) != 1 or pairs[0][0][0] != TH:
                    raise UnsupportedMorphismError(
                        "odd image of %r must be linear in the odd coordinates" % name
                    )
                pieces.append((lp, pairs[0][0][1]))
            odd_images[tgt.table.odd_names.index(name)] = tuple(pieces)
        transitions[(src.id, tgt.id)] = Morphism(src, tgt, even_images, odd_images)
    atlas = Atlas(charts, transitions)
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
        lo, hi = map(int, text.strip().split(":"))
    except ValueError:
        raise FormParseError("range must look like 'a:b', got %r" % text, 0) from None
    if lo > hi:
        raise FormParseError("empty degree range %r" % text, 0)
    return lo, hi


def _single_form(args, chart_id):
    """The atlas, its chart chart_id and the one --expr parsed on it, in that
    order, so a bad atlas or chart is reported before a bad expression."""
    atlas, _ = _space_atlas(args)
    chart = atlas.chart(chart_id)
    if len(args.expr) != 1:
        raise FormParseError("exactly one --expr is required", 0)
    return atlas, chart, parse(args.expr[0], chart.table, chart.id)


def _emit(args, payload, lines):
    if args.json:
        payload["schema"] = SCHEMA_VERSION
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _emit_form(args, payload, form):
    """Print form, or emit it as payload's "form"."""
    payload["form"] = text = pretty_print(form)
    _emit(args, payload, [text])
    return 0


def _cmd_normalize(args):
    _, chart, form = _single_form(args, args.chart)
    return _emit_form(args, {"chart": chart.id}, form)


def _cmd_wedge(args):
    chart = _space_atlas(args)[0].chart(args.chart)
    if len(args.expr) < 2:
        raise FormParseError("wedge needs at least two --expr operands", 0)
    forms = [parse(t, chart.table, chart.id) for t in args.expr]
    return _emit_form(args, {"chart": chart.id}, reduce(wedge, forms))


def _cmd_d(args):
    _, chart, form = _single_form(args, args.chart)
    return _emit_form(args, {"chart": chart.id}, exterior_d(form))


def _cmd_pullback(args):
    atlas, _, form = _single_form(args, args.target)
    morphism = atlas.transition(args.chart, args.target)
    return _emit_form(args, {"chart": args.chart, "target": args.target}, pullback(morphism, form))


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
    return 0


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
        str(i): [{cid: pretty_print(parts[cid]) for cid in sorted(parts)} for parts in group]
        for i, group in report.generators.items()
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
    lines += ["H^{%s} = %d" % item for item in dims.items()]
    for i, group in gens.items():
        for k, parts in enumerate(group):
            lines += ["H^{%s|%d}[%d] %s: %s" % (i, args.picture, k, *row) for row in parts.items()]
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
    _, chart, form = _single_form(args, args.chart)
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


_FLAGS = {
    "space": dict(default="p11", help="p11 or flat:m,n (default p11)"),
    "atlas": dict(default=None, help="path to an atlas description file"),
    "json": dict(action="store_true", help="emit one JSON report object"),
    "chart": dict(default="U0", help="active chart id (default U0)"),
    "target": dict(default="U1", help="chart the expression lives on"),
    "expr": dict(action="append", default=[], help="expression (repeatable)"),
    "cutoff": dict(
        type=int,
        default=10,
        help="flat de Rham degree cutoff (default 10); P^{1|1} answers are exact at any cutoff",
    ),
    "sheaf": dict(required=True, help="sheaf label 'i|j'"),
    "picture": dict(type=int, default=0, help="picture number (default 0)"),
    "range": dict(default=None, help="degree range 'a:b' inclusive"),
    "n": dict(type=int, required=True, help="pairing index n >= 0"),
}
_COMMANDS = (
    ("normalize", "normalize an expression", _cmd_normalize, "space atlas json chart expr"),
    ("wedge", "wedge two or more expressions", _cmd_wedge, "space atlas json chart expr"),
    ("d", "exterior differential", _cmd_d, "space atlas json chart expr"),
    ("pullback", "pull a form back along a transition", _cmd_pullback, "space atlas json chart target expr"),
    ("cech", "Cech cohomology of a sheaf Omega^{i|j}", _cmd_cech, "space atlas json cutoff sheaf"),
    ("derham", "holomorphic de Rham cohomology", _cmd_derham, "space atlas json cutoff picture range"),
    ("pair", "cohomological pairing matrix and rank on P^{1|1}", _cmd_pair, "json cutoff n"),
    ("integrate", "Berezin reduction and bosonic residue", _cmd_integrate, "space atlas json chart expr"),
    ("selftest", "run the built-in verification battery", _cmd_selftest, "json"),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="superforms",
        description="Integral-form algebra and cohomology of supermanifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            sp.add_argument("--" + flag, **_FLAGS[flag])
        sp.set_defaults(func=handler)
    return parser


def _merge_negative_values(argv):
    # argparse treats a bare "-4:1" after --range, "-3|1" after --sheaf or
    # "-psi" after --expr as an unknown flag, so fold such values into the
    # "--flag=value" form it accepts.  No expression starts with "--".
    patterns = {"--range": r"-\d+:-?\d+", "--sheaf": r"-\d+\|-?\d+", "--expr": r"-[^-].*"}
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
        for flag in ("cutoff", "n"):
            if getattr(args, flag, 0) < 0:
                raise FormParseError("--%s must be non-negative, got %d" % (flag, getattr(args, flag)))
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
