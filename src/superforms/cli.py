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

The tokens are read off the text by one regex findall, and the parser
compares the strings themselves, looking at each token once as one cursor
moves left to right; the whitespace between the tokens is split out, and a
token's position computed, only for an error.  A product is normalized once:
its numbers, coordinate powers and atoms are gathered in place into one run
(an int numerator and denominator, an exponent per even coordinate and a
list of (atom, power) pairs), so `g^k` is exponent arithmetic and `dpsi^k`
one factor power rather than k wedges.  The normal form of the run is found
before its coefficient is built: a product that vanishes builds none, and
the sign and contraction scalar of one that does not are folded into the
numerator of its one Fraction, which is added into the sum's one terms map
(the product's sign starts that numerator).  A parenthesized factor and a
number with a power are pieces, one-term or not: a piece is raised to its
power by squaring, stopping at a zero power, and wedged onto the product, so
`2^k` and `(2)^k` are one rule.  A number, exponent or delta order longer
than the interpreter's integer digit limit is a parse error at its token, and
so is a piece's power as soon as a coefficient passes that limit while it is
squared, or before a squaring whose result could have more terms than that
limit.

Exit codes: 0 success, 2 parse or usage error (such as a negative --cutoff or
--n, or an empty --range), 3 computation error, 4 stabilization failure (only
flat de Rham can fail to stabilize), 141 output pipe closed early by its reader.
A command computes one payload; the run writes it once, as one versioned JSON
object with --json, otherwise as the text lines read off that payload alone.
`pair` reads the sparse rows of the pairing: the text of a zero entry is laid
out, and only the non-zero entries are formatted.
"""

import argparse
import json
import os
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
from .berezin import berezin_reduce
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
    _add_term,
    _add_terms,
    _normal_form,
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


_TOO_LONG = "number too long: more than %d digits, the limit of sys.get_int_max_str_digits()"
_TOO_MANY = "power too large: its square could have more than %d terms, the limit of sys.get_int_max_str_digits()"


@cache
def _digit_bound(limit):
    """10**limit, the least integer with more than limit digits."""
    return 10**limit


class _Parser:
    def __init__(self, text, table, chart_id):
        self.text = text
        self.table = table
        self.chart = chart_id
        self.words = table._words
        # The tokens, closed by "" at the end; what lies between them is
        # whitespace, split out only to place an error.
        self.tokens = _TOKEN_RE.findall(text)
        if "/" in self.tokens or _STRAY_RE.search(text):
            for k, tok in enumerate(self.tokens):
                if tok == "/" or _STRAY_RE.match(tok):
                    raise self.error("unexpected character %r" % tok, k)
        self.tokens.append("")

    def error(self, message, k):
        """FormParseError at token k, whose position is the length of the
        tokens and whitespace before it."""
        return FormParseError(message, sum(map(len, _TOKEN_RE.split(self.text)[: 2 * k + 1])))

    def expected(self, kind, k):
        """FormParseError at token k, which is not this operator, a "name" or a "number"."""
        tok = self.tokens[k]
        if len(kind) == 1:  # an operator
            kind = repr(kind) if tok in _OPS else "op"
        return self.error("expected %s, found %r" % (kind, tok or "end of input"), k)

    def parse(self):
        form, k = self.expr(0)
        if self.tokens[k]:
            raise self.error("trailing input %r" % self.tokens[k], k)
        return form

    def expr(self, k):
        """The sum from token k, each product added into one terms map with
        its sign, and the token after it."""
        tokens = self.tokens
        out = Superform._of(self.chart, self.table, {})
        op = tokens[k]
        while True:
            if op == "+" or op == "-":
                k += 1
            k = self.term(k, out.terms, -1 if op == "-" else 1)
            op = tokens[k]
            if op != "+" and op != "-":
                return out, k

    def term(self, k, terms, sign):
        """Add sign times the product from token k to terms; returns the
        token after it.  Each token is read once, left to right.  The
        product's numbers, coordinate powers and atoms are gathered in place
        into one run (an int numerator and denominator, an exponent per even
        coordinate and a list of (atom, power) pairs); the first run starts
        with the sign as its numerator.  A parenthesized factor and a number
        with a power are pieces: a piece is raised to its power by
        `_wedge_power` under the digit check, flushes the run and is wedged
        on, left to right."""
        tokens, words, n_even = self.tokens, self.words, len(self.table.even_names)
        form, num, den, exps, pairs = None, sign, 1, [0] * n_even, []
        while True:
            tok = tokens[k]
            piece = atom = None
            if tok == "(":
                piece, k = self.expr(k + 1)
                if tokens[k] != ")":
                    raise self.expected(")", k)
                k += 1
            elif tok[:1].isdecimal():
                n, slash, d = tok.partition("/")
                n, d = self.integer(n, k), self.integer(d, k) if slash else 1
                if not d:
                    raise self.error("zero denominator in %r" % tok, k)
                k += 1
                if tokens[k] == "^":
                    piece = self.flush(None, n, d, [0] * n_even, [])
                else:
                    num *= n
                    den *= d
            else:
                atom = words.get(tok)
                if atom is None:
                    if tok != "delta":
                        if tok[:1].isalpha():
                            raise self.error("unknown coordinate %r" % tok, k)
                        raise self.expected("name", k)
                    # delta ("'"* | '^' '(' INT ')') '(' DNAME ')'
                    at, order = k, 0
                    k += 1
                    if tokens[k] == "^":
                        if tokens[k + 1] != "(":
                            raise self.expected("(", k + 1)
                        order, k = self.signed_int(k + 2)
                        if tokens[k] != ")":
                            raise self.expected(")", k)
                        if order < 0:
                            raise self.error("delta order must be non-negative", at)
                        k += 1
                    else:
                        while tokens[k] == "'":
                            k += 1
                            order += 1
                    if tokens[k] != "(":
                        raise self.expected("(", k)
                    name = tokens[k + 1]
                    if not name[:1].isalpha():
                        raise self.expected("name", k + 1)
                    if tokens[k + 2] != ")":
                        raise self.expected(")", k + 2)
                    odd = words.get(name)
                    if odd.__class__ is not tuple or odd[0] != DP:
                        raise self.error("expected an odd differential, found %r" % name, k + 1)
                    atom = (DL, odd[1], order)
                    k += 2
                k += 1
            power = 1
            if tokens[k] == "^":
                # Only an even coordinate (an atom that is an index) takes a
                # negative power.
                power, k = self.signed_int(k + 1)
                if power < 0 and atom.__class__ is not int:
                    raise self.error("negative powers are only defined for even coordinates", k)
                if piece is not None:
                    piece = _wedge_power(piece, power, *self.power_checks(k - 1))
            if piece is not None:
                form = wedge(self.flush(form, num, den, exps, pairs), piece)
                num, den, exps, pairs = 1, 1, [0] * n_even, []
            elif atom.__class__ is int:
                exps[atom] += power
            elif atom is not None and power:
                pairs.append((atom, power))
            if tokens[k] != "*":
                break
            k += 1
        if form is None:
            self.add_run(terms, num, den, exps, pairs)
        else:
            _add_terms(terms, self.flush(form, num, den, exps, pairs).terms)
        return k

    def add_run(self, terms, num, den, exps, pairs):
        """Add the run num/den * exps * pairs to terms.  The normal form of
        the pairs comes first, so a run that vanishes builds no coefficient;
        its scalar is folded into the numerator of the one Fraction built."""
        normal = _normal_form(pairs) if num else None
        if normal is not None:
            num *= normal[1]
            c = Fraction(num) if den == 1 else Fraction(num, den)
            _add_term(terms, normal[0], LaurentPoly._of(self.table.even_names, {tuple(exps): c}))

    def flush(self, form, num, den, exps, pairs):
        """form times the run; None stands for no form."""
        out = Superform._of(self.chart, self.table, {})
        self.add_run(out.terms, num, den, exps, pairs)
        return out if form is None else wedge(form, out)

    def signed_int(self, k):
        """The integer, with an optional sign, from token k, and the token after it."""
        sign = digits = self.tokens[k]
        if sign == "-" or sign == "+":
            k += 1
            digits = self.tokens[k]
        if not digits[:1].isdecimal():
            raise self.expected("number", k)
        if "/" in digits:
            raise self.error("exponent must be an integer", k)
        value = self.integer(digits, k)
        return (-value if sign == "-" else value), k + 1

    def integer(self, digits, k):
        """int(digits), or FormParseError at token k past the interpreter's digit limit."""
        try:
            return int(digits)
        except ValueError:
            raise self.error(_TOO_LONG % sys.get_int_max_str_digits(), k) from None

    def power_checks(self, k):
        """The check and square check for `_wedge_power` under the
        interpreter's digit limit L (none if there is no limit), each raising
        FormParseError at token k.  The check stops a power as soon as a
        coefficient passes L digits.  The square check refuses to square a
        power of n terms when n*(n + 1)/2 > L, the most terms its square can
        have: L is the cap on the terms of a squared power, so no squaring
        makes more than 2*L term products."""
        limit = sys.get_int_max_str_digits()
        if not limit:
            return None, None
        bound = _digit_bound(limit)

        def check(form):
            for lp in form.terms.values():
                for c in lp.terms.values():
                    if max(abs(c.numerator), c.denominator) >= bound:
                        raise self.error(_TOO_LONG % limit, k)

        def square_check(form):
            n = sum(len(lp.terms) for lp in form.terms.values())
            if n * (n + 1) // 2 > limit:
                raise self.error(_TOO_MANY % limit, k)

        return check, square_check


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
        num, den = c.numerator, c.denominator
        mag = -num if num < 0 else num
        if mag != 1 or den != 1 or not parts:
            try:
                parts.insert(0, str(mag) if den == 1 else "%d/%d" % (mag, den))
            except ValueError:
                raise StructuralError(
                    "coefficient too large to print: more than %d digits, the limit of"
                    " sys.get_int_max_str_digits()" % sys.get_int_max_str_digits()
                ) from None
        body = "*".join(parts)
        if not rendered:
            rendered.append(body if num > 0 else "-" + body)
        else:
            rendered.append((" + " if num > 0 else " - ") + body)
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


def _form_text(payload):
    return [payload["form"]]


def _cmd_normalize(args):
    _, chart, form = _single_form(args, args.chart)
    return {"chart": chart.id, "form": pretty_print(form)}, 0


def _cmd_wedge(args):
    chart = _space_atlas(args)[0].chart(args.chart)
    if len(args.expr) < 2:
        raise FormParseError("wedge needs at least two --expr operands", 0)
    forms = [parse(t, chart.table, chart.id) for t in args.expr]
    return {"chart": chart.id, "form": pretty_print(reduce(wedge, forms))}, 0


def _cmd_d(args):
    _, chart, form = _single_form(args, args.chart)
    return {"chart": chart.id, "form": pretty_print(exterior_d(form))}, 0


def _cmd_pullback(args):
    atlas, _, form = _single_form(args, args.target)
    morphism = atlas.transition(args.chart, args.target)
    return {"chart": args.chart, "target": args.target, "form": pretty_print(pullback(morphism, form))}, 0


def _charts(parts):
    """{chart id: text} of one class, one pretty_print per chart form."""
    return {cid: pretty_print(parts[cid]) for cid in sorted(parts)}


def _cmd_cech(args):
    atlas, label = _space_atlas(args)
    sheaf = _parse_sheaf(args.sheaf)
    report = cohomology.cech(atlas, sheaf, args.cutoff)
    gens = {"h0": [_charts(p) for p in report.generators_h0], "h1": [pretty_print(g) for g in report.generators_h1]}
    return {
        "space": label,
        "sheaf": "%d|%d" % sheaf,
        "cutoff": args.cutoff,
        "h0": report.h0,
        "h1": report.h1,
        "generators": gens,
        "stabilized": report.stabilized,
    }, 0


def _cech_text(p):
    lines = ["space %(space)s sheaf %(sheaf)s cutoff %(cutoff)d" % p, "h0 = %(h0)d" % p, "h1 = %(h1)d" % p]
    for k, parts in enumerate(p["generators"]["h0"]):
        lines += ["h0[%d] %s: %s" % (k, cid, text) for cid, text in parts.items()]
    lines += ["h1[%d] overlap: %s" % item for item in enumerate(p["generators"]["h1"])]
    lines.append("stabilized = %(stabilized)s" % p)
    return lines


def _cmd_derham(args):
    atlas, label = _space_atlas(args)
    degrees = _parse_range(args.range) if args.range else (0, 4) if args.picture == 0 else (-4, 1)
    report = cohomology.derham(atlas, args.picture, degrees, args.cutoff)
    return {
        "space": label,
        "sheaf": None,
        "cutoff": args.cutoff,
        "picture": args.picture,
        "dims": {"%d|%d" % key: val for key, val in sorted(report.dims.items())},
        "generators": {str(i): [_charts(parts) for parts in group] for i, group in report.generators.items()},
        "stabilized": report.stabilized,
    }, 0 if report.stabilized else 4


def _by_degree(item):
    """The degree i of an ("i|j", ...) or ("i", ...) item; JSON sorts keys as strings."""
    return int(item[0].partition("|")[0])


def _derham_text(p):
    lines = ["space %(space)s picture %(picture)d cutoff %(cutoff)d" % p]
    lines += ["H^{%s} = %d" % item for item in sorted(p["dims"].items(), key=_by_degree)]
    for i, group in sorted(p["generators"].items(), key=_by_degree):
        for k, parts in enumerate(group):
            lines += ["H^{%s|%d}[%d] %s: %s" % (i, p["picture"], k, *row) for row in parts.items()]
    lines.append("stabilized = %(stabilized)s" % p)
    return lines


def _cmd_pair(args):
    # Nearly every entry is zero: its text is laid out once, and only the
    # non-zero entries of the sparse rows are formatted.
    rows, width, rank = cohomology._pairing(cohomology._transition(builtin_p11()), args.n)
    zero, matrix = str(Fraction(0)), []
    for entries in rows:
        row = [zero] * width
        for t, c in entries:
            row[t] = str(c)
        matrix.append(row)
    return {
        "space": "p11",
        "n": args.n,
        "cutoff": args.cutoff,
        "rank": rank,
        "size": len(matrix),
        "matrix": matrix,
    }, 0


def _pair_text(p):
    return ["pairing n=%(n)d size=%(size)d rank=%(rank)d" % p] + ["  ".join(row) for row in p["matrix"]]


def _cmd_integrate(args):
    _, chart, form = _single_form(args, args.chart)
    # The residue is read off the one reduction, as berezin_integral does.
    poly = berezin_reduce(form)
    residue = poly.coefficient((-1,) * len(poly.variables))
    reduced = Superform.from_poly(chart.id, chart.table, poly)
    return {"chart": chart.id, "reduced": pretty_print(reduced), "residue": str(residue)}, 0


def _integrate_text(p):
    return ["reduced = %(reduced)s" % p, "residue = %(residue)s" % p]


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
    return {"checks": [{"name": n, "passed": bool(f)} for n, f in checks], "passed": ok}, 0 if ok else 3


def _selftest_text(p):
    return ["%s %s" % ("PASS" if c["passed"] else "FAIL", c["name"]) for c in p["checks"]]


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
    ("normalize", "normalize an expression", _cmd_normalize, _form_text, "space atlas json chart expr"),
    ("wedge", "wedge two or more expressions", _cmd_wedge, _form_text, "space atlas json chart expr"),
    ("d", "exterior differential", _cmd_d, _form_text, "space atlas json chart expr"),
    ("pullback", "pull a form back along a transition", _cmd_pullback, _form_text, "space atlas json chart target expr"),
    ("cech", "Cech cohomology of a sheaf Omega^{i|j}", _cmd_cech, _cech_text, "space atlas json cutoff sheaf"),
    ("derham", "holomorphic de Rham cohomology", _cmd_derham, _derham_text, "space atlas json cutoff picture range"),
    ("pair", "cohomological pairing matrix and rank on P^{1|1}", _cmd_pair, _pair_text, "json cutoff n"),
    ("integrate", "Berezin reduction and bosonic residue", _cmd_integrate, _integrate_text, "space atlas json chart expr"),
    ("selftest", "run the built-in verification battery", _cmd_selftest, _selftest_text, "json"),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="superforms",
        description="Integral-form algebra and cohomology of supermanifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, text, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            sp.add_argument("--" + flag, **_FLAGS[flag])
        sp.set_defaults(func=handler, text=text)
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
    """Execute one CLI invocation, then write its one report; returns the exit status."""
    args = _build_parser().parse_args(_merge_negative_values(argv))
    text = args.text
    try:
        for flag in ("cutoff", "n"):
            if getattr(args, flag, 0) < 0:
                raise FormParseError("--%s must be non-negative, got %d" % (flag, getattr(args, flag)))
        payload, code = args.func(args)
    except FormParseError as exc:
        payload, code, text = {"error": {"kind": "parse", "message": str(exc)}}, 2, None
    except (StructuralError, UnsupportedMorphismError, UnsupportedSpaceError, NotATopFormError, OSError) as exc:
        payload, code, text = {"error": {"kind": "computation", "message": str(exc)}}, 3, None
    if args.json:
        payload["schema"] = SCHEMA_VERSION
        stream, lines = sys.stdout, [json.dumps(payload, sort_keys=True)]
    elif text is None:
        stream, lines = sys.stderr, ["error (%(kind)s): %(message)s" % payload["error"]]
    else:
        stream, lines = sys.stdout, text(payload)
    try:
        # Each line and newline is its own write, as with print: a large write
        # cut short by a closed pipe does not raise, the write after it does.
        print(*lines, sep="\n", file=stream, flush=True)
    except BrokenPipeError:
        # The reader left early: write nothing more (os.devnull keeps the flush
        # at exit quiet) and exit 128 + SIGPIPE, as a shell reports `yes | head`.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return 141
    return code


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
