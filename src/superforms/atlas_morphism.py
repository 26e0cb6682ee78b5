"""Charts, transition morphisms and the pullback of integral forms.

A morphism is fixed by its generator images: each target even coordinate maps
to an invertible Laurent monomial in the source evens, each target odd
coordinate to a linear combination of source odds with Laurent coefficients.
Pullback extends these images to the whole form algebra: coefficients by
substitution, dgamma/dpsi by d of the images, delta factors by delta_expand.
"""

from dataclasses import dataclass, field
from functools import lru_cache, wraps
from types import MappingProxyType

from .coeff_ring import LaurentPoly, lp_mul, lp_substitute_monomial
from .errors import StructuralError, UnsupportedMorphismError
from .form_algebra import (
    DG,
    DP,
    TH,
    GeneratorTable,
    Monomial,
    Superform,
    _add_term,
    _wedge_power,
    delta_expand,
    exterior_d,
    wedge,
)


@dataclass(frozen=True)
class Chart:
    id: str
    table: GeneratorTable


class Morphism:
    """Generator-image table defining a pullback homomorphism.

    even_images: target even index -> LaurentPoly (single invertible monomial)
    over the source evens.  odd_images: target odd index -> tuple of
    (LaurentPoly coefficient, source odd index) pairs.

    Both tables are read-only, since the built-in atlases share their
    morphisms.  Two morphisms are equal, and hash equal, when their charts
    and generator images are: the images compare term by term in the order
    they were given, the order in which a pullback writes its terms.
    """

    def __init__(self, source, target, even_images, odd_images):
        self.source = source
        self.target = target
        self.even_images = MappingProxyType(dict(even_images))
        self.odd_images = MappingProxyType({j: tuple(v) for j, v in odd_images.items()})
        src_vars = source.table.even_names
        for i in range(len(target.table.even_names)):
            if i not in self.even_images:
                raise StructuralError("missing image for even coordinate %d" % i)
            img = self.even_images[i]
            if img.variables != src_vars:
                raise StructuralError("even image variables do not match the source chart")
            if not img.is_monomial():
                raise UnsupportedMorphismError(
                    "even image must be a single invertible Laurent monomial"
                )
        for j in range(len(target.table.odd_names)):
            if j not in self.odd_images:
                raise StructuralError("missing image for odd coordinate %d" % j)
            for c, idx in self.odd_images[j]:
                if c.variables != src_vars:
                    raise StructuralError("odd image variables do not match the source chart")
                if not 0 <= idx < len(source.table.odd_names):
                    raise StructuralError("odd image index %d out of range" % idx)
        terms = lambda lp: (lp.variables, tuple(lp.terms.items()))
        self._key = (
            source,
            target,
            tuple(terms(self.even_images[i]) for i in range(len(target.table.even_names))),
            tuple(
                tuple((terms(c), idx) for c, idx in self.odd_images[j])
                for j in range(len(target.table.odd_names))
            ),
        )
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, Morphism) and self._key == other._key

    def __hash__(self):
        return self._hash

    def substitution_images(self):
        out = {}
        for i, name in enumerate(self.target.table.even_names):
            exps, c = self.even_images[i].single_term()
            out[name] = (c, exps)
        return out

    def odd_image_form(self, j):
        src = self.source
        out = Superform.zero(src.id, src.table)
        for c, idx in self.odd_images[j]:
            _add_term(out.terms, Monomial._of((((TH, idx), 1),)), c)
        return out


@dataclass
class Atlas:
    """Charts plus transition morphisms indexed by (source id, target id)."""

    charts: dict
    transitions: dict = field(default_factory=dict)

    def chart(self, chart_id):
        if chart_id not in self.charts:
            raise StructuralError("unknown chart %r" % chart_id)
        return self.charts[chart_id]

    def transition(self, source_id, target_id):
        key = (source_id, target_id)
        if key not in self.transitions:
            raise StructuralError("no transition %r" % (key,))
        return self.transitions[key]


def identity_morphism(chart):
    evens = chart.table.even_names
    even_images = {
        i: LaurentPoly.monomial(evens, tuple(1 if t == i else 0 for t in range(len(evens))))
        for i in range(len(evens))
    }
    ones = LaurentPoly.const(evens, 1)
    odd_images = {j: ((ones, j),) for j in range(len(chart.table.odd_names))}
    return Morphism(chart, chart, even_images, odd_images)


def _atom_image(m, atom):
    """Pullback of one generator factor."""
    src = m.source
    kind = atom[0]
    if kind == TH:
        return m.odd_image_form(atom[1])
    if kind == DG:
        return exterior_d(Superform.from_poly(src.id, src.table, m.even_images[atom[1]]))
    if kind == DP:
        return exterior_d(m.odd_image_form(atom[1]))
    j, order = atom[1], atom[2]
    return delta_expand(order, _atom_image(m, (DP, j)))


# An entry is a few terms, about 2 KiB on P^{1|1} (tracemalloc).  Cech solves
# keep their own results, and only the de Rham gluing check reads an entry
# they made again: one pass over the seed-1 benchmark job lists reads 4 hits
# and 48 misses on p11_cech, and 867 hits and 24 misses on algebra_mix, whose
# one-shot pullbacks repeat.
@lru_cache(maxsize=1024)
def _monomial_image(m, mon):
    """Phi*(mon) of one normal-form monomial, once per (transition, monomial)
    and process: the power of each atom image, by squaring, wedged onto 1
    left to right.

    Returns read-only ((Monomial, LaurentPoly), ...) in the order of the
    wedge chain; a delta series that does not terminate raises, which is not
    cached.
    """
    src = m.source
    acc = Superform.constant(src.id, src.table, 1)
    for atom, power in mon.powers():
        acc = wedge(acc, _wedge_power(_atom_image(m, atom), power))
        if acc.is_zero():
            return ()
    return tuple(acc.terms.items())


def pullback(m, a):
    """Pull a form on m.target back to m.source.

    Each delta^(k) factor expands by `delta_expand`, which is exact: its
    series ends when the non-leading part of the dpsi image is nilpotent (as
    on the built-in atlases), and otherwise it raises
    UnsupportedMorphismError.  The image of each monomial comes from
    `_monomial_image`.
    """
    if a.chart != m.target.id or a.table != m.target.table:
        raise StructuralError("form does not live on the morphism target chart")
    images = m.substitution_images()
    src = m.source
    out = Superform.zero(src.id, src.table)
    for mon, f in a.terms.items():
        pulled_f = lp_substitute_monomial(f, images, src.table.even_names)
        if pulled_f.is_zero():
            continue
        for pulled_mon, c in _monomial_image(m, mon):
            _add_term(out.terms, pulled_mon, lp_mul(pulled_f, c))
    return out


@dataclass
class CocycleReport:
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures


def verify_cocycle(atlas, probes):
    """Check f_ii = id and f_ij o f_ji = id on each probe form.  A pullback
    that raises has the transition and the probe added to its message."""
    report = CocycleReport()
    for probe in probes:
        chart_id = probe.chart
        for (src, tgt), m in atlas.transitions.items():
            legs = (m,) if src == chart_id else (m, atlas.transitions.get((chart_id, src)))
            if tgt != chart_id or None in legs:
                continue
            report.checked += 1
            image = probe
            for leg in legs:
                try:
                    image = pullback(leg, image)
                except UnsupportedMorphismError as exc:
                    raise UnsupportedMorphismError(
                        "%s (transition %s -> %s, checking the probe %r)"
                        % (exc, leg.source.id, leg.target.id, probe)
                    ) from None
            if image != probe:
                report.failures.append((src, tgt, probe))
    return report


def _shared(build):
    """Run build once per arguments and process (for the last 64 of them);
    each call returns a fresh Atlas, with its own charts and transitions
    dicts, around the charts and morphisms built then."""
    built = lru_cache(maxsize=64)(build)

    @wraps(build)
    def fresh(*args):
        atlas = built(*args)
        return Atlas(dict(atlas.charts), dict(atlas.transitions))

    return fresh


@_shared
def builtin_p11():
    """The projective superline: two charts, transitions g -> 1/g, psi -> psi/g.
    Its charts and morphisms are built once and shared (see `_shared`)."""
    table = GeneratorTable(("g",), ("psi",))
    u0 = Chart("U0", table)
    u1 = Chart("U1", table)
    inv = LaurentPoly.monomial(("g",), (-1,))
    transitions = {}
    for src, tgt in ((u0, u1), (u1, u0)):
        transitions[(src.id, tgt.id)] = Morphism(
            src, tgt, {0: inv}, {0: ((inv, 0),)}
        )
    transitions[("U0", "U0")] = identity_morphism(u0)
    transitions[("U1", "U1")] = identity_morphism(u1)
    return Atlas({"U0": u0, "U1": u1}, transitions)


@_shared
def builtin_flat(m, n):
    """Flat space C^{m|n}: a single chart with the identity transition.  Its
    chart and morphism are built once per (m, n) and shared (see `_shared`)."""
    if m < 0 or n < 0:
        raise StructuralError("flat space needs m, n >= 0")
    evens = ("g",) if m == 1 else tuple("g%d" % (i + 1) for i in range(m))
    odds = ("psi",) if n == 1 else tuple("psi%d" % (j + 1) for j in range(n))
    chart = Chart("U0", GeneratorTable(evens, odds))
    return Atlas({"U0": chart}, {("U0", "U0"): identity_morphism(chart)})
