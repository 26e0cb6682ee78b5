"""Berezin reduction of top integral forms and the bosonic residue.

A top form on a chart with m even and n odd coordinates lives in
Omega^{m|n}: every term must carry the full dgamma block, the full
delta(dpsi) block at order zero, and no bare dpsi factors.  Reducing
integrates out all odd directions: only terms containing the complete
theta block survive, with coefficient read in the canonical factor order
theta_1 ... theta_n dgamma_1 ... dgamma_m delta(dpsi_1) ... delta(dpsi_n).
"""

from .coeff_ring import LaurentPoly, lp_add
from .errors import NotATopFormError, StructuralError
from .form_algebra import DG, DL, TH


def berezin_reduce(form):
    """Integrate out the odd sector of a top form.

    Returns the Laurent polynomial in the even coordinates multiplying the
    full odd block.  Raises NotATopFormError when any term is not a top
    integral form.
    """
    table = form.table
    m = len(table.even_names)
    n = len(table.odd_names)
    top = tuple(((DG, i), 1) for i in range(m)) + tuple(((DL, j, 0), 1) for j in range(n))
    full = tuple(((TH, j), 1) for j in range(n)) + top
    result = LaurentPoly.zero(table.even_names)
    for mon, lp in form.terms.items():
        pairs = mon.powers()
        if pairs == full:
            result = lp_add(result, lp)
        elif tuple(pair for pair in pairs if pair[0][0] != TH) != top:
            # Not a top form: name the first part that is missing.
            if mon.devens != tuple(range(m)):
                raise NotATopFormError("missing part of the dgamma block: %r" % (mon,))
            if mon.dodds:
                raise NotATopFormError("bare dpsi factor in a top form: %r" % (mon,))
            raise NotATopFormError("delta block is not the full order-zero block: %r" % (mon,))
    return result


def bosonic_residue(poly, variable):
    """Coefficient of the exponent -1 in one even variable and 0 in the
    others; the residue of a Laurent polynomial."""
    if variable not in poly.variables:
        raise StructuralError("unknown even coordinate %r" % variable)
    exps = [0] * len(poly.variables)
    exps[poly.variables.index(variable)] = -1
    return poly.coefficient(exps)


def berezin_integral(form):
    """Full integral of a top form over the chart: Berezin reduction followed
    by the bosonic residue in every even coordinate."""
    reduced = berezin_reduce(form)
    return reduced.coefficient((-1,) * len(reduced.variables))
