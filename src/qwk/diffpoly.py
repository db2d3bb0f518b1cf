"""Differential polynomials in the u-representation, and the mode derivatives.

A differential polynomial is a finite combination of monomials
u_{s_1}...u_{s_n} hbar_u^g with u_s the s-th x-derivative of u.  It is a
``MultiPoly`` over h, u0, u1, ..., the exponent of h being the grade g;
``DiffPoly`` builds one from {(derivative orders, grade): coefficient}.  The
Fourier substitution u_s = sum_a (i a)^s p_a e^{iax} turns it into a density
symbol (``from_diff_poly``), one orbit of slot exponents per monomial, and
``to_diff_poly`` reads a finitely supported symbol back through its orbit
sums.  ``variational_derivative`` is sum_s (-d_x)^s d/du_s, computed on the
u-side with ``MultiPoly.derivative`` and d_x = sum_s u_(s+1) d/du_s;
``mode_derivative_zero_mode`` is its mode-derivative side, computed
slotwise, and ``d_dp0`` the mode derivative at p_0.  Both mode derivatives
drop one slot per block of a term.

Nothing on the engine path imports this module: the identity checks
(``qwk.identities``) and the tests do.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from .algebra import I_POWERS, GaussRat, MultiPoly, Scalar
from .special import slot_names
from .symbols import (DENSITY, FourierSymbol, SymbolTerm, _merge_terms, _orbit_sums,
                      _spread)


# ----------------------------------------------------------------------
# mode derivatives, slot by slot

def _drop_slot(coeff: MultiPoly, pos: int, value) -> MultiPoly:
    """Substitute slot ``pos`` (0-based); the other slots keep their order as a1..a(m-1)."""
    p = coeff.substitute(coeff.variables[pos], value)
    return MultiPoly(slot_names(len(coeff.variables) - 1), p.terms)


def _blocks_minus_one(blocks: Tuple[int, ...], bi: int) -> Tuple[int, ...]:
    out = list(blocks)
    out[bi] -= 1
    return tuple(b for b in out if b)


def d_dp0(s: FourierSymbol) -> FourierSymbol:
    """Mode derivative at p_0: per block, substitute one slot by 0, weighted by block size."""
    out = []
    for t in s.terms:
        if t.m == 0:
            continue
        start = 0
        for bi, size in enumerate(t.blocks):
            pos = start + size - 1
            coeff = _drop_slot(t.coeff, pos, 0) * size
            out.append(SymbolTerm(t.grade, t.m - 1, coeff, _blocks_minus_one(t.blocks, bi)))
            start += size
    return FourierSymbol(s.kind, _merge_terms(tuple(out)))


def mode_derivative_zero_mode(s: FourierSymbol) -> FourierSymbol:
    """sum_b e^{-ibx} d(zero mode of s)/dp_b, computed slotwise.

    Per block, substitute one slot by minus the sum of all other slots,
    weighted by the block size.  This is the mode-derivative side of the
    variational-derivative identity.
    """
    out = []
    for t in s.terms:
        if t.m == 0:
            continue
        vs = slot_names(t.m)
        start = 0
        for bi, size in enumerate(t.blocks):
            pos = start + size - 1
            others = tuple(v for i, v in enumerate(vs) if i != pos)
            minus_others = MultiPoly(
                others,
                {tuple(1 if i == j else 0 for i in range(t.m - 1)): GaussRat(-1)
                 for j in range(t.m - 1)})
            coeff = _drop_slot(t.coeff, pos, minus_others) * size
            out.append(SymbolTerm(t.grade, t.m - 1, coeff, _blocks_minus_one(t.blocks, bi)))
            start += size
    return FourierSymbol(DENSITY, _merge_terms(tuple(out)))


# ----------------------------------------------------------------------
# differential polynomials in the u-representation

def _u_variables(top: int) -> Tuple[str, ...]:
    """h, u0, ..., u_top: a differential polynomial's variables up to order ``top``."""
    return ("h",) + tuple(f"u{s}" for s in range(top + 1))


def DiffPoly(terms: Optional[Mapping[Tuple[Tuple[int, ...], int], Scalar]] = None) -> MultiPoly:
    """sum c * u_{s_1}...u_{s_n} * hbar_u^g over ``{((s_1, ..., s_n), g): c}``,
    as a MultiPoly over h, u0, ..., u_top with h's exponent the grade g."""
    terms = terms or {}
    every = [s for orders, _ in terms for s in orders]
    if min(every, default=0) < 0:
        raise ValueError("derivative orders are nonnegative")
    top = max(every, default=-1)
    out: dict = {}
    for (orders, g), c in terms.items():
        e = [g] + [0] * (top + 1)
        for s in orders:
            e[s + 1] += 1
        key = tuple(e)
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return MultiPoly(_u_variables(top), out)


def from_diff_poly(d: MultiPoly) -> FourierSymbol:
    """Fourier substitution u_s = sum (i a)^s p_a e^{iax}, symmetrized."""
    spread = []
    for e, c in d.terms.items():
        orders = tuple(s for s, x in enumerate(e[1:]) for _ in range(x))
        spread.append(_spread(e[0], len(orders), {orders: c * I_POWERS[sum(orders) % 4]}))
    return FourierSymbol(DENSITY, _merge_terms(tuple(spread)))


def to_diff_poly(s: FourierSymbol) -> MultiPoly:
    """Inverse of ``from_diff_poly`` on finitely supported symbols."""
    if s.kind != DENSITY:
        raise ValueError("conversion applies to density symbols")
    return DiffPoly({(canon, g): c * I_POWERS[-sum(canon) % 4]
                     for (g, canon), c in _orbit_sums(s.terms).items()})


def _d_x(f: MultiPoly) -> MultiPoly:
    """Formal x-derivative sum_s u_(s+1) d/du_s, over f's variables h, u0, u1, ..."""
    vs = f.variables
    out: dict = {}
    for s in range(len(vs) - 2):
        # d/du_s times u_(s+1); u_s is vs[s + 1]
        for e, c in f.derivative(vs[s + 1]).terms.items():
            key = e[:s + 2] + (e[s + 2] + 1,) + e[s + 3:]
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return MultiPoly(vs, out)


def variational_derivative(d: MultiPoly) -> FourierSymbol:
    """sum_s (-d_x)^s d(phi)/du_s, computed in the u-representation by Horner's rule."""
    top = len(d.variables) - 2
    # (d_x)^s d/du_s reaches order top + s <= 2 top
    total = MultiPoly(_u_variables(2 * top))
    d = total + d
    for s in range(top, -1, -1):
        total = d.derivative(f"u{s}") - _d_x(total)
    return from_diff_poly(total)
