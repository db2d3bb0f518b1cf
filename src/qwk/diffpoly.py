"""Differential polynomials in the u-representation, and the mode derivatives.

A ``DiffPoly`` is a finite combination of monomials u_{s_1}...u_{s_n} hbar_u^g
with u_s the s-th x-derivative of u.  The Fourier substitution
u_s = sum_a (i a)^s p_a e^{iax} turns it into a density symbol
(``from_diff_poly``), one orbit of slot exponents per monomial, and
``to_diff_poly`` reads a finitely supported symbol back through its orbit
sums.  ``variational_derivative`` is sum_s (-d_x)^s d/du_s, computed on the
u-side; ``mode_derivative_zero_mode`` is its mode-derivative side, computed
slotwise, and ``d_dp0`` the mode derivative at p_0.  Both mode derivatives
drop one slot per block of a term.

Nothing on the engine path imports this module: the identity checks
(``qwk.identities``) and the tests do.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from .algebra import I_POWERS, GaussRat, MultiPoly
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

class DiffPoly:
    """Finite C-linear combination of monomials u_{s_1}...u_{s_n} * hbar_u^g.

    Keys are (sorted tuple of derivative orders, grade).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Tuple[Tuple[int, ...], int], GaussRat]] = None):
        clean = {}
        if terms:
            for (orders, g), c in terms.items():
                c = c if isinstance(c, GaussRat) else GaussRat(c)
                if c:
                    key = (tuple(sorted(orders)), g)
                    prev = clean.get(key)
                    s = prev + c if prev is not None else c
                    if s:
                        clean[key] = s
                    elif key in clean:
                        del clean[key]
        self.terms = clean

    def __eq__(self, other):
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, GaussRat(0)) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        d = DiffPoly()
        d.terms = out
        return d

    def scale(self, c) -> "DiffPoly":
        c = c if isinstance(c, GaussRat) else GaussRat(c)
        d = DiffPoly()
        if c:
            d.terms = {k: v * c for k, v in self.terms.items()}
        return d

    def du(self, s: int) -> "DiffPoly":
        """Partial derivative with respect to u_s."""
        out: dict = {}
        for (orders, g), c in self.terms.items():
            mult = orders.count(s)
            if not mult:
                continue
            rest = list(orders)
            rest.remove(s)
            key = (tuple(rest), g)
            v = c * mult
            prev = out.get(key)
            out[key] = prev + v if prev is not None else v
        d = DiffPoly()
        d.terms = {k: v for k, v in out.items() if v}
        return d

    def d_x(self) -> "DiffPoly":
        """Formal x-derivative: Leibniz with d_x u_s = u_{s+1}."""
        out = DiffPoly()
        for (orders, g), c in self.terms.items():
            for j in range(len(orders)):
                bumped = list(orders)
                bumped[j] += 1
                out = out + DiffPoly({(tuple(bumped), g): c})
        return out

    def max_order(self) -> int:
        return max((max(o) for o, _ in self.terms if o), default=-1)

    def __repr__(self):
        parts = []
        for (orders, g), c in sorted(self.terms.items()):
            mono = "*".join(f"u{s}" for s in orders) or "1"
            grade = f"*h^{g}" if g else ""
            parts.append(f"({c.to_str()})*{mono}{grade}")
        return " + ".join(parts) or "0"


def from_diff_poly(d: DiffPoly) -> FourierSymbol:
    """Fourier substitution u_s = sum (i a)^s p_a e^{iax}, symmetrized."""
    return FourierSymbol(DENSITY, _merge_terms(tuple(
        _spread(g, len(orders), {orders: c * I_POWERS[sum(orders) % 4]})
        for (orders, g), c in d.terms.items())))


def to_diff_poly(s: FourierSymbol) -> DiffPoly:
    """Inverse of ``from_diff_poly`` on finitely supported symbols."""
    if s.kind != DENSITY:
        raise ValueError("conversion applies to density symbols")
    return DiffPoly({(canon, g): c * I_POWERS[-sum(canon) % 4]
                     for (g, canon), c in _orbit_sums(s.terms).items()})


def variational_derivative(d: DiffPoly) -> FourierSymbol:
    """sum_s (-d_x)^s d(phi)/du_s, computed in the u-representation."""
    total = DiffPoly()
    for s in range(d.max_order() + 1):
        g = d.du(s)
        if g.is_zero():
            continue
        for _ in range(s):
            g = g.d_x()
        total = total + (g if s % 2 == 0 else g.scale(-1))
    return from_diff_poly(total)
