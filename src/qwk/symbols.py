"""Formal Fourier symbols (differential polynomials) and their basic derivations.

A density symbol stands for

    sum_m  sum_{a in Z^m}  hbar_u^g * phi_m(a_1..a_m) * p_{a_1}...p_{a_m} * e^{i x (a_1+..+a_m)}

where hbar_u denotes the grading unit i*hbar, and each phi_m is a polynomial
in the slot variables a1..am.  An integrated symbol carries the additional
constraint that the total mode a_1+..+a_m vanishes (the stored polynomials do
not change).

Terms keep a *block* structure: the slot variables are grouped into
consecutive blocks and the coefficient is only required to be symmetric
within each block.  Fully symmetric coefficients are the single-block case.
Deferring full symmetrization keeps the commutator engine polynomial-sized;
``symmetrize`` canonicalizes when equality of symbols actually matters.

A term's coefficient is always a polynomial over exactly the slot variables
a1..am, in that order (``SymbolTerm`` refuses anything else), so exponent
tuples are positional: entry j is the exponent of slot j, block by block,
left to right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .algebra import GaussRat, I, MultiPoly
from .special import power_of_sum, slot_names

DENSITY = "density"
INTEGRATED = "integrated"


@dataclass(frozen=True)
class SymbolTerm:
    """One graded term: hbar-grade, slot count, block sizes, coefficient polynomial."""

    grade: int
    m: int
    coeff: MultiPoly
    blocks: Tuple[int, ...]

    def __post_init__(self):
        if self.grade < 0 or self.m < 0:
            raise ValueError("grade and slot count must be >= 0")
        if sum(self.blocks) != self.m:
            raise ValueError("blocks must partition the slots")
        if self.coeff.variables != slot_names(self.m):
            raise ValueError(f"coefficient variables {self.coeff.variables} "
                             f"are not the slots a1..a{self.m}")


def make_term(grade: int, m: int, coeff, blocks: Optional[Sequence[int]] = None) -> SymbolTerm:
    """Build a term from a scalar or a polynomial over a1..am.  ``blocks`` promises
    within-block symmetry of the coefficient; when omitted, no symmetry is
    assumed (singleton blocks)."""
    if not isinstance(coeff, MultiPoly):
        coeff = MultiPoly.const(coeff, slot_names(m))
    if blocks is None:
        blocks = (1,) * m
    return SymbolTerm(grade, m, coeff, tuple(b for b in blocks if b))


@dataclass(frozen=True)
class FourierSymbol:
    kind: str
    terms: Tuple[SymbolTerm, ...]

    def __post_init__(self):
        if self.kind not in (DENSITY, INTEGRATED):
            raise ValueError(f"unknown kind {self.kind!r}")

    def is_zero(self) -> bool:
        return all(t.coeff.is_zero() for t in self.terms)

    def max_grade(self) -> int:
        return max((t.grade for t in self.terms), default=-1)

    def __add__(self, other: "FourierSymbol") -> "FourierSymbol":
        if self.kind != other.kind:
            raise ValueError("cannot add symbols of different kinds")
        return FourierSymbol(self.kind, _merge_terms(self.terms + other.terms))

    def scale(self, c) -> "FourierSymbol":
        return FourierSymbol(self.kind,
                             tuple(SymbolTerm(t.grade, t.m, t.coeff * c, t.blocks)
                                   for t in self.terms))

    def to_json(self) -> list:
        """Debug serialization: term list with grade, slots, canonical coefficient text."""
        out = []
        for t in sorted(self.terms, key=lambda t: (t.grade, t.m, t.blocks)):
            mono = {}
            for exps, c in sorted(t.coeff.terms.items()):
                key = "*".join(f"{v}^{e}" if e > 1 else v
                               for v, e in zip(t.coeff.variables, exps) if e) or "1"
                mono[key] = c.to_str()
            out.append({"grade": t.grade, "slots": t.m,
                        "blocks": list(t.blocks), "coeff": mono})
        return out


def density(terms: Iterable[SymbolTerm]) -> FourierSymbol:
    return FourierSymbol(DENSITY, _merge_terms(tuple(terms)))


def u0_symbol() -> FourierSymbol:
    """The symbol of u_0: one slot, coefficient 1."""
    return density([make_term(0, 1, 1)])


def _merge_terms(terms: Tuple[SymbolTerm, ...]) -> Tuple[SymbolTerm, ...]:
    merged: Dict[Tuple[int, int, Tuple[int, ...]], MultiPoly] = {}
    for t in terms:
        if t.coeff.is_zero():
            continue
        key = (t.grade, t.m, t.blocks)
        if key in merged:
            merged[key] = merged[key] + t.coeff
        else:
            merged[key] = t.coeff
    out = []
    for (g, m, blocks), coeff in merged.items():
        if not coeff.is_zero():
            out.append(SymbolTerm(g, m, coeff, blocks))
    out.sort(key=lambda t: (t.grade, t.m, t.blocks))
    return tuple(out)


# ----------------------------------------------------------------------
# symmetrization

@lru_cache(maxsize=None)
def _block_cosets(blocks: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Position assignments realizing each coset of the block stabilizer.

    Each entry is a tuple ``perm`` with perm[slot_index] = target position,
    enumerating the m!/prod(c_b!) ways to scatter the blocks over positions.
    """
    m = sum(blocks)
    positions = tuple(range(m))

    def rec(remaining: Tuple[int, ...], bs: Tuple[int, ...]):
        if not bs:
            yield ()
            return
        for chosen in itertools.combinations(remaining, bs[0]):
            rest = tuple(x for x in remaining if x not in chosen)
            for tail in rec(rest, bs[1:]):
                yield chosen + tail

    return tuple(rec(positions, blocks))


def _apply_position_map(coeff: MultiPoly, m: int, perm: Tuple[int, ...]) -> dict:
    out = {}
    for exps, c in coeff.terms.items():
        e = [0] * m
        for j, x in enumerate(exps):
            if x:
                e[perm[j]] = x
        key = tuple(e)
        if key in out:
            out[key] = out[key] + c
        else:
            out[key] = c
    return out


def symmetrize_term(t: SymbolTerm) -> SymbolTerm:
    """Average the coefficient over all slot permutations (via block cosets)."""
    if t.m <= 1 or t.blocks == (t.m,):
        return SymbolTerm(t.grade, t.m, t.coeff, (t.m,) if t.m else ())
    cosets = _block_cosets(t.blocks)
    acc: dict = {}
    for perm in cosets:
        for e, c in _apply_position_map(t.coeff, t.m, perm).items():
            if e in acc:
                acc[e] = acc[e] + c
            else:
                acc[e] = c
    scale = Fraction(1, len(cosets))
    poly = MultiPoly(t.coeff.variables, {e: c * scale for e, c in acc.items()})
    return SymbolTerm(t.grade, t.m, poly, (t.m,))


def symmetrize(s: FourierSymbol) -> FourierSymbol:
    """Canonical form: fully symmetric coefficients, merged by (grade, slots)."""
    return FourierSymbol(s.kind, _merge_terms(tuple(symmetrize_term(t) for t in s.terms)))


def symbols_equal(a: FourierSymbol, b: FourierSymbol) -> bool:
    if a.kind != b.kind:
        return False
    ta = {(t.grade, t.m): t.coeff for t in symmetrize(a).terms}
    tb = {(t.grade, t.m): t.coeff for t in symmetrize(b).terms}
    if set(ta) != set(tb):
        return False
    return all(ta[k] == tb[k] for k in ta)


# ----------------------------------------------------------------------
# derivations and evaluation

def d_x(s: FourierSymbol) -> FourierSymbol:
    """x-derivative: multiplies each term's coefficient by i*(a_1+..+a_m)."""
    if s.kind != DENSITY:
        raise ValueError("d_x applies to density symbols")
    out = []
    for t in s.terms:
        if t.m == 0:
            continue
        out.append(SymbolTerm(t.grade, t.m, t.coeff * (power_of_sum(t.m, 1) * I), t.blocks))
    return FourierSymbol(DENSITY, _merge_terms(tuple(out)))


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


def eval_string_point(s: FourierSymbol) -> Dict[int, GaussRat]:
    """Evaluate at u_i = delta_{i,1}: per grade, sum of (-i)^m [a_1...a_m] coeff."""
    if s.kind != DENSITY:
        raise ValueError("string-point evaluation applies to density symbols")
    out: Dict[int, GaussRat] = {}
    for t in s.terms:
        c = t.coeff.terms.get((1,) * t.m)
        if c is not None:
            out[t.grade] = out.get(t.grade, GaussRat(0)) + c * (-I) ** t.m
    return {g: c for g, c in out.items() if c}


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
    terms = []
    for (orders, g), c in d.terms.items():
        m = len(orders)
        vs = slot_names(m)
        acc: dict = {}
        perms = set(itertools.permutations(orders))
        for p in perms:
            e = tuple(p)
            acc[e] = acc.get(e, GaussRat(0)) + c
        # distinct arrangements carry weight (prod mult!)/m!; i^(sum s) from (ia)^s
        weight = Fraction(1)
        for s in set(orders):
            weight *= factorial(orders.count(s))
        weight = Fraction(weight, factorial(m)) if m else Fraction(1)
        phase = I ** sum(orders)
        poly = MultiPoly(vs, {e: v * weight * phase for e, v in acc.items()})
        terms.append(SymbolTerm(g, m, poly, (m,) if m else ()))
    return FourierSymbol(DENSITY, _merge_terms(tuple(terms)))


def to_diff_poly(s: FourierSymbol) -> DiffPoly:
    """Inverse of ``from_diff_poly`` on finitely supported symbols."""
    if s.kind != DENSITY:
        raise ValueError("conversion applies to density symbols")
    out = DiffPoly()
    for t in symmetrize(s).terms:
        done = set()
        for exps in t.coeff.terms:
            canon = tuple(sorted(exps))
            if canon in done:
                continue
            done.add(canon)
            gamma = t.coeff.terms[canon]  # symmetric: any orbit member carries gamma
            arrangements = Fraction(factorial(t.m))
            for v in set(canon):
                arrangements /= factorial(canon.count(v))
            val = gamma * arrangements * (-I) ** sum(canon)
            out = out + DiffPoly({(canon, t.grade): val})
    return out


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
