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
Blocks let the commutator engine count its strikes per block (and let
``d_dp0`` and ``mode_derivative_zero_mode`` drop one slot per block); the
symmetric side never looks at them.  It reads a coefficient through its
*orbit sums*, the coefficients summed per sorted exponent tuple.  A symmetric
coefficient is fixed by them: they are its coordinates in the monomial
symmetric basis m_lambda (Macdonald, ch. I), times the orbit sizes.  So
``symmetrize`` spreads each sum evenly over its orbit, ``symbols_equal``
compares the sums, and the u-representation conversions read or write one
orbit per monomial u_{s_1}...u_{s_n}.  No step enumerates slot permutations.

A term's coefficient is always a polynomial over exactly the slot variables
a1..am, in that order (``SymbolTerm`` refuses anything else), so exponent
tuples are positional: entry j is the exponent of slot j, block by block,
left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .algebra import I_POWERS, GaussRat, I, MultiPoly
from .special import power_of_sum, rearrangements, slot_names

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

def _orbit_sums(terms: Iterable[SymbolTerm]) -> Dict[Tuple[int, Tuple[int, ...]], GaussRat]:
    """Coefficients summed per (grade, sorted exponent tuple); zero sums dropped.

    These sums are the coordinates of the symmetrized coefficients in the
    monomial symmetric basis m_lambda, each scaled by its orbit size.
    """
    acc: dict = {}
    for t in terms:
        for exps, c in t.coeff.terms.items():
            key = (t.grade, tuple(sorted(exps)))
            prev = acc.get(key)
            acc[key] = prev + c if prev is not None else c
    return {k: c for k, c in acc.items() if c}


def _spread(grade: int, m: int, sums: Mapping[Tuple[int, ...], GaussRat]) -> SymbolTerm:
    """The fully symmetric term whose orbit sums are ``sums``."""
    terms = {}
    for canon, c in sums.items():
        orbit = tuple(rearrangements(canon))
        share = c / len(orbit)
        for e in orbit:
            terms[e] = share
    return SymbolTerm(grade, m, MultiPoly(slot_names(m), terms, _normalized=True),
                      (m,) if m else ())


def symmetrize_term(t: SymbolTerm) -> SymbolTerm:
    """Average the coefficient over all slot permutations (orbit by orbit)."""
    if t.m <= 1 or t.blocks == (t.m,):
        return SymbolTerm(t.grade, t.m, t.coeff, (t.m,) if t.m else ())
    return _spread(t.grade, t.m, {canon: c for (_, canon), c in _orbit_sums((t,)).items()})


def symmetrize(s: FourierSymbol) -> FourierSymbol:
    """Canonical form: fully symmetric coefficients, merged by (grade, slots)."""
    return FourierSymbol(s.kind, _merge_terms(tuple(symmetrize_term(t) for t in s.terms)))


def symbols_equal(a: FourierSymbol, b: FourierSymbol) -> bool:
    return a.kind == b.kind and _orbit_sums(a.terms) == _orbit_sums(b.terms)


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
            out[t.grade] = out.get(t.grade, GaussRat(0)) + c * I_POWERS[-t.m % 4]
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
