"""Formal Fourier symbols and the operations the engine applies to them.

A density symbol stands for

    sum_m  sum_{a in Z^m}  hbar_u^g * phi_m(a_1..a_m) * p_{a_1}...p_{a_m} * e^{i x (a_1+..+a_m)}

where hbar_u denotes the grading unit i*hbar, and each phi_m is a polynomial
in the slot variables a1..am.  An integrated symbol carries the additional
constraint that the total mode a_1+..+a_m vanishes (the stored polynomials do
not change).

Terms keep a *block* structure: the slot variables are grouped into
consecutive blocks and the coefficient is only required to be symmetric
within each block.  Fully symmetric coefficients are the single-block case.
Blocks let the commutator engine count its strikes per block (and let the
mode derivatives of ``qwk.diffpoly`` drop one slot per block); the
symmetric side never looks at them.  It reads a coefficient through its
*orbit sums*, the coefficients summed per sorted exponent tuple.  A symmetric
coefficient is fixed by them: they are its coordinates in the monomial
symmetric basis m_lambda (Macdonald, ch. I), times the orbit sizes.  So
``symmetrize`` spreads each sum evenly over its orbit, ``symbols_equal``
compares the sums, and the u-representation conversions of ``qwk.diffpoly``
read or write one orbit per monomial u_{s_1}...u_{s_n}.  No step enumerates
slot permutations.

A term's coefficient is always a polynomial over exactly the slot variables
a1..am, in that order (``SymbolTerm`` refuses anything else), so exponent
tuples are positional: entry j is the exponent of slot j, block by block,
left to right.

Contents:

  * ``SymbolTerm`` and ``FourierSymbol``, immutable values, with
    ``make_term``, ``density`` and ``u0_symbol`` to build them;
  * ``symmetrize``, ``symmetrize_term`` and ``symbols_equal``, through the
    orbit sums;
  * ``d_x``, the x-derivative, and ``eval_string_point``, the value at
    u_i = delta_(i,1), which reads one coefficient per term.

The u-representation (``DiffPoly``, the conversions, the variational
derivative) and the mode derivatives ``d_dp0`` and
``mode_derivative_zero_mode`` serve the identity checks and the tests; they
live in ``qwk.diffpoly``, which the engine never imports.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .algebra import I_POWERS, GaussRat, I, MultiPoly, Record
from .special import power_of_sum, rearrangements, slot_names

DENSITY = "density"
INTEGRATED = "integrated"


class SymbolTerm(Record):
    """One graded term: hbar-grade, slot count, block sizes, coefficient polynomial."""

    __slots__ = ("grade", "m", "coeff", "blocks")

    def __init__(self, grade: int, m: int, coeff: MultiPoly, blocks: Tuple[int, ...]):
        if grade < 0 or m < 0:
            raise ValueError("grade and slot count must be >= 0")
        if sum(blocks) != m:
            raise ValueError("blocks must partition the slots")
        if coeff.variables != slot_names(m):
            raise ValueError(f"coefficient variables {coeff.variables} "
                             f"are not the slots a1..a{m}")
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "blocks", blocks)


def make_term(grade: int, m: int, coeff, blocks: Optional[Sequence[int]] = None) -> SymbolTerm:
    """Build a term from a scalar or a polynomial over a1..am.  ``blocks`` promises
    within-block symmetry of the coefficient; when omitted, no symmetry is
    assumed (singleton blocks)."""
    if not isinstance(coeff, MultiPoly):
        coeff = MultiPoly.const(coeff, slot_names(m))
    if blocks is None:
        blocks = (1,) * m
    return SymbolTerm(grade, m, coeff, tuple(b for b in blocks if b))


class FourierSymbol(Record):
    """A density or integrated symbol: its kind and its terms."""

    __slots__ = ("kind", "terms")

    def __init__(self, kind: str, terms: Tuple[SymbolTerm, ...]):
        if kind not in (DENSITY, INTEGRATED):
            raise ValueError(f"unknown kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "terms", terms)

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


def _is_canonical(s: FourierSymbol) -> bool:
    """Every term one block, (grade, slots) distinct and sorted, no zero coefficient."""
    prev = None
    for t in s.terms:
        key = (t.grade, t.m)
        if (t.blocks != ((t.m,) if t.m else ()) or t.coeff.is_zero()
                or (prev is not None and key <= prev)):
            return False
        prev = key
    return True


def symmetrize(s: FourierSymbol) -> FourierSymbol:
    """Canonical form: fully symmetric coefficients, merged by (grade, slots).

    A symbol already in that form, such as a Hamiltonian, comes back as is.
    """
    if _is_canonical(s):
        return s
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
