"""The finite-mode Weyl-algebra oracle for the commutator engine.

Elements of the truncated algebra are MultiPolys over h, p_-M, ..., p_M,
with h's exponent the hbar_u grade.  The star product is evaluated directly
from its derivative expansion, which is exactly the normal-ordered product
for polynomials supported on modes |a| <= M.  So
``weyl_commutator_over_hbar`` of two symbols put on explicit p-monomials
(``symbol_to_weyl``) must equal ``qkdv.bracket`` put on them, on every
monomial whose mode sum stays within M (``monomial_mode_sum`` of the
p-exponents, an exponent tuple's ``[1:]``).

Nothing on the engine path imports this module: the tests and
``qwk verify bracket-oracle`` do.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Tuple

from .algebra import MultiPoly
from .special import slot_names
from .symbols import INTEGRATED, FourierSymbol


def _variables(mode_bound: int) -> Tuple[str, ...]:
    """h, p-M, ..., pM: an element's variables, p_a at position mode_bound + 1 + a."""
    return ("h",) + tuple(f"p{a}" for a in range(-mode_bound, mode_bound + 1))


def weyl_star(f: MultiPoly, g: MultiPoly, mode_bound: int) -> MultiPoly:
    """f * g from the derivative expansion; exact for mode support <= mode_bound."""
    out = dict((f * g).terms)
    max_q = max((sum(e[1:]) for e in f.terms), default=0)
    for q in range(1, max_q + 1):
        for ks in itertools.combinations_with_replacement(range(1, mode_bound + 1), q):
            weight = Fraction(1)
            for k in set(ks):
                weight /= factorial(ks.count(k))
            for k in ks:
                weight *= k
            fd = f
            gd = g
            for k in ks:
                fd = fd.derivative(f"p{k}")
                if fd.is_zero():
                    break
                gd = gd.derivative(f"p{-k}")
                if gd.is_zero():
                    break
            else:
                for e, c in (fd * gd).terms.items():
                    key = (e[0] + q,) + e[1:]
                    prev = out.get(key)
                    out[key] = c * weight if prev is None else prev + c * weight
    return MultiPoly(f.variables, {e: c for e, c in out.items() if c}, _normalized=True)


def weyl_commutator_over_hbar(f: MultiPoly, g: MultiPoly, mode_bound: int) -> MultiPoly:
    """(f*g - g*f)/hbar_u; the grade-0 layer cancels exactly."""
    diff = weyl_star(f, g, mode_bound) - weyl_star(g, f, mode_bound)
    if any(e[0] == 0 for e in diff.terms):
        raise AssertionError("commutator kept a grade-0 term")
    return MultiPoly(diff.variables, {(e[0] - 1,) + e[1:]: c for e, c in diff.terms.items()},
                     _normalized=True)


def symbol_to_weyl(s: FourierSymbol, mode_bound: int) -> MultiPoly:
    """Evaluate a symbol on explicit p-monomials with modes in [-M, M]."""
    out: dict = {}
    for t in s.terms:
        vs = slot_names(t.m)
        for assign in itertools.product(range(-mode_bound, mode_bound + 1), repeat=t.m):
            if s.kind == INTEGRATED and sum(assign) != 0:
                continue
            val = t.coeff.evaluate(dict(zip(vs, assign)))
            if not val:
                continue
            e = [t.grade] + [0] * (2 * mode_bound + 1)
            for a in assign:
                e[mode_bound + 1 + a] += 1
            key = tuple(e)
            prev = out.get(key)
            out[key] = val if prev is None else prev + val
    return MultiPoly(_variables(mode_bound), {e: c for e, c in out.items() if c},
                     _normalized=True)


def monomial_mode_sum(e: Tuple[int, ...], mode_bound: int) -> int:
    """Sum of |a| over the modes of p-exponents ``e`` (p_-M first)."""
    return sum(abs(i - mode_bound) * x for i, x in enumerate(e) if x)
