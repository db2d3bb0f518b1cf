"""The finite-mode Weyl-algebra oracle for the commutator engine.

Elements of the truncated algebra are polynomials in p_{-M}..p_M graded by
hbar_u, stored as {(grade, exponent tuple): coefficient}.  The star product
is evaluated directly from its derivative expansion, which is exactly the
normal-ordered product for polynomials supported on modes |a| <= M.  So
``weyl_commutator_over_hbar`` of two symbols put on explicit p-monomials
(``symbol_to_weyl``) must equal ``qkdv.bracket`` put on them, on every
monomial whose mode sum stays within M (``monomial_mode_sum``).

Nothing on the engine path imports this module: the tests and
``qwk verify bracket-oracle`` do.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Dict, Tuple

from .algebra import GaussRat
from .special import slot_names
from .symbols import INTEGRATED, FourierSymbol

WeylPoly = Dict[Tuple[int, Tuple[int, ...]], GaussRat]


def _wp_add_into(target: WeylPoly, key, c):
    prev = target.get(key)
    s = prev + c if prev is not None else c
    if s:
        target[key] = s
    elif prev is not None:
        del target[key]


def weyl_mul(a: WeylPoly, b: WeylPoly) -> WeylPoly:
    out: WeylPoly = {}
    for (ga, ea), ca in a.items():
        for (gb, eb), cb in b.items():
            key = (ga + gb, tuple(x + y for x, y in zip(ea, eb)))
            _wp_add_into(out, key, ca * cb)
    return out


def weyl_derivative(f: WeylPoly, mode_index: int) -> WeylPoly:
    out: WeylPoly = {}
    for (g, e), c in f.items():
        x = e[mode_index]
        if not x:
            continue
        e2 = list(e)
        e2[mode_index] -= 1
        _wp_add_into(out, (g, tuple(e2)), c * x)
    return out


def weyl_star(f: WeylPoly, g: WeylPoly, mode_bound: int) -> WeylPoly:
    """f * g from the derivative expansion; exact for mode support <= mode_bound."""
    out: WeylPoly = dict(weyl_mul(f, g))
    max_q = max((sum(e) for _, e in f.keys()), default=0)
    for q in range(1, max_q + 1):
        layer: WeylPoly = {}
        for ks in itertools.combinations_with_replacement(range(1, mode_bound + 1), q):
            weight = Fraction(1)
            for k in set(ks):
                weight /= factorial(ks.count(k))
            for k in ks:
                weight *= k
            fd = f
            gd = g
            for k in ks:
                fd = weyl_derivative(fd, mode_bound + k)
                if not fd:
                    break
                gd = weyl_derivative(gd, mode_bound - k)
                if not gd:
                    break
            else:
                for key, c in weyl_mul(fd, gd).items():
                    _wp_add_into(layer, key, c * weight)
        for (grade, e), c in layer.items():
            _wp_add_into(out, (grade + q, e), c)
    return out


def weyl_commutator_over_hbar(f: WeylPoly, g: WeylPoly, mode_bound: int) -> WeylPoly:
    """(f*g - g*f)/hbar_u; the grade-0 layer cancels exactly."""
    fg = weyl_star(f, g, mode_bound)
    gf = weyl_star(g, f, mode_bound)
    out: WeylPoly = {}
    for key, c in fg.items():
        _wp_add_into(out, key, c)
    for key, c in gf.items():
        _wp_add_into(out, key, -c)
    shifted: WeylPoly = {}
    for (grade, e), c in out.items():
        if grade == 0:
            raise AssertionError("commutator kept a grade-0 term")
        shifted[(grade - 1, e)] = c
    return shifted


def symbol_to_weyl(s: FourierSymbol, mode_bound: int) -> WeylPoly:
    """Evaluate a symbol on explicit p-monomials with modes in [-M, M]."""
    width = 2 * mode_bound + 1
    out: WeylPoly = {}
    for t in s.terms:
        vs = slot_names(t.m)
        for assign in itertools.product(range(-mode_bound, mode_bound + 1), repeat=t.m):
            if s.kind == INTEGRATED and sum(assign) != 0:
                continue
            val = t.coeff.evaluate(dict(zip(vs, assign)))
            if not val:
                continue
            e = [0] * width
            for a in assign:
                e[mode_bound + a] += 1
            _wp_add_into(out, (t.grade, tuple(e)), val)
    return out


def monomial_mode_sum(e: Tuple[int, ...], mode_bound: int) -> int:
    return sum(abs(i - mode_bound) * x for i, x in enumerate(e) if x)
