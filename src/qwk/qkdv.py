"""Quantum KdV Hamiltonian densities and the commutator engine.

The density H_d carries one term per genus grade g with m = d+2-2g slots and
coefficient

    (1/m!) * [z^(2g)]  S(a_1 z) ... S(a_m z) S((a_1+..+a_m) z) / S(z),

a symmetric polynomial of degree 2g in the slots.  The commutator engine
computes (L*R - R*L)/hbar_u for a density L and an integrated R, where * is
the normal-ordered star product

    f * g = f exp( sum_{k>0} hbar_u k  d/dp_k(left) d/dp_{-k}(right) ) g.

Striking q slots against each other turns the k-summation, constrained by
R's zero total mode to k_1+..+k_q = B (B = sum of R's surviving slots), into
the power-sum convolution C^r(N) evaluated at N := B.  The true operator
coefficient is E_fwd(B) on B>0 and -E_rev(-B) on B<0; these glue into the
single polynomial E_fwd because C^r has pure parity, and the engine asserts
the gluing for every term (BracketBranchError on violation) instead of
assuming it.

Each strike works on exponent tuples: both operands' terms are split into
(strike-mode exponents, survivor exponents, coefficient) triples, and one
double loop multiplies the splits grouped by strike-mode exponents, once per
branch with the signs swapped.

Budget-based truncation by hbar grade is mandatory: terms above the budget
are dropped eagerly, which keeps nested commutators desk-sized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import GaussRat, MultiPoly
from .special import ehrhart_convolution, power_of_sum, s_quotient_series, s_series_of
from .symbols import (DENSITY, INTEGRATED, FourierSymbol, SymbolTerm,
                      eval_string_point, make_term, slot_names)


class BracketBranchError(AssertionError):
    """Forward and reverse Ehrhart branches failed to glue into one polynomial."""


@dataclass(frozen=True)
class BracketBudget:
    """Drop every term whose hbar grade exceeds ``max_hbar_grade``."""

    max_hbar_grade: int

    def __post_init__(self):
        if self.max_hbar_grade < 0:
            raise ValueError("budget must be >= 0")


# ----------------------------------------------------------------------
# Hamiltonian densities

@lru_cache(maxsize=None)
def _hamiltonian_term(d: int, g: int) -> Optional[SymbolTerm]:
    m = d + 2 - 2 * g
    if m < 0:
        return None
    if g == 0:
        return make_term(0, m, Fraction(1, factorial(m)), blocks=(m,) if m else ())
    order = 2 * g
    slots = slot_names(m)
    prod = s_quotient_series(slots, order)
    if m:
        total = MultiPoly(slots, {tuple(int(i == j) for i in range(m)): 1 for j in range(m)})
        prod = prod * s_series_of(total, "z", order)
    coeff = prod.coeff_of_var_power("z", order) * Fraction(1, factorial(m))
    if coeff.is_zero():
        return None
    return make_term(g, m, coeff, blocks=(m,) if m else ())


def hamiltonian_density(d: int, max_grade: Optional[int] = None) -> FourierSymbol:
    """H_d at epsilon = 0; one term per genus grade with m = d+2-2g >= 0 slots."""
    if d < -1:
        raise ValueError("d must be >= -1")
    g_top = (d + 2) // 2
    if max_grade is not None:
        g_top = min(g_top, max_grade)
    terms = []
    for g in range(g_top + 1):
        t = _hamiltonian_term(d, g)
        if t is not None:
            terms.append(t)
    return FourierSymbol(DENSITY, tuple(terms))


def integrate_hamiltonian(h: FourierSymbol) -> FourierSymbol:
    """x-integration: flags the zero-total-mode constraint, terms unchanged."""
    if h.kind != DENSITY:
        raise ValueError("only a density can be integrated")
    return FourierSymbol(INTEGRATED, h.terms)


# ----------------------------------------------------------------------
# the commutator engine

def _strike_matrices(row_caps: Tuple[int, ...], col_caps: Tuple[int, ...], q: int):
    """All nonnegative len(rows) x len(cols) matrices with given total and margins capped."""
    cells = [(i, j) for i in range(len(row_caps)) for j in range(len(col_caps))]

    def rec(idx: int, remaining: int, rows: List[int], cols: List[int], acc: List[int]):
        if idx == len(cells):
            if remaining == 0:
                yield tuple(acc)
            return
        i, j = cells[idx]
        cap = min(remaining, row_caps[i] - rows[i], col_caps[j] - cols[j])
        for v in range(cap + 1):
            rows[i] += v
            cols[j] += v
            acc.append(v)
            yield from rec(idx + 1, remaining - v, rows, cols, acc)
            acc.pop()
            rows[i] -= v
            cols[j] -= v

    yield from rec(0, q, [0] * len(row_caps), [0] * len(col_caps), [])


def bracket(left: FourierSymbol, right: FourierSymbol, budget: BracketBudget) -> FourierSymbol:
    """(left * right - right * left) / hbar_u as a density symbol."""
    if left.kind != DENSITY:
        raise ValueError("left operand must be a density")
    if right.kind != INTEGRATED:
        raise ValueError("right operand must be integrated")
    gmax = budget.max_hbar_grade
    merged: Dict[Tuple[int, Tuple[int, ...]], Dict[tuple, GaussRat]] = {}

    for tl in left.terms:
        if tl.m == 0:
            continue
        phi = tl.coeff.with_variables(slot_names(tl.m)).terms
        for tr in right.terms:
            if tr.m == 0:
                continue
            psi = tr.coeff.with_variables(slot_names(tr.m)).terms
            q_cap = min(tl.m, tr.m, gmax + 1 - tl.grade - tr.grade)
            for q in range(1, q_cap + 1):
                grade = tl.grade + tr.grade + q - 1
                for mat in _strike_matrices(tl.blocks, tr.blocks, q):
                    _bracket_piece(merged, tl, tr, q, grade, mat, phi, psi)

    out_terms = []
    for (grade, blocks), terms in merged.items():
        m = sum(blocks)
        poly = MultiPoly(slot_names(m), terms)
        if poly.is_zero():
            continue
        out_terms.append(SymbolTerm(grade, m, poly, blocks))
    out_terms.sort(key=lambda t: (t.grade, t.m, t.blocks))
    return FourierSymbol(DENSITY, tuple(out_terms))


def _split(terms: Dict[tuple, GaussRat], struck: List[int], kept: List[int],
           sign: int) -> List[Tuple[Tuple[int, ...], tuple, GaussRat]]:
    """(k-exponents, survivor exponents, coefficient) per term.

    Struck slot ``struck[t]`` becomes the strike mode k_t, i.e. is replaced by
    ``sign * k_t``; the slots in ``kept`` survive in order.
    """
    out = []
    for exps, c in terms.items():
        k_exps = tuple(exps[p] for p in struck)
        if sign < 0 and sum(k_exps) % 2:
            c = -c
        out.append((k_exps, tuple(exps[p] for p in kept), c))
    return out


def _product_by_k(left, right) -> Dict[Tuple[int, ...], Dict[tuple, GaussRat]]:
    """The product of two splits times k_1...k_q, grouped by k-exponents."""
    out: Dict[Tuple[int, ...], Dict[tuple, GaussRat]] = {}
    for kl, rest_l, cl in left:
        for kr, rest_r, cr in right:
            bucket = out.setdefault(tuple(a + b + 1 for a, b in zip(kl, kr)), {})
            rest = rest_l + rest_r
            v = cl * cr
            prev = bucket.get(rest)
            s = prev + v if prev is not None else v
            if s:
                bucket[rest] = s
            elif prev is not None:
                del bucket[rest]
    return {k: bucket for k, bucket in out.items() if bucket}


def _bracket_piece(merged, tl, tr, q, grade, mat, phi, psi):
    nrows = len(tl.blocks)
    ncols = len(tr.blocks)
    rowsum = [0] * nrows
    colsum = [0] * ncols
    cell_count: Dict[Tuple[int, int], int] = {}
    for idx, v in enumerate(mat):
        if not v:
            continue
        i, j = divmod(idx, ncols)
        rowsum[i] += v
        colsum[j] += v
        cell_count[(i, j)] = v

    # prefactor: ordered position choices within blocks / cell multiplicities
    pref = Fraction(1)
    for i in range(nrows):
        pref *= perm(tl.blocks[i], rowsum[i])
    for j in range(ncols):
        pref *= perm(tr.blocks[j], colsum[j])
    for v in cell_count.values():
        pref /= factorial(v)

    # each block strikes its last rowsum/colsum slots; the cells take the
    # modes k_1..k_q in row-major order, so struck_l[t] and struck_r[t] are
    # the left and right slots struck against each other by k_t
    next_l = [sum(tl.blocks[:i + 1]) - rowsum[i] for i in range(nrows)]
    next_r = [sum(tr.blocks[:j + 1]) - colsum[j] for j in range(ncols)]
    struck_l: List[int] = []
    struck_r: List[int] = []
    for (i, j), v in cell_count.items():
        for _ in range(v):
            struck_l.append(next_l[i])
            struck_r.append(next_r[j])
            next_l[i] += 1
            next_r[j] += 1
    kept_l = [p for p in range(tl.m) if p not in struck_l]
    kept_r = [p for p in range(tr.m) if p not in struck_r]

    fwd = _product_by_k(_split(phi, struck_l, kept_l, 1), _split(psi, struck_r, kept_r, -1))
    if not fwd:
        return
    rev = _product_by_k(_split(phi, struck_l, kept_l, -1), _split(psi, struck_r, kept_r, 1))
    for k_exps in set(fwd) | set(rev):
        sign = (-1) ** (q + sum(k_exps))
        a = fwd.get(k_exps, {})
        b = rev.get(k_exps, {})
        for rest in set(a) | set(b):
            ca = a.get(rest, GaussRat(0))
            cb = b.get(rest, GaussRat(0))
            if ca != cb * sign:
                raise BracketBranchError(
                    f"branch mismatch at k-exponents {k_exps}: {ca} vs {cb}")

    # E_fwd(N) with N := sum of surviving right slots, via the Ehrhart convolution
    left_zeros = (0,) * len(kept_l)
    acc: Dict[tuple, GaussRat] = {}
    for k_exps, bucket in fwd.items():
        c_poly = ehrhart_convolution(k_exps).poly  # univariate in N
        for (n_exp,), cn in c_poly.terms.items():
            n_terms = [(left_zeros + e2, c2) for e2, c2 in
                       power_of_sum(slot_names(len(kept_r)), n_exp).terms.items()]
            for rest, c in bucket.items():
                base = c * cn
                for e2, c2 in n_terms:
                    e = tuple(a + b for a, b in zip(rest, e2))
                    v = base * c2
                    prev = acc.get(e)
                    s = prev + v if prev is not None else v
                    if s:
                        acc[e] = s
                    elif prev is not None:
                        del acc[e]
    if not acc:
        return

    # survivor exponents are laid out as the left survivors, then the right
    # survivors, each in slot order, which is exactly the canonical slot order
    # of new_blocks, so terms with equal (grade, blocks) merge by plain
    # exponent addition
    new_blocks = tuple(b for b in
                       [tl.blocks[i] - rowsum[i] for i in range(nrows)] +
                       [tr.blocks[j] - colsum[j] for j in range(ncols)] if b)
    bucket = merged.setdefault((grade, new_blocks), {})
    for e, c in acc.items():
        v = c * pref
        prev = bucket.get(e)
        s = prev + v if prev is not None else v
        if s:
            bucket[e] = s
        elif prev is not None:
            del bucket[e]


# ----------------------------------------------------------------------
# nested evaluation at the string point

def nested_bracket(d_list: Sequence[int], g: int) -> Dict[int, GaussRat]:
    """Evaluate [[..[H_{d_1-1}, Hbar_{d_2}].., Hbar_{d_n}]] at the string point.

    Returns the map hbar-grade -> value for grades up to the budget g.
    """
    d_list = tuple(d_list)
    if not d_list:
        raise ValueError("empty insertion list")
    if any(d < 0 for d in d_list):
        raise ValueError("insertions must be >= 0")
    if g < 0:
        raise ValueError("genus grade must be >= 0")
    budget = BracketBudget(g)
    current = hamiltonian_density(d_list[0] - 1, max_grade=g)
    for d in d_list[1:]:
        right = integrate_hamiltonian(hamiltonian_density(d, max_grade=g))
        current = bracket(current, right, budget)
    return eval_string_point(current)


# ----------------------------------------------------------------------
# finite-mode Weyl-algebra oracle
#
# Elements of the truncated algebra are polynomials in p_{-M}..p_M graded by
# hbar_u, stored as {(grade, exponent tuple): coefficient}.  The star product
# is evaluated directly from its derivative expansion, which is exactly the
# normal-ordered product for polynomials supported on modes |a| <= M.

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
        coeff = t.coeff.with_variables(vs)
        for assign in itertools.product(range(-mode_bound, mode_bound + 1), repeat=t.m):
            if s.kind == INTEGRATED and sum(assign) != 0:
                continue
            val = coeff.evaluate(dict(zip(vs, assign)))
            if not val:
                continue
            e = [0] * width
            for a in assign:
                e[mode_bound + a] += 1
            _wp_add_into(out, (t.grade, tuple(e)), val)
    return out


def monomial_mode_sum(e: Tuple[int, ...], mode_bound: int) -> int:
    return sum(abs(i - mode_bound) * x for i, x in enumerate(e) if x)
