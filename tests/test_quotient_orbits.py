"""The orbit builds of the quotient, the densities and the Hurwitz read.

``special.s_quotient`` and ``qkdv._hamiltonian_term`` write one closed-form
coefficient per sorted exponent tuple, and ``hurwitz.hurwitz_correlator``
sums the closed coefficients it reads.  The oracles below are the builds
they replaced, kept here as the slow paths: the quotient as a product of
truncated series, a density as the quotient with its last slot replaced by
the sum of the others, and a Hurwitz correlator as one coefficient of the
full product of the quotient with the power of the sum.  A density built on
demand is checked against the full one.
"""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from qwk.algebra import MultiPoly
from qwk.hurwitz import hurwitz_correlator
from qwk.qkdv import LEFT, RIGHT, _hamiltonian_term, hamiltonian_density
from qwk.series import s_series, s_series_of, series_inverse, series_product
import qwk.hurwitz
from qwk.special import (power_of_sum, rearrangements, s_quotient, slot_names,
                         sorted_exponents)
from qwk.symbols import make_term
from qwk.cli import _grid_keys
from test_acceptance import theorem_grid
from test_algebra import coeff_extract


def _s_quotient_by_series_product(g, n):
    """[z^(2g)] of 1/S(z) times S(a_i z) for each slot, one series product per slot."""
    slots = slot_names(n)
    prod = [MultiPoly.const(c, slots) for c in series_inverse(s_series(2 * g))]
    for name in slots:
        prod = series_product(prod, s_series_of(MultiPoly.var(name, slots), 2 * g))
    return prod[2 * g]


def _density_term_by_substitution(d, g):
    """Q_g(a_1..a_m, a_1+..+a_m) / m! by substituting the sum into the last slot."""
    m = d + 2 - 2 * g
    if m < 0:
        return None
    coeff = _s_quotient_by_series_product(g, m + 1).substitute(f"a{m + 1}", power_of_sum(m, 1))
    if coeff.is_zero():
        return None
    return make_term(g, m, coeff * Fraction(1, factorial(m)), blocks=(m,))


def _hurwitz_correlator_by_product(d, g, products):
    """The signed d-coefficient of Q_g times (sum a)^(2g-3+n), from the full product.

    ``products`` keeps each (g, n) product, built once for the keys that share it.
    """
    n = len(d)
    total = sum(d)
    if (total - n) % 2 == 0 or not 2 * g - 3 + n <= total <= 4 * g - 3 + n:
        return Fraction(0)
    if (g, n) not in products:
        products[g, n] = s_quotient(g, n) * power_of_sum(n, 2 * g - 3 + n)
    c = coeff_extract(products[g, n], dict(zip(slot_names(n), d)))
    assert c.is_real()
    return c.re * (-1) ** ((4 * g - 3 + n - total) // 2)


def test_orbit_primitive_against_brute_force():
    for n in range(7):
        for total in range(9):
            expect = sorted({tuple(sorted(e))
                             for e in itertools.product(range(total + 1), repeat=n)
                             if sum(e) == total})
            got = list(sorted_exponents(n, total))
            assert got == expect, (n, total)
            # the bounds a demanded density passes: at least min_ones ones, at
            # most max_big exponents of 2 or more; a negative min_ones binds nothing
            for min_ones in range(-1, n + 1):
                for max_big in (None, *range(n + 1)):
                    bounded = [e for e in expect if e.count(1) >= min_ones
                               and (max_big is None or sum(x > 1 for x in e) <= max_big)]
                    assert list(sorted_exponents(n, total, min_ones, max_big)) == bounded, \
                        (n, total, min_ones, max_big)
            for canon in got:
                orbit = list(rearrangements(canon))
                assert len(orbit) == len(set(orbit))
                assert set(orbit) == set(itertools.permutations(canon))


def test_s_quotient_matches_series_product():
    for g in range(5):
        for n in range(9):
            got, expect = s_quotient(g, n), _s_quotient_by_series_product(g, n)
            assert got.variables == expect.variables, (g, n)
            assert got.terms == expect.terms, (g, n)


def test_density_terms_match_substitution():
    keys = [(d, g) for d in range(-1, 13) for g in range(4)] + [(12, 4), (14, 4)]
    for d, g in keys:
        got, expect = _hamiltonian_term(d, g), _density_term_by_substitution(d, g)
        if expect is None:
            assert got is None, (d, g)
            continue
        assert (got.grade, got.m, got.blocks) == (expect.grade, expect.m, expect.blocks), (d, g)
        assert got.coeff.variables == expect.coeff.variables, (d, g)
        assert got.coeff.terms == expect.coeff.terms, (d, g)


def test_demanded_density_is_full_density_restricted():
    # the term of grade t keeps exactly the monomials with at most bound - t
    # exponents off target, in the full term's order, and is dropped when none
    # is left; the bounds run past every grade's slot count, so past the clamp
    restricted = 0
    for d in range(-1, 17):
        full = {t.grade: t for t in hamiltonian_density(d, max_grade=6).terms}
        for target in (LEFT, RIGHT):
            off = {grade: {e: sum(x not in target for x in e) for e in t.coeff.terms}
                   for grade, t in full.items()}
            kept, checked = {}, {}
            for bound in range(d + 10):
                got = hamiltonian_density(d, max_grade=6, demand=(target, bound)).terms
                expect = {}
                for grade, t in full.items():
                    k = min(bound - grade, t.m)     # no term has more than m off target
                    if (grade, k) not in kept:
                        kept[grade, k] = {e: c for e, c in t.coeff.terms.items()
                                          if off[grade][e] <= k}
                    if kept[grade, k]:
                        expect[grade] = (grade, k)
                assert [t.grade for t in got] == sorted(expect), (d, target, bound)
                for t in got:
                    # a term shared with a smaller bound was compared there
                    if checked.get(expect[t.grade]) is t:
                        continue
                    f = full[t.grade]
                    assert (t.m, t.blocks, t.coeff.variables) == (f.m, f.blocks, f.coeff.variables)
                    expect_terms = kept[expect[t.grade]]
                    assert list(t.coeff.terms) == list(expect_terms), (d, target, bound, t.grade)
                    # each build writes one value object per orbit on all its
                    # rearrangements, so each pair of value objects is compared once
                    pairs = {(id(a), id(b)): (a, b)
                             for a, b in zip(t.coeff.terms.values(), expect_terms.values())}
                    assert all(a == b for a, b in pairs.values()), (d, target, bound, t.grade)
                    checked[expect[t.grade]] = t
                    restricted += len(t.coeff.terms) < len(f.coeff.terms)
                for g in range(6):
                    lower = hamiltonian_density(d, max_grade=g, demand=(target, bound)).terms
                    assert lower == tuple(t for t in got if t.grade <= g), (d, g, target, bound)
    assert restricted > 300


@pytest.mark.parametrize("d, max_grade, demands, misses", [
    # grade 0 of H_5 has 7 slots and no exponent of 2 or more
    (5, 0, ((RIGHT, 0), (RIGHT, 5)), 1),
    # grade 0 of H_2 has 4 slots, so at most 4 exponents off 1
    (2, 0, ((LEFT, 4), (LEFT, 7)), 1),
    # grades 0, 1, 2 of H_6 have at most 0, 1, 2 exponents of 2 or more
    (6, 2, ((RIGHT, 4), (RIGHT, 10)), 3),
])
def test_demands_that_clamp_alike_share_one_term(d, max_grade, demands, misses):
    _hamiltonian_term.cache_clear()
    first, second = (hamiltonian_density(d, max_grade=max_grade, demand=demand)
                     for demand in demands)
    assert second.terms == first.terms and len(first.terms) == misses
    info = _hamiltonian_term.cache_info()
    assert (info.misses, info.hits) == (misses, misses)


def test_left_demand_no_orbit_meets_builds_nothing():
    # every orbit of grade t of H_9 keeps at least 11 - 2t - (1 - t) slots on
    # 1, more than the degree 2t allows
    _hamiltonian_term.cache_clear()
    assert hamiltonian_density(9, max_grade=1, demand=(LEFT, 1)).terms == ()
    assert _hamiltonian_term.cache_info().misses == 0
    for grade in range(2):
        assert _hamiltonian_term(9, grade, (LEFT, 1 - grade)) is None


def test_hurwitz_correlator_matches_full_product(monkeypatch):
    def no_quotient(g, n):
        raise AssertionError("hurwitz_correlator built the quotient")

    monkeypatch.setattr(qwk.hurwitz, "s_quotient", no_quotient)
    keys = list(theorem_grid(g_max=3, slack=3))
    assert len(keys) == 441
    # a seeded sample at genus 4 to 6, four-point keys among them, in and
    # around the level interval
    deep = [k for k in _grid_keys(6, 4, slack=3) if k[1] >= 4]
    keys += random.Random(23).sample(deep, 120)
    products = {}
    nonzero = []
    for d, g in keys:
        got = hurwitz_correlator(d, g)
        assert type(got) is Fraction, (d, g)
        assert got == _hurwitz_correlator_by_product(d, g, products), (d, g)
        if got and g >= 4:
            nonzero.append(len(d))
    # 41 of the sample are nonzero, 24 of them four-point keys
    assert len(nonzero) >= 40 and nonzero.count(4) >= 20
