"""The commutator kernel's integer tables, in closed form, against the builds they replaced.

``special.power_of_sum`` writes each multinomial once per sorted exponent
tuple, ``special._ehrhart_cached`` convolves the Eulerian rows as integer
lists and interpolates integer coefficients over the one denominator (D-1)!
from D prefix sums, ``special.rearrangements`` steps through the next
permutation, and ``qkdv._admitted_powers`` enumerates rule B's N-power
monomials, building their multinomials as it walks.  The oracles below are
the slow paths they replaced: a repeated polynomial power, a product of D-1
linear factors per numerator coefficient (as ``MultiPoly``s, and as the
integer rising factorials the table was summed from before), the same
interpolation from a ``MultiPoly`` numerator to a ``MultiPoly`` in N, the
recursive generator, and the filter over the whole power-of-sum table.
"""

from fractions import Fraction
import random
from itertools import accumulate, product
from math import factorial
from operator import add, ne

import pytest

from qwk import qkdv
from qwk.algebra import GaussRat, MultiPoly
from qwk.qkdv import _admitted_powers, hamiltonian_density
from qwk.series import ehrhart_brute_force
from qwk.special import (ehrhart_convolution, eulerian_polynomial, power_of_sum,
                         rearrangements, slot_names, sorted_exponents)
from test_special import ehrhart_poly


def _power_of_sum_by_power(n, power):
    """(a_1+..+a_n)^power as a repeated MultiPoly power."""
    return MultiPoly(slot_names(n), {tuple(int(i == j) for i in range(n)): 1
                                     for j in range(n)}) ** power


def _ehrhart_by_products(r):
    """sum_j num_j * binom(N-j+D-1, D-1), each binomial a product of D-1 linear factors."""
    q = len(r)
    num = MultiPoly.const(1, ("t",))
    t = MultiPoly.var("t")
    for ri in r:
        num = num * t * eulerian_polynomial(ri)
    d_total = q + sum(r)
    n_var = MultiPoly.var("N")
    acc = MultiPoly(("N",), {})
    fact = Fraction(1, factorial(d_total - 1))
    for (j,), cj in num.terms.items():
        prod = MultiPoly.const(cj * fact, ("N",))
        for i in range(d_total - 1):
            prod = prod * (n_var + (d_total - 1 - j - i))
        acc = acc + prod
    return acc


def _ehrhart_by_rising_factorials(r):
    """sum_j num_j * prod_(i<D-1) (N+D-1-j-i) over (D-1)!, one integer rising
    factorial per numerator coefficient."""
    d_total = len(r) + sum(r)
    num = MultiPoly.const(1, ("t",))
    t = MultiPoly.var("t")
    for ri in r:
        num = num * t * eulerian_polynomial(ri)
    acc = [0] * d_total
    for (j,), cj in num.terms.items():
        rising = [1]
        for i in range(d_total - 1):
            shift = d_total - 1 - j - i
            rising = [shift * a + b for a, b in zip(rising + [0], [0] + rising)]
        for e, a in enumerate(rising):
            acc[e] += int(cj.re) * a
    fact = factorial(d_total - 1)
    return MultiPoly(("N",), {(e,): Fraction(a, fact) for e, a in enumerate(acc) if a})


def _ehrhart_by_multipoly(r):
    """The interpolation of ``special._ehrhart_cached`` from a ``MultiPoly``
    numerator prod_i t E_(r_i)(t) to a ``MultiPoly`` in N."""
    d_total = len(r) + sum(r)
    num = MultiPoly.const(1, ("t",))
    t = MultiPoly.var("t")
    for ri in r:
        num = num * t * eulerian_polynomial(ri)
    low = max(0, num.degree() + 1 - d_total)
    series = [0] * (low + d_total)
    for (j,), cj in num.terms.items():
        series[j] = int(cj.re)
    for _ in range(d_total):
        series = list(accumulate(series))
    diffs = []
    values = series[low:]
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    acc = [diffs[-1]]
    weight = 1
    for k in range(d_total - 2, -1, -1):
        weight *= k + 1
        acc = [b - (low + k) * a for a, b in zip(acc + [0], [0] + acc)]
        acc[0] += diffs[k] * weight
    return MultiPoly(("N",), {(e,): GaussRat(Fraction(a, weight)) for e, a in enumerate(acc) if a})


def _rearrangements_recursive(canon):
    """The distinct rearrangements of a sorted tuple, by recursion on the first entry."""
    if not canon:
        yield ()
        return
    for j, x in enumerate(canon):
        if j and canon[j - 1] == x:
            continue
        for rest in _rearrangements_recursive(canon[:j] + canon[j + 1:]):
            yield (x,) + rest


def _off_target_by_filter(right, n_exp):
    """e2 -> (multinomial, positions with right + e2 != 1) over all of (a_1+..+a_k)^n_exp.

    Rule B's filter over the whole table admits e2 when that count is at most
    the spare; the count is taken once here for every spare.
    """
    ones = (1,) * len(right)
    return {e2: (c2.re, sum(map(ne, map(add, right, e2), ones)))
            for e2, c2 in power_of_sum(len(right), n_exp).terms.items()}


def _check_admitted(right, n_exp, widths):
    """The enumeration against the filter at every spare from none to more than
    the slots; returns the cases checked.

    ``widths`` records the slot count of every ``power_of_sum`` table the
    enumeration reads: it builds each multinomial as it walks, and reads a
    table only for the completions the spare covers, never a wider one.
    """
    by_off = {}
    for e2, (c2, off) in _off_target_by_filter(right, n_exp).items():
        by_off.setdefault(off, {})[e2] = c2
    expect = {}
    for spare in range(len(right) + 2):
        expect.update(by_off.get(spare, {}))
        widths.clear()
        got = _admitted_powers(right, spare, n_exp)
        assert len(got) == len(expect) and dict(got) == expect, (right, spare, n_exp)
        assert max(widths, default=0) <= spare, (right, spare, n_exp, widths)
    return len(right) + 2


@pytest.fixture
def widths(monkeypatch):
    """The slot counts of the ``power_of_sum`` tables that ``qkdv`` asks for."""
    asked = []

    def recording(n, power):
        asked.append(n)
        return power_of_sum(n, power)

    monkeypatch.setattr(qkdv, "power_of_sum", recording)
    return asked


def test_power_of_sum_matches_repeated_power():
    for n in range(7):
        for power in range(9):
            got, expect = power_of_sum(n, power), _power_of_sum_by_power(n, power)
            assert got.variables == expect.variables, (n, power)
            assert got.terms == expect.terms, (n, power)
    for n, power in ((-1, 0), (2, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            power_of_sum(n, power)


def test_many_slots_stay_within_recursion_depth():
    # sorted_exponents writes a tuple's zeros and ones without recursion and
    # recurses once per exponent of 2 or more, so 1000 or 1002 slots recurse
    # at most total/2 = 1 deep
    assert list(sorted_exponents(1000, 2)) == [(0,) * 998 + (0, 2), (0,) * 998 + (1, 1)]
    linear = power_of_sum(1000, 1)
    assert len(linear.terms) == 1000 and {c.re for c in linear.terms.values()} == {1}
    constant, = hamiltonian_density(1000, max_grade=0).terms
    assert list(constant.coeff.terms) == [(0,) * 1002]


def test_ehrhart_convolution_matches_linear_factor_products():
    checked = 0
    for q in range(1, 5):
        for total in range(9):
            for r in sorted_exponents(q, total):
                got, expect = ehrhart_poly(r), _ehrhart_by_products(r)
                assert got.variables == expect.variables == ("N",), r
                assert got.terms == expect.terms, r
                checked += 1
    assert checked == 128


def test_ehrhart_tables_match_rising_factorials_and_brute_force():
    checked = 0
    for q in range(1, 4):
        for total in range(13):
            for r in sorted_exponents(q, total):
                got = ehrhart_poly(r)
                assert got.terms == _ehrhart_by_rising_factorials(r).terms, r
                # D = q + total values pin a polynomial of degree D - 1
                values = [got.evaluate({"N": n}) for n in range(q, 2 * q + total)]
                assert values == [ehrhart_brute_force(r, n) for n in range(q, 2 * q + total)], r
                checked += 1
    assert checked == 13 + 49 + 102


def test_integer_ehrhart_tables_match_multipoly_build():
    checked = 0
    for q in range(1, 5):
        for total in range(13):
            for r in sorted_exponents(q, total):
                coefficients, den = ehrhart_convolution(r)
                assert len(coefficients) == q + total and den == factorial(q + total - 1), r
                assert ehrhart_poly(r) == _ehrhart_by_multipoly(r), r
                checked += 1
    assert checked == 13 + 49 + 102 + 155
    # deep tables, and D consecutive values, which pin the degree D - 1,
    # against the count over compositions
    for r in ((60,), (20, 20), (10, 10, 10), (400,)):
        coefficients, den = ehrhart_convolution(r)
        assert ehrhart_poly(r) == _ehrhart_by_multipoly(r), r
        q, d_total = len(r), len(r) + sum(r)
        for n in range(q, q + d_total):
            value = 0
            for c in reversed(coefficients):
                value = value * n + c
            assert Fraction(value, den) == ehrhart_brute_force(r, n), (r, n)


def test_rearrangements_match_recursive_order():
    rearranged = 0
    for m in range(11):
        for total in range(9):
            for canon in sorted_exponents(m, total):
                got = list(rearrangements(canon))
                assert got == list(_rearrangements_recursive(canon)), canon
                rearranged += len(got)
    assert rearranged == 92_378


def test_admitted_powers_match_filter_over_power_of_sum(widths):
    # right survivors capped at 2: every tuple up to six slots
    checked = 0
    for k in range(7):
        for right in product(range(3), repeat=k):
            for n_exp in range(7):
                checked += _check_admitted(right, n_exp, widths)
    assert checked == 57_407
    # seven to ten slots, as genus-4 brackets reach, on a seeded sample of
    # sorted tuples (the enumeration is blind to the order) and powers up to 8;
    # the whole sorted grid would take minutes
    rng = random.Random(2020)
    for k in range(7, 11):
        for _ in range(5):
            zeros = rng.randint(0, k)
            ones = rng.randint(0, k - zeros)
            right = (0,) * zeros + (1,) * ones + (2,) * (k - zeros - ones)
            checked += _check_admitted(right, rng.randint(0, 8), widths)
    assert checked == 57_407 + 210
    # no spare and too few zero survivors for the power, or a negative spare:
    # nothing is admitted, and no table is read
    widths.clear()
    assert _admitted_powers((0, 0), 0, 3) == [] and _admitted_powers((2,), -1, 0) == []
    assert not widths
