"""The commutator kernel's integer tables, in closed form, against the builds they replaced.

``special.power_of_sum`` writes each multinomial once per sorted exponent
tuple, ``special._ehrhart_cached`` sums integer coefficient lists over the one
denominator (D-1)!, and ``special.rearrangements`` steps through the next
permutation.  The oracles below are the slow paths they replaced: a repeated
polynomial power, a product of D-1 linear factors per numerator coefficient,
and the recursive generator.
"""

from fractions import Fraction
from math import factorial

import pytest

from qwk.algebra import MultiPoly
from qwk.special import (ehrhart_convolution, eulerian_polynomial, power_of_sum,
                         rearrangements, slot_names, sorted_exponents)


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


def test_power_of_sum_matches_repeated_power():
    for n in range(7):
        for power in range(9):
            got, expect = power_of_sum(n, power), _power_of_sum_by_power(n, power)
            assert got.variables == expect.variables, (n, power)
            assert got.terms == expect.terms, (n, power)
    for n, power in ((-1, 0), (2, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            power_of_sum(n, power)


def test_ehrhart_convolution_matches_linear_factor_products():
    checked = 0
    for q in range(1, 5):
        for total in range(9):
            for r in sorted_exponents(q, total):
                got, expect = ehrhart_convolution(r), _ehrhart_by_products(r)
                assert got.variables == expect.variables == ("N",), r
                assert got.terms == expect.terms, r
                checked += 1
    assert checked == 128


def test_rearrangements_match_recursive_order():
    rearranged = 0
    for m in range(11):
        for total in range(9):
            for canon in sorted_exponents(m, total):
                got = list(rearrangements(canon))
                assert got == list(_rearrangements_recursive(canon)), canon
                rearranged += len(got)
    assert rearranged == 92_378
