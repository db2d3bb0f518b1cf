"""Series kernels, Eulerian polynomials and the Ehrhart convolution."""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from qwk.algebra import GaussRat, MultiPoly
from qwk.special import (ehrhart_brute_force, ehrhart_convolution,
                         eulerian_number, eulerian_polynomial, s_series,
                         series_exp_log, series_inverse)


def test_s_series_coefficients():
    s = s_series(16)
    for l in range(9):
        assert s.coeff_extract({"z": 2 * l}) == GaussRat(
            Fraction(1, 4**l * factorial(2 * l + 1)))
        if 2 * l + 1 <= 16:
            assert s.coeff_extract({"z": 2 * l + 1}) == 0
    assert s_series(4) == MultiPoly(
        ("z",), {(0,): 1, (2,): Fraction(1, 24), (4,): Fraction(1, 1920)}, {"z": 4})
    assert s_series(0) == MultiPoly.const(1, ("z",), {"z": 0})


def test_series_inverse_of_s():
    inv = series_inverse(s_series(4), "z", 4)
    assert inv.coeff_extract({"z": 0}) == 1
    assert inv.coeff_extract({"z": 2}) == GaussRat(Fraction(-1, 24))
    assert inv.coeff_extract({"z": 4}) == GaussRat(Fraction(7, 5760))
    assert s_series(6) * series_inverse(s_series(6), "z", 6) == \
        MultiPoly.const(1, ("z",), {"z": 6})


def test_series_inverse_geometric():
    one_minus_t = MultiPoly(("t",), {(0,): 1, (1,): -1}, {"t": 3})
    inv = series_inverse(one_minus_t, "t", 3)
    assert inv == MultiPoly(("t",), {(0,): 1, (1,): 1, (2,): 1, (3,): 1}, {"t": 3})
    assert series_inverse(MultiPoly.const(1, ("t",)), "t", 2) == \
        MultiPoly.const(1, ("t",), {"t": 2})
    with pytest.raises(ValueError):
        series_inverse(MultiPoly.var("t"), "t", 2)


def test_series_exp_log():
    z = MultiPoly.var("z", ("z",), {"z": 3})
    e = series_exp_log(z, "z", 3, "exp")
    assert e == MultiPoly(("z",), {(0,): 1, (1,): 1, (2,): Fraction(1, 2),
                                   (3,): Fraction(1, 6)}, {"z": 3})
    minus_t = -MultiPoly.var("t", ("t",), {"t": 3})
    log_val = series_exp_log(MultiPoly.const(1, ("t",), {"t": 3}) + minus_t, "t", 3, "log")
    assert log_val == MultiPoly(("t",), {(1,): -1, (2,): Fraction(-1, 2),
                                         (3,): Fraction(-1, 3)}, {"t": 3})
    # exp(log(S)) round trip
    s = s_series(4)
    assert series_exp_log(series_exp_log(s, "z", 4, "log"), "z", 4, "exp") == s
    with pytest.raises(ValueError):
        series_exp_log(MultiPoly.const(2, ("z",)), "z", 2, "log")
    with pytest.raises(ValueError):
        series_exp_log(MultiPoly.const(1, ("z",)), "z", 2, "exp")


def brute_descents(n):
    counts = {}
    for perm in itertools.permutations(range(1, n + 1)):
        k = sum(1 for i in range(n - 1) if perm[i] > perm[i + 1])
        counts[k] = counts.get(k, 0) + 1
    return counts


def test_eulerian_polynomials_against_descent_enumeration():
    assert eulerian_polynomial(0) == MultiPoly.const(1, ("t",))
    assert eulerian_polynomial(3) == MultiPoly(("t",), {(0,): 1, (1,): 4, (2,): 1})
    for n in range(1, 8):
        expected = brute_descents(n)
        row = eulerian_polynomial(n)
        for k, c in expected.items():
            assert row.coeff_extract({"t": k}) == c
        assert row.evaluate({"t": 1}) == factorial(n)
    assert eulerian_number(5, 1) == 26


def test_eulerian_cache_concurrent_growth():
    # the row cache must tolerate concurrent read-and-grow
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=8) as pool:
        rows = list(pool.map(eulerian_polynomial, list(range(30)) * 4))
    for n, row in zip(list(range(30)) * 4, rows):
        assert row.evaluate({"t": 1}) == factorial(n)


def test_ehrhart_examples():
    c = ehrhart_convolution((1,))
    assert c.poly == MultiPoly.var("N")
    c = ehrhart_convolution((1, 1))
    # N(N^2-1)/6
    assert c.poly * 6 == MultiPoly(("N",), {(3,): 1, (1,): -1})
    assert c(3) == 4 and c(4) == 10
    c = ehrhart_convolution((0, 0))
    assert c.poly == MultiPoly(("N",), {(1,): 1, (0,): -1})
    with pytest.raises(ValueError):
        ehrhart_convolution(())


def test_ehrhart_brute_force_examples():
    assert ehrhart_brute_force((1, 1), 4) == 10
    assert ehrhart_brute_force((3, 2), 0) == 0
    assert ehrhart_brute_force((2,), 5) == 25


def exponent_lists(q_max, sum_max):
    for q in range(1, q_max + 1):
        for r in itertools.product(range(sum_max + 1), repeat=q):
            if sum(r) <= sum_max:
                yield r


def test_ehrhart_convolution_matches_brute_force():
    for r in exponent_lists(4, 6):
        poly = ehrhart_convolution(r)
        low = 0 if min(r) >= 1 else len(r)
        for n in range(low, 16):
            assert poly(n) == ehrhart_brute_force(r, n), (r, n)


def test_ehrhart_degree_and_parity():
    # parity is the positive-exponent lemma; degree holds unconditionally
    for r in exponent_lists(4, 6):
        poly = ehrhart_convolution(r)
        degree = len(r) - 1 + sum(r)
        assert poly.poly.degree() == degree
        if min(r) >= 1:
            for (e,), _c in poly.poly.terms.items():
                assert (e - degree) % 2 == 0


def test_ehrhart_vanishes_below_arity_for_positive_exponents():
    for r in exponent_lists(4, 6):
        if min(r) < 1:
            continue
        poly = ehrhart_convolution(r)
        for n in range(len(r)):
            assert poly(n) == 0
