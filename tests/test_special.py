"""Series kernels, Eulerian polynomials and the Ehrhart convolution."""

import itertools
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from qwk.algebra import MultiPoly
from qwk.qkdv import hamiltonian_density
from qwk.series import (ehrhart_brute_force, s_series, series_exp_log,
                        series_inverse, series_product)
from qwk.special import (_tangent_numbers, ehrhart_convolution, eulerian_number,
                         eulerian_polynomial, genus_table, s_quotient, sigma_coefficients,
                         slot_names)
from test_algebra import coeff_extract


def test_s_series_coefficients():
    s = s_series(16)
    assert len(s) == 17
    for l in range(9):
        assert s[2 * l] == Fraction(1, 4**l * factorial(2 * l + 1))
        if 2 * l + 1 <= 16:
            assert s[2 * l + 1] == 0
    assert s_series(4) == [1, 0, Fraction(1, 24), 0, Fraction(1, 1920)]
    assert s_series(0) == [1]


def test_series_inverse_of_s():
    inv = series_inverse(s_series(4))
    assert inv[0] == 1
    assert inv[2] == Fraction(-1, 24)
    assert inv[4] == Fraction(7, 5760)
    assert series_product(s_series(6), series_inverse(s_series(6))) == [1, 0, 0, 0, 0, 0, 0]


def _sigma_by_recurrence(g):
    """sigma_0..sigma_g from S * (1/S) = 1, one Fraction sum per coefficient."""
    sigma = [Fraction(1)]
    for k in range(1, g + 1):
        sigma.append(-sum(sigma[k - l] / (4 ** l * factorial(2 * l + 1)) for l in range(1, k + 1)))
    return tuple(sigma)


def test_sigma_closed_form_matches_recurrence():
    expect = _sigma_by_recurrence(100)
    for g in range(101):
        got = sigma_coefficients(g)
        assert type(got) is tuple and all(type(x) is Fraction for x in got), g
        assert got == expect[:g + 1], g
    assert _tangent_numbers(6) == [1, 2, 16, 272, 7936, 353792]
    assert _tangent_numbers(0) == []


def test_genus_table_integer_forms():
    for g in (0, 1, 2, 3, 7, 30):
        table = genus_table(g)
        assert table.sigma == sigma_coefficients(g)
        assert table.sigma_den == lcm(*(x.denominator for x in table.sigma))
        assert tuple(Fraction(x, table.sigma_den) for x in table.sigma_num) == table.sigma
        assert table.s_den == 4 ** g * factorial(2 * g + 1)
        assert [Fraction(x, table.s_den) for x in table.s_num] \
            == [Fraction(1, 4 ** l * factorial(2 * l + 1)) for l in range(g + 1)]


def test_series_inverse_geometric():
    assert series_inverse([1, -1, 0, 0]) == [1, 1, 1, 1]
    assert series_inverse([1, 0, 0]) == [1, 0, 0]
    with pytest.raises(ValueError):
        series_inverse([0, 1, 0])
    with pytest.raises(ValueError):
        series_inverse([MultiPoly.var("t"), MultiPoly.const(1, ("t",))])


def test_series_exp_log():
    assert series_exp_log([0, 1, 0, 0], "exp") == [1, 1, Fraction(1, 2), Fraction(1, 6)]
    assert series_exp_log([1, -1, 0, 0], "log") == [0, -1, Fraction(-1, 2), Fraction(-1, 3)]
    # exp(log(S)) round trip
    s = s_series(4)
    assert series_exp_log(series_exp_log(s, "log"), "exp") == s
    with pytest.raises(ValueError):
        series_exp_log([2, 0, 0], "log")
    with pytest.raises(ValueError):
        series_exp_log([1, 0, 0], "exp")


# ----------------------------------------------------------------------
# untruncated oracle for prod_i S(x_i z) S(w z) / S(z)

def _bernoulli(n):
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def _explicit_product_top(names, g, with_total):
    """[z^(2g)] of prod_i S(x_i z) (times S((x_1+..+x_m) z)) / S(z).

    Every factor is an explicit polynomial in z up to z^(2g): S(xz) from its
    Taylor coefficients, 1/S(z) = sum (2 - 2^(2l)) B_(2l) z^(2l) / (4^l (2l)!)
    from the Bernoulli numbers.  The factors are multiplied in full, with no
    truncation, and the sum x_1+..+x_m enters as a variable w that is
    substituted after the z^(2g) coefficient is taken.
    """
    vs = tuple(names) + ("w", "z")
    z = MultiPoly.var("z", vs)
    bern = _bernoulli(2 * g)
    prod = MultiPoly(vs)
    for l in range(g + 1):
        prod = prod + z ** (2 * l) * Fraction((2 - 4**l) * bern[2 * l], 4**l * factorial(2 * l))
    for x in names + (("w",) if with_total else ()):
        xz = MultiPoly.var(x, vs) * z
        prod = prod * sum((xz ** (2 * l) * Fraction(1, 4**l * factorial(2 * l + 1))
                           for l in range(g + 1)), MultiPoly(vs))
    top = prod.coeff_of_var_power("z", 2 * g)
    total = sum((MultiPoly.var(x, names) for x in names), MultiPoly(names))
    return top.substitute("w", total)


def test_densities_match_untruncated_product():
    for d in range(-1, 11):
        terms = {t.grade: t for t in hamiltonian_density(d, max_grade=3).terms}
        for g in range(0, 4):
            m = d + 2 - 2 * g
            if m < 0:
                assert g not in terms
                continue
            expect = _explicit_product_top(slot_names(m), g, True) * Fraction(1, factorial(m))
            if expect.is_zero():
                assert g not in terms, (d, g)
                continue
            assert terms[g].m == m and terms[g].blocks == ((m,) if m else ())
            assert terms[g].coeff == expect, (d, g)


def test_s_quotient_matches_untruncated_product():
    for g in range(0, 4):
        for n in range(1, 6):
            assert s_quotient(g, n) == _explicit_product_top(slot_names(n), g, False), (g, n)


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
            assert coeff_extract(row, {"t": k}) == c
        assert row.evaluate({"t": 1}) == factorial(n)
    assert eulerian_number(5, 1) == 26


def test_eulerian_rows_are_built_without_recursion():
    # <n,1> = 2^n - n - 1; rows used to recurse once per n
    assert eulerian_number(2000, 1) == 2**2000 - 2001


def test_eulerian_cache_concurrent_growth():
    # rows must come out right when many threads ask for them at once
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=8) as pool:
        rows = list(pool.map(eulerian_polynomial, list(range(30)) * 4))
    for n, row in zip(list(range(30)) * 4, rows):
        assert row.evaluate({"t": 1}) == factorial(n)


def test_ehrhart_examples():
    c = ehrhart_convolution((1,))
    assert c == MultiPoly.var("N")
    c = ehrhart_convolution((1, 1))
    # N(N^2-1)/6
    assert c * 6 == MultiPoly(("N",), {(3,): 1, (1,): -1})
    assert c.evaluate({"N": 3}) == 4 and c.evaluate({"N": 4}) == 10
    c = ehrhart_convolution((0, 0))
    assert c == MultiPoly(("N",), {(1,): 1, (0,): -1})
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
            assert poly.evaluate({"N": n}) == ehrhart_brute_force(r, n), (r, n)


def test_ehrhart_degree_and_parity():
    # parity is the positive-exponent lemma; degree holds unconditionally
    for r in exponent_lists(4, 6):
        poly = ehrhart_convolution(r)
        degree = len(r) - 1 + sum(r)
        assert poly.degree() == degree
        if min(r) >= 1:
            for (e,), _c in poly.terms.items():
                assert (e - degree) % 2 == 0


def test_ehrhart_vanishes_below_arity_for_positive_exponents():
    for r in exponent_lists(4, 6):
        if min(r) < 1:
            continue
        poly = ehrhart_convolution(r)
        for n in range(len(r)):
            assert poly.evaluate({"N": n}) == 0
