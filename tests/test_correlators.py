"""Correlator values, string inversion, level structure, conventions."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwk.correlators import (CorrelatorKey, _correlator_cached, constant_term,
                             correlator, correlator_table, correlator_tau0,
                             series_coefficient, vanishes_by_level)
from qwk.hurwitz import hurwitz_correlator
from qwk.qkdv import nested_bracket


def test_tau0_route_examples():
    assert correlator_tau0([0, 0], 0) == 1
    assert correlator_tau0([1], 1) == Fraction(1, 24)
    assert correlator_tau0([3], 1) == Fraction(1, 24)
    assert correlator_tau0([7], 2) == Fraction(1, 1920)
    with pytest.raises(ValueError):
        correlator_tau0([], 1)


@pytest.mark.parametrize("fn", [correlator, hurwitz_correlator, nested_bracket])
@pytest.mark.parametrize("d, g, bad", [
    ([1.5], 1, "insertion 1.5"), ([3.0], 1, "insertion 3.0"), ([2, True], 1, "insertion True"),
    ([1, Fraction(2)], 2, "insertion Fraction(2, 1)"), ([1, 2], 2.5, "genus grade 2.5"),
    ([2], True, "genus grade True"),
])
def test_keys_that_are_not_integers_are_refused(fn, d, g, bad):
    # these used to read as 0, or as the integer key they equal
    with pytest.raises(ValueError, match=re.escape(f"{bad} is not an integer")):
        fn(d, g)


def test_correlator_examples():
    assert correlator([2], 1) == Fraction(1, 24)
    assert correlator([2], 2) == Fraction(7, 5760)
    assert correlator([1, 2], 1) == Fraction(1, 24)
    assert correlator([1, 6], 2) == Fraction(1, 640)


def test_zero_insertion_delegates():
    assert correlator([0, 3], 1) == correlator_tau0([3], 1)
    assert correlator([0, 0, 0], 0) == correlator_tau0([0, 0], 0)


def test_one_point_linear_convention():
    # <tau_d> is defined as <tau_0 tau_{d+1}>
    for g in (1, 2):
        for d in range(0, 6):
            assert correlator([d], g) == correlator_tau0([d + 1], g)


def test_constant_term():
    assert constant_term(0) == 0
    assert constant_term(2) == correlator([1], 2) / 2
    with pytest.raises(ValueError):
        constant_term(1)
    assert correlator([], 2) == constant_term(2)


def test_vanishes_by_level_examples():
    assert vanishes_by_level([5], 1, 0) is True
    assert vanishes_by_level([3], 1, 0) is True
    assert vanishes_by_level([1, 2], 1, 0) is False
    with pytest.raises(ValueError):
        vanishes_by_level([1], 0, 1)


def test_vanishes_by_level_refuses_negative_level():
    with pytest.raises(ValueError, match="level index must be >= 0"):
        vanishes_by_level((1,), 1, -1)


def test_level_structure_vanishing_on_grid():
    for g in range(3):
        for n in range(1, 4):
            cap = 4 * g + n
            for d in itertools.combinations_with_replacement(range(cap + 1), n):
                if sum(d) > cap:
                    continue
                if vanishes_by_level(d, g, 0):
                    assert correlator(d, g) == 0, (d, g)


def test_string_equation_on_grid():
    for g in range(3):
        for n in range(1, 4):
            cap = 4 * g - 3 + n
            for d in itertools.combinations_with_replacement(range(max(cap, 0) + 1), n):
                if sum(d) > cap:
                    continue
                lhs = correlator_tau0(d, g)
                rhs = Fraction(0)
                for i in range(n):
                    if d[i] > 0:
                        child = list(d)
                        child[i] -= 1
                        rhs += correlator(child, g)
                assert lhs == rhs, (d, g)


def test_dilaton_consequence_on_grid():
    # <tau_1 d>_g == (2g - 2 + n) <d>_g, a consequence of the main theorem
    for g in range(3):
        for n in range(1, 3):
            cap = 4 * g - 3 + n
            for d in itertools.combinations_with_replacement(range(max(cap, 0) + 1), n):
                if sum(d) > cap or 2 * g - 2 + n <= 0:
                    continue
                lhs = correlator(list(d) + [1], g)
                rhs = (2 * g - 2 + n) * correlator(d, g)
                assert lhs == rhs, (d, g)


@st.composite
def grid_keys(draw):
    """(d, g) with g <= 4, 1 <= n <= 3 and sum d up to 3 above the top level 4g - 3 + n."""
    g = draw(st.integers(0, 4))
    room = 4 * g + draw(st.integers(1, 3))
    d = []
    while len(d) < room - 4 * g:
        d.append(draw(st.integers(0, room - sum(d))))
    return tuple(d), g


@settings(derandomize=True, deadline=None, max_examples=200)
@given(key=grid_keys())
def test_string_equation_property(key):
    # <tau_0 d>_g == sum_i <.. tau_{d_i - 1} ..>_g, with the t_0^2/2 source
    # adding 1 at d = (0, 0), g = 0
    d, g = key
    rhs = sum(correlator(d[:i] + (x - 1,) + d[i + 1:], g) for i, x in enumerate(d) if x)
    assert correlator((0, *d), g) == rhs + (1 if g == 0 and d == (0, 0) else 0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(key=grid_keys())
def test_dilaton_equation_property(key):
    # <tau_1 d>_g == (2g - 2 + n) <d>_g away from the unstable keys
    d, g = key
    n = len(d)
    assume(2 * g - 2 + n > 0)
    assert correlator((1, *d), g) == (2 * g - 2 + n) * correlator(d, g)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(key=grid_keys())
def test_level_vanishing_property(key):
    d, g = key
    assume(vanishes_by_level(d, g, 0))
    assert correlator(d, g) == 0


def test_symmetry_under_permutation():
    rng = random.Random(10)
    for _ in range(10):
        n = rng.randint(2, 3)
        d = [rng.randint(0, 4) for _ in range(n)]
        g = rng.randint(0, 2)
        base = correlator(d, g)
        for perm in itertools.permutations(d):
            assert correlator(list(perm), g) == base
    # recomputation through an unsorted direct recursion agrees with the memo
    assert correlator((2, 1), 1) == correlator((1, 2), 1) == _correlator_cached((2, 1), 1)


def test_reality_of_stored_values():
    table = correlator_table(1, 2, 4)
    for key, value in table.entries.items():
        assert isinstance(value, Fraction)


def test_table_contents():
    table = correlator_table(1, 2, 3)
    assert table.get([2], 1) == Fraction(1, 24)
    assert table.get([0, 3], 1) == Fraction(1, 24)
    small = correlator_table(0, 3, 0)
    nonzero = {k: v for k, v in small.entries.items() if v != 0}
    assert nonzero == {CorrelatorKey.of([0, 0, 0], 0): Fraction(1)}


def test_series_coefficient_bookkeeping():
    # t0^3/6 and t1^2 t2 / 24
    assert series_coefficient([0, 0, 0], 0) == Fraction(1, 6)
    assert series_coefficient([1, 1, 2], 1) == correlator([1, 1, 2], 1) / 2


def test_first_terms_series_coefficients():
    # the leading entries of the hbar^1 block, as monomial coefficients
    entries = {(2,): "1/24", (0, 3): "1/24", (1, 2): "1/24",
               (1, 1, 2): "1/24", (0, 2, 2): "1/24",
               (0,): "1/24", (0, 1): "1/24", (0, 0, 2): "1/48", (0, 1, 1): "1/24"}
    for d, value in entries.items():
        assert series_coefficient(d, 1) == Fraction(value), d


def test_main_theorem_beyond_acceptance_grid():
    # genus-3 spot checks, including a two-bracket three-point key,
    # and four-point keys (three nested commutators)
    from qwk.hurwitz import hurwitz_correlator
    for d, g in [((10,), 3), ((1, 10), 3), ((2, 3), 3), ((1, 2, 3), 3),
                 ((1, 1, 1, 2), 1), ((0, 1, 1, 3), 1)]:
        assert correlator(d, g) == hurwitz_correlator(d, g), (d, g)
    assert correlator((1, 2, 3), 3) == Fraction(31, 16128)


def test_classical_genus_zero_values():
    # at genus grade 0 the correlators are the classical genus-0
    # intersection numbers (n-3)!/prod(d_i!) on sum d = n - 3
    from math import factorial
    for n in (3, 4, 5):
        for d in itertools.combinations_with_replacement(range(n - 2), n):
            if sum(d) != n - 3:
                continue
            expected = Fraction(factorial(n - 3))
            for x in d:
                expected /= factorial(x)
            assert correlator(d, 0) == expected, d


def bottom_level_value(d, g):
    """The lambda_g value on the minimal level sum d = 2g - 3 + n:
    multinomial(2g-3+n; d) times the one-point value b_g, with b_0 = 1 and
    b_g = (2^(2g-1) - 1)/2^(2g-1) * |B_2g|/(2g)! for g = 1..6, the t^(2g)
    coefficient of (t/2)/sin(t/2) (Faber-Pandharipande's lambda_g formula)."""
    from math import factorial
    bernoulli = {1: Fraction(1, 6), 2: Fraction(1, 30), 3: Fraction(1, 42),
                 4: Fraction(1, 30), 5: Fraction(5, 66), 6: Fraction(691, 2730)}
    if g:
        top = 2 ** (2 * g - 1)
        b_g = Fraction(top - 1, top) * bernoulli[g] / factorial(2 * g)
    else:
        b_g = Fraction(1)
    value = Fraction(factorial(sum(d))) * b_g
    for x in d:
        value /= factorial(x)
    return value


def test_bottom_level_multinomial_structure():
    # on the minimal level sum d = 2g - 3 + n the values follow the
    # lambda_g structure (see bottom_level_value)
    for g in (1, 2, 3, 4, 5, 6):
        for n in (1, 2, 3):
            total = 2 * g - 3 + n
            if total < 0:
                continue
            for d in itertools.combinations_with_replacement(range(total + 1), n):
                if sum(d) != total:
                    continue
                assert correlator(d, g) == bottom_level_value(d, g), (d, g)


def test_genus_six_bottom_level_anchors():
    # b_6 = (2^11 - 1)/2^11 * (691/2730)/12!, written out, and a two-point
    # value of the lambda_6 structure: 11!/(4! 7!) b_6
    b_6 = Fraction(1414477, 2678117105664000)
    assert bottom_level_value((10,), 6) == b_6
    assert correlator((10,), 6) == b_6
    assert correlator((4, 7), 6) == 330 * b_6 == bottom_level_value((4, 7), 6)


@st.composite
def bottom_level_keys(draw):
    """(d, g) with sum d = 2g - 3 + n, for n <= 6 at g <= 2 and n <= 4 at g = 3."""
    g = draw(st.integers(0, 3))
    n = draw(st.integers(max(1, 3 - 2 * g), 6 if g <= 2 else 4))
    total = 2 * g - 3 + n
    # k nonzero insertions, so that a key nests as deep as its total allows
    k = draw(st.integers(min(1, total), min(n, total)))
    cuts = sorted(draw(st.permutations(range(1, total)))[:k - 1])
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])] if k else []
    return tuple(draw(st.permutations(parts + [0] * (n - k)))), g


@settings(derandomize=True, deadline=None, max_examples=200)
@given(key=bottom_level_keys())
def test_bottom_level_on_random_deep_keys(key):
    # more insertions than any grid key, so the engine nests deeper
    d, g = key
    assert correlator(d, g) == bottom_level_value(d, g)


def test_top_level_one_point_values():
    # on the top level sum d = 4g - 3 + n with n = 1 the value is the
    # z^(2g) coefficient of S(z) = sh(z/2)/(z/2), 1/(4^g (2g+1)!): the top
    # coefficient of the Goulden-Jackson-Vakil one-part polynomial (GJV 2005)
    from math import factorial
    from qwk.hurwitz import hurwitz_correlator
    top = {1: Fraction(1, 24), 2: Fraction(1, 1920), 3: Fraction(1, 322560),
           4: Fraction(1, 92897280), 5: Fraction(1, 40874803200),
           6: Fraction(1, 25505877196800)}
    for g, value in top.items():
        assert value == Fraction(1, 4 ** g * factorial(2 * g + 1))
        assert correlator((4 * g - 2,), g) == value, g
        assert hurwitz_correlator((4 * g - 2,), g) == value, g
