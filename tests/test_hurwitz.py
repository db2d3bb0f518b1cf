"""Closed-formula Hurwitz numbers against the factorization oracle.

The library counts transposition factorizations on cycle-type multiplicities
(cut-and-join) from one walk state per degree; ``_count_by_own_walk`` is
the walk of its own that every count took before, over the same table,
``_count_by_sorted_types`` is the same dynamic program on sorted part
tuples, one state per part, and ``_count_by_permutations`` counts the same
tuples over all d! permutations, the reference for small degrees.
``_one_part_number_by_quotient`` evaluates the n-slot quotient polynomial
``special.s_quotient`` at the partition, the route the integer series in z^2
of ``one_part_number`` replaces.
"""

import itertools
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwk.algebra import MultiPoly
from qwk.hurwitz import (DEFAULT_DEGREE_CAP, Partition, _cut_and_join, _transitions,
                         _walk_state,
                         aut_factor, factorization_count, factorization_counts,
                         hurwitz_correlator, one_part_number, one_part_polynomial,
                         partitions_of)
from qwk.series import s_series, s_series_of, series_inverse, series_product
from qwk.special import s_quotient, slot_names


def _cycle_type(p):
    seen = [False] * len(p)
    lens = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def _count_by_permutations(g, mu, left_to_right=True):
    """factorization_count by a dynamic program over all d! permutations.

    Applies every transposition to every partial product sigma_0 t_1..t_k
    (on the right, or with left_to_right=False on the left), then keeps the
    permutations of cycle type mu.  Practical for d <= 6.
    """
    d = mu.degree
    r = 2 * g - 1 + len(mu)
    sigma0 = tuple(list(range(1, d)) + [0])
    transpositions = []
    for i, j in itertools.combinations(range(d), 2):
        t = list(range(d))
        t[i], t[j] = j, i
        transpositions.append(tuple(t))
    counts = {sigma0: 1}
    for _ in range(r):
        nxt = {}
        for p, c in counts.items():
            for t in transpositions:
                if left_to_right:
                    q = tuple(p[t[x]] for x in range(d))   # p composed after t
                else:
                    q = tuple(t[p[x]] for x in range(d))
                nxt[q] = nxt.get(q, 0) + c
        counts = nxt
    total = sum(c for p, c in counts.items() if _cycle_type(p) == mu.parts)
    return Fraction(total, d)


def _one_part_number_by_quotient(g, mu):
    """r! * d^(r-1) * Q_g(mu), with Q_g the n-slot polynomial s_quotient(g, n)."""
    n = len(mu)
    r = 2 * g - 1 + n
    v = s_quotient(g, n).evaluate(dict(zip(slot_names(n), mu.parts)))
    assert v.is_real()
    return v.re * factorial(r) * Fraction(mu.degree) ** (r - 1)


def _sorted_type_row(lam):
    """(cycle type, weight) pairs of the cut-and-join step from the sorted type lam."""
    for i, a in enumerate(lam):
        rest = lam[:i] + lam[i + 1:]
        for s in range(1, a // 2 + 1):
            weight = a // 2 if 2 * s == a else a
            yield tuple(sorted(rest + (s, a - s), reverse=True)), weight
        for j in range(i + 1, len(lam)):
            b = lam[j]
            joined = rest[:j - 1] + rest[j:] + (a + b,)
            yield tuple(sorted(joined, reverse=True)), a * b


def _count_by_sorted_types(g, mu):
    """factorization_count with one state per sorted part tuple: every cut
    and join sorts a new tuple, and repeated parts give repeated entries,
    summed per new type when the row is built."""
    d = mu.degree
    r = 2 * g - 1 + len(mu)
    counts = {(d,): 1}
    rows = {}
    for _ in range(r):
        nxt = {}
        for lam, c in counts.items():
            row = rows.get(lam)
            if row is None:
                row = rows[lam] = {}
                for new, weight in _sorted_type_row(lam):
                    row[new] = row.get(new, 0) + weight
            for new, weight in row.items():
                nxt[new] = nxt.get(new, 0) + c * weight
        counts = nxt
    return Fraction(counts.get(mu.parts, 0), d)


def _multiplicities(parts, d):
    m = [0] * d
    for a in parts:
        m[a - 1] += 1
    return tuple(m)


def _count_by_own_walk(g, mu):
    """factorization_count from a count vector of its own, stepped r times
    from the d-cycle along the rows of ``_transitions(d)``."""
    d = mu.degree
    number, rows = _transitions(d)
    counts = [0] * len(rows)
    counts[0] = 1
    for _ in range(2 * g - 1 + len(mu)):
        nxt = [0] * len(rows)
        for c, row in zip(counts, rows):
            for j, weight in row:
                nxt[j] += c * weight
        counts = nxt
    return Fraction(counts[number[_multiplicities(mu.parts, d)]], d)


def test_one_part_number_matches_quotient_polynomial():
    keys = 0
    for d in range(1, 11):
        for parts in partitions_of(d):
            mu = Partition(parts)
            for g in range(5):
                assert one_part_number(g, mu) == _one_part_number_by_quotient(g, mu), (parts, g)
                keys += 1
    assert keys == 5 * 138
    # r = 0: g = 0 with one part, d^(r-1) = 1/d
    for d in range(1, 8):
        assert one_part_number(0, Partition((d,))) == Fraction(1, d)
    # r = 1: two parts at g = 0, where d^(r-1) = 1 and the value is 1
    for parts in ((1, 1), (3, 2), (7, 4), (6, 6), (12, 1)):
        mu = Partition(parts)
        assert one_part_number(0, mu) == _one_part_number_by_quotient(0, mu) == 1, parts
    mu = Partition((1,) * 20)
    assert one_part_number(5, mu) == _one_part_number_by_quotient(5, mu)


@pytest.mark.parametrize("g", [20, 40, 60])
def test_deep_one_part_number_matches_series_quotient(g):
    # r! d^(r-1) [z^(2g)] prod S(mu_i z) / S(z), the quotient by truncated
    # rational series with 1/S from series_inverse
    for parts in ((4 * g - 2,), (2 * g, 2 * g - 3, 1)):
        quotient = series_inverse(s_series(2 * g))
        for part in parts:
            quotient = series_product(quotient, s_series_of(Fraction(part), 2 * g))
        r = 2 * g - 1 + len(parts)
        expect = factorial(r) * sum(parts) ** (r - 1) * quotient[2 * g]
        assert one_part_number(g, Partition(parts)) == expect, (g, parts)


def test_multiplicity_count_matches_sorted_type_count():
    keys = 0
    for d in range(1, 13):
        for parts in partitions_of(d):
            mu = Partition(parts)
            for g in range(4):
                assert factorization_count(g, mu) == _count_by_sorted_types(g, mu), (parts, g)
                keys += 1
    assert keys == 4 * 271


def test_cut_and_join_rows_sum_to_all_transpositions():
    for d in range(1, 13):
        for parts in partitions_of(d):
            m = _multiplicities(parts, d)
            pairs = _cut_and_join(m)
            row = dict(pairs)
            # one entry per new type, each a cycle type of degree d other than m
            assert len(row) == len(pairs), parts
            assert all(sum(a * x for a, x in enumerate(new, 1)) == d and new != m
                       for new in row)
            assert sum(row.values()) == comb(d, 2), parts
            # the sorted-tuple row aggregates to the same entries
            expect = {}
            for new, weight in _sorted_type_row(parts):
                key = _multiplicities(new, d)
                expect[key] = expect.get(key, 0) + weight
            assert row == expect, parts


@pytest.mark.parametrize("d", list(range(1, 13)) + [20])
def test_transition_table_numbers_every_type_once(d):
    number, rows = _transitions(d)
    types = list(partitions_of(d))
    # one number per partition of d, in the order of partitions_of
    assert list(number) == [_multiplicities(parts, d) for parts in types]
    assert list(number.values()) == list(range(len(types))) == list(range(len(rows)))
    for parts, row in zip(types, rows):
        targets = [j for j, _ in row]
        assert len(set(targets)) == len(targets) and number[_multiplicities(parts, d)] not in targets
        assert sum(weight for _, weight in row) == comb(d, 2), parts
    if d == 20:
        assert (len(rows), sum(map(len, rows))) == (627, 7090)


def test_counts_of_one_degree_share_its_table():
    keys = [(g, parts) for d in range(1, 8) for parts in partitions_of(d) for g in range(4)]
    assert len(keys) == 176
    _walk_state.cache_clear()
    canonical = [factorization_count(g, Partition(parts)) for g, parts in keys]
    shuffled = keys.copy()
    random.Random(28).shuffle(shuffled)
    _walk_state.cache_clear()
    counts = {key: factorization_count(key[0], Partition(key[1])) for key in shuffled}
    # one build per degree, whichever key of it comes first
    assert _walk_state.cache_info().misses == 7
    assert [counts[key] for key in keys] == canonical


@pytest.mark.parametrize("d_max, g_max, size", [(7, 3, 176), (12, 5, 1626)])
def test_walk_state_serves_keys_in_any_order(d_max, g_max, size):
    # the hurwitz-oracle workload's keys, then every partition of d <= 12 at
    # g <= 5; each order starts from empty walk states
    keys = [(g, parts) for d in range(1, d_max + 1) for parts in partitions_of(d)
            for g in range(g_max + 1)]
    assert len(keys) == size
    expect = {}
    for g, parts in keys:
        mu = Partition(parts)
        expect[g, parts] = _count_by_sorted_types(g, mu)
        assert _count_by_own_walk(g, mu) == expect[g, parts], (parts, g)
    shuffled = keys.copy()
    random.Random(31).shuffle(shuffled)
    descending = sorted(keys, key=lambda key: -(2 * key[0] - 1 + len(key[1])))
    for name, order in (("canonical", keys), ("shuffled", shuffled), ("descending r", descending)):
        _walk_state.cache_clear()
        for g, parts in order:
            assert factorization_count(g, Partition(parts)) == expect[g, parts], (name, parts, g)
        assert _walk_state.cache_info().misses == d_max, name


def test_walk_state_keeps_only_the_step_counts_asked_for():
    _walk_state.cache_clear()
    asked = (9, 3, 14, 4, 9, 0, 11)
    for r in asked:
        # r = 2g - 1 + n, with n = 1 for even r and n = 2 for odd r
        mu = Partition((6,) if r % 2 == 0 else (5, 1))
        g = (r + 1 - len(mu)) // 2
        assert factorization_count(g, mu) == _count_by_own_walk(g, mu), r
    walk = _walk_state(6)
    assert walk.steps == sorted(set(asked)) == sorted(walk.vectors)


def test_walk_state_under_concurrent_counts():
    # every thread asks the same degrees in its own order, so steps and
    # stored vectors are read while others add to them
    keys = [(g, parts) for d in (6, 9) for parts in partitions_of(d) for g in range(5)]
    expect = {key: _count_by_own_walk(key[0], Partition(key[1])) for key in keys}
    orders = []
    for seed in range(8):
        order = keys.copy()
        random.Random(seed).shuffle(order)
        orders.append(order)
    _walk_state.cache_clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda order=order: [factorization_count(g, Partition(parts))
                                                          for g, parts in order])
                       for order in orders]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    for order, counts in zip(orders, results):
        assert counts == [expect[key] for key in order]


def test_deep_key_walks_without_recursion():
    mu = Partition((3, 2, 1))
    assert one_part_number(300, mu) == aut_factor(mu) * factorization_count(300, mu)
    # 2001 steps, then keys below and between the stored step counts
    for g in (1000, 5, 300, 999):
        assert factorization_count(g, mu) == _count_by_own_walk(g, mu), g


@pytest.mark.parametrize("parts", [(1,) * 20, (20,), (7, 7, 6), (5, 4, 3, 2, 2, 1, 1, 1, 1)])
def test_degree_20_count_matches_sorted_type_count(parts):
    mu = Partition(parts)
    for g in range(6):
        assert factorization_count(g, mu) == _count_by_sorted_types(g, mu), g


def test_partition_refuses_parts_that_are_not_integers():
    # 1.5 used to construct and make one_part_number raise TypeError
    for parts, bad in (((1.5,), 1.5), ((True, 1), True), ((2, Fraction(3)), Fraction(3)),
                       ((3, "1"), "1")):
        with pytest.raises(ValueError, match=re.escape(f"part {bad!r} is not an integer")):
            Partition(parts)
    assert Partition((3, 1, 2)).parts == (3, 2, 1)


def test_one_part_polynomial_examples():
    assert one_part_polynomial(0, 2) == MultiPoly.const(1, slot_names(2))
    p = one_part_polynomial(0, 3)
    total = sum((MultiPoly.var(v, slot_names(3)) for v in slot_names(3)),
                MultiPoly((), {}))
    assert p == total * 2
    p = one_part_polynomial(1, 1)
    # mu(mu^2 - 1)/12
    assert p * 12 == MultiPoly(("a1",), {(3,): 1, (1,): -1})
    assert p.evaluate({"a1": 3}) == 2 == one_part_number(1, Partition((3,)))
    with pytest.raises(ValueError):
        one_part_polynomial(0, 1)


def test_one_part_divisibility():
    # the polynomial is divisible by (sum mu)^(r-1), in particular by sum mu
    # whenever that exponent is positive (at r = 1 the polynomial is constant)
    for g in range(0, 3):
        for n in range(1, 4):
            r = 2 * g - 1 + n
            if r - 1 < 1:
                continue
            poly = one_part_polynomial(g, n)
            if poly.is_zero():
                continue
            names = slot_names(n)
            if n == 1:
                # divisibility by mu^(r-1): no monomial below that degree
                assert all(e[0] >= r - 1 for e in poly.terms)
                continue
            # substitute mu_n := -(mu_1 + .. + mu_{n-1}): multiple of sum vanishes
            minus = MultiPoly(names[:-1],
                              {tuple(1 if i == j else 0 for i in range(n - 1)): -1
                               for j in range(n - 1)})
            assert poly.substitute(names[-1], minus).is_zero()


def test_hurwitz_correlator_examples():
    assert hurwitz_correlator([0, 0, 0], 0) == 1
    assert hurwitz_correlator([2], 1) == Fraction(1, 24)
    assert hurwitz_correlator([1, 2], 1) == Fraction(1, 24)
    with pytest.raises(ValueError):
        hurwitz_correlator([1], 0)


def test_hurwitz_correlator_refuses_negative_genus_or_insertion():
    # like correlator: these used to fall outside the level interval and read 0
    for d, g in (([-1, 2], 1), ([0, 0, 0, 0, 0], -1), ([3, -2, 0], 2)):
        with pytest.raises(ValueError, match="negative genus grade or insertion"):
            hurwitz_correlator(d, g)


def test_one_part_number_and_count_refuse_negative_genus():
    # at g = -1 with four parts r = 1, so neither call refused before
    mu = Partition((1, 1, 1, 1))
    with pytest.raises(ValueError, match="negative genus grade"):
        one_part_number(-1, mu)
    with pytest.raises(ValueError, match="negative genus grade"):
        factorization_count(-1, mu)


def test_hurwitz_tau0_examples():
    assert hurwitz_correlator([0, 3], 1) == Fraction(1, 24)
    assert hurwitz_correlator([0, 0, 0], 0) == 1
    assert hurwitz_correlator([0, 7], 2) == Fraction(1, 1920)


def test_vanishing_interval_and_parity():
    for g in range(0, 3):
        for n in range(1, 4):
            if 2 * g - 3 + n < 0:
                continue
            for d in itertools.combinations_with_replacement(range(13), n):
                total = sum(d)
                if total > 12:
                    continue
                value = hurwitz_correlator(d, g)
                inside = 2 * g - 3 + n <= total <= 4 * g - 3 + n
                parity_ok = (total - n) % 2 != 0
                if not (inside and parity_ok):
                    assert value == 0, (d, g)


def test_gjv_string_equation():
    for g in range(0, 3):
        for n in range(1, 4):
            if 2 * g - 3 + n < 0 or 2 * g - 2 + n < 0:
                continue
            cap = 4 * g - 3 + n
            for d in itertools.combinations_with_replacement(range(max(cap, 0) + 1), n):
                if sum(d) > cap:
                    continue
                lhs = hurwitz_correlator((0,) + d, g)
                rhs = Fraction(0)
                for i in range(n):
                    if d[i] > 0:
                        child = list(d)
                        child[i] -= 1
                        rhs += hurwitz_correlator(child, g)
                assert lhs == rhs, (d, g)


def test_factorization_count_examples():
    assert factorization_count(0, Partition((2,))) == Fraction(1, 2)
    assert factorization_count(0, Partition((1, 1))) == Fraction(1, 2)
    assert factorization_count(1, Partition((3,))) == 2
    with pytest.raises(ValueError):
        factorization_count(0, Partition((DEFAULT_DEGREE_CAP + 1,)))


def test_one_walk_per_degree_matches_the_per_key_counts():
    # one walk from the d-cycle, read after each r = 2g-1+n steps, against a
    # walk of its own for every key
    keys = 0
    for d in range(1, 11):
        counts = factorization_counts(d, 3)
        assert len(counts) == 4 * len(list(partitions_of(d)))
        for parts in partitions_of(d):
            for g in range(4):
                assert counts[parts, g] == factorization_count(g, Partition(parts)), (parts, g)
                keys += 1
    assert keys == 552
    # r = 0, 1, 2: the 3-cycle itself, then one and two transpositions, over 3
    assert factorization_counts(3, 0) == {((3,), 0): Fraction(1, 3), ((2, 1), 0): 1,
                                          ((1, 1, 1), 0): 1}


def test_one_walk_per_degree_refuses_what_the_per_key_count_refuses():
    with pytest.raises(ValueError, match="negative genus grade"):
        factorization_counts(4, -1)
    with pytest.raises(ValueError, match="factorization-count cap"):
        factorization_counts(DEFAULT_DEGREE_CAP + 1, 1)
    with pytest.raises(ValueError, match="factorization-count cap"):
        factorization_counts(0, 1)


def test_factorization_count_convention_invariance():
    for g in range(0, 2):
        for parts in partitions_of(4):
            mu = Partition(parts)
            a = _count_by_permutations(g, mu, left_to_right=True)
            b = _count_by_permutations(g, mu, left_to_right=False)
            assert a == b, (g, parts)


def test_cut_and_join_matches_permutation_count():
    keys = 0
    for d in range(1, 7):
        for parts in partitions_of(d):
            mu = Partition(parts)
            for g in range(4):
                count = factorization_count(g, mu)
                assert count == _count_by_permutations(g, mu), (parts, g)
                keys += 1
    assert keys == 116


def test_closed_form_equals_aut_times_count_to_degree_10():
    keys = 0
    for d in range(1, 11):
        for parts in partitions_of(d):
            mu = Partition(parts)
            for g in range(4):
                count = factorization_count(g, mu)
                assert one_part_number(g, mu) == aut_factor(mu) * count, (parts, g)
                keys += 1
    assert keys == 552


_PARTITIONS_11_TO_16 = [Partition(parts) for d in range(11, 17)
                        for parts in partitions_of(d) if len(parts) <= 6]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(mu=st.sampled_from(_PARTITIONS_11_TO_16), g=st.integers(0, 2))
def test_closed_form_equals_aut_times_count_random_high_degree(mu, g):
    assert one_part_number(g, mu) == aut_factor(mu) * factorization_count(g, mu)


def test_aut_factor():
    assert aut_factor(Partition((1, 1))) == 2
    assert aut_factor(Partition((2, 3))) == 1
    assert aut_factor(Partition((2, 2, 2))) == 6

