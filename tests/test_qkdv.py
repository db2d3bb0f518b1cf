"""Hamiltonian densities, the commutator engine and its oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwk.algebra import GaussRat, I, MultiPoly
from qwk.correlators import correlator, correlator_tau0
from qwk.diffpoly import d_dp0
from qwk.hurwitz import hurwitz_correlator
from qwk.qkdv import (LEFT, RIGHT, _hamiltonian_term, _nested, _picker, _prefix, _split,
                      _string_point_bracket, bracket, hamiltonian_density,
                      integrate_hamiltonian, nested_bracket)
from qwk.special import _ehrhart_cached
from qwk.symbols import (DENSITY, INTEGRATED, FourierSymbol, d_x,
                         density, eval_string_point, make_term, slot_names,
                         symbols_equal, symmetrize, u0_symbol)
from qwk.weyl import monomial_mode_sum, symbol_to_weyl, weyl_commutator_over_hbar


def test_hamiltonian_minus_one_is_u0():
    assert symbols_equal(hamiltonian_density(-1), u0_symbol())
    with pytest.raises(ValueError):
        hamiltonian_density(-2)


def test_hamiltonian_zero():
    h0 = hamiltonian_density(0)
    by_key = {(t.grade, t.m): t.coeff for t in h0.terms}
    assert by_key[(0, 2)] == MultiPoly.const(Fraction(1, 2), slot_names(2))
    assert by_key[(1, 0)] == MultiPoly.const(Fraction(-1, 24), ())
    assert set(by_key) == {(0, 2), (1, 0)}


def test_hamiltonian_one():
    h1 = hamiltonian_density(1)
    by_key = {(t.grade, t.m): t.coeff for t in h1.terms}
    assert by_key[(0, 3)] == MultiPoly.const(Fraction(1, 6), slot_names(3))
    # (2 a^2 - 1)/24
    assert by_key[(1, 1)] == MultiPoly(
        slot_names(1), {(2,): Fraction(1, 12), (0,): Fraction(-1, 24)})


def test_string_lemma_for_hamiltonians():
    for d in range(0, 7):
        lhs = d_dp0(hamiltonian_density(d))
        rhs = hamiltonian_density(d - 1)
        assert symbols_equal(lhs, rhs), f"d={d}"


def test_integrate_flags_kind():
    h0 = hamiltonian_density(0)
    hb = integrate_hamiltonian(h0)
    assert hb.kind == INTEGRATED and hb.terms == h0.terms
    with pytest.raises(ValueError):
        integrate_hamiltonian(hb)


def test_bracket_h_minus1_hbar0():
    out = bracket(hamiltonian_density(-1), integrate_hamiltonian(hamiltonian_density(0)), 0)
    assert len(out.terms) == 1
    t = out.terms[0]
    assert (t.grade, t.m) == (0, 1)
    assert t.coeff == MultiPoly(slot_names(1), {(1,): 1})


def test_bracket_kind_checks():
    h = hamiltonian_density(0)
    with pytest.raises(ValueError):
        bracket(h, h, 1)
    with pytest.raises(ValueError):
        bracket(integrate_hamiltonian(h), integrate_hamiltonian(h), 1)
    with pytest.raises(ValueError):
        bracket(h, integrate_hamiltonian(h), -1)


def test_density_refuses_negative_grade():
    # like bracket and nested_bracket, instead of an empty symbol
    for d in (-1, 0, 4):
        with pytest.raises(ValueError, match="max_grade must be >= 0"):
            hamiltonian_density(d, max_grade=-1)


def test_bracket_with_hbar0_is_dx_over_i():
    # (1/h)[L, Hbar_0] == (1/i) d_x L for several densities L
    budget = 3
    hbar0 = integrate_hamiltonian(hamiltonian_density(0, max_grade=3))
    for d in range(-1, 4):
        left = hamiltonian_density(d, max_grade=2)
        lhs = bracket(left, hbar0, budget)
        rhs = d_x(left).scale(GaussRat(1) / I)
        assert symbols_equal(symmetrize(lhs), symmetrize(rhs)), f"d={d}"


def test_nested_bracket_examples():
    assert nested_bracket([0, 0], 0) == {0: -I}
    assert nested_bracket([1], 1) == {1: GaussRat(Fraction(-1, 24))}
    assert nested_bracket([3], 1) == {1: GaussRat(Fraction(-1, 24))}
    with pytest.raises(ValueError):
        nested_bracket([], 1)


def demand_grid():
    """Criterion 2's grid, unstable keys included, plus two genus-3 keys with n = 4.

    Insertions run in descending order, as the correlators pass them.
    """
    for g in range(3):
        for n in range(1, 4):
            cap = 4 * g - 3 + n + 2
            for d in itertools.combinations_with_replacement(range(max(cap, 0) + 1), n):
                if sum(d) <= cap:
                    yield d[::-1], g
    # both nonzero at grades 2 and 3
    yield (4, 2, 1, 1), 3
    yield (5, 2, 2, 1), 3


def test_demanded_nested_bracket_matches_full_chain():
    # the oracle: the full commutator at every step, then the string point;
    # full chains with a common prefix share their intermediate brackets
    chains = {}

    def full(d_list, g):
        if (d_list, g) not in chains:
            if len(d_list) == 1:
                chains[d_list, g] = hamiltonian_density(d_list[0] - 1, max_grade=g)
            else:
                right = integrate_hamiltonian(hamiltonian_density(d_list[-1], max_grade=g))
                chains[d_list, g] = bracket(full(d_list[:-1], g), right, g)
        return chains[d_list, g]

    keys = nonzero_below_top = 0
    for d_list, g in demand_grid():
        expected = eval_string_point(full(d_list, g))
        assert nested_bracket(d_list, g) == expected, (d_list, g)
        keys += 1
        nonzero_below_top += any(grade < g for grade in expected)
    assert keys == 155 and nonzero_below_top > 20
    for d_list in ((4, 2, 1, 1), (5, 2, 2, 1)):
        assert set(nested_bracket(d_list, 3)) == {2, 3}
    # with the smallest insertion first, the right operands are the larger
    # densities, and only then do their terms reach the demand of
    # g - grade + 1 + L exponents of 2 or more
    ascending = 0
    for d_list, g in demand_grid():
        if len(d_list) + g <= 4:
            d_list = d_list[::-1]
            assert nested_bracket(d_list, g) == eval_string_point(full(d_list, g)), (d_list, g)
            ascending += 1
    assert ascending == 86


def test_shared_prefixes_give_cold_values():
    # every key evaluated after all the others reuses their intermediates;
    # the same key right after the prefix memo is cleared builds its own
    keys = list(demand_grid())
    keys += [(d_list[::-1], g) for d_list, g in keys if len(d_list) > 1]
    _prefix.cache_clear()
    for d_list, g in keys:
        nested_bracket(d_list, g)
    hits = _prefix.cache_info().hits
    warm = {key: nested_bracket(*key) for key in keys}
    assert _prefix.cache_info().hits > hits > 0
    for key in keys:
        _prefix.cache_clear()
        assert nested_bracket(*key) == warm[key], key
    # the last bracket is never kept, so a one-bracket key leaves only its density
    _prefix.cache_clear()
    nested_bracket((3, 1), 1)
    assert _prefix.cache_info().currsize == 1


def in_window(d_list, g):
    """Whether (0, d_list) at genus grade g lies in the commutator's degree window."""
    total, n = sum(d_list), len(d_list)
    return (total - n) % 2 == 0 and 4 * g >= total + 2 - n


def test_degree_window_against_unwindowed_engine():
    # every tau_0 key with g <= 4, n <= 4 (n <= 3 at g = 4) and sum d <= 4g + n + 2:
    # the window returns what the engine without it computes, a key outside it
    # evaluates to nothing, and inside it no grade below (S + 2 - n) / 4 appears
    outside = inside = 0
    for g in range(5):
        for n in range(1, (4 if g < 4 else 3) + 1):
            cap = 4 * g + n + 2
            for d in itertools.combinations_with_replacement(range(cap + 1), n):
                if sum(d) > cap:
                    continue
                d_list = d[::-1]
                full = _nested(d_list, g)
                assert nested_bracket(d_list, g) == full, (d_list, g)
                if in_window(d_list, g):
                    inside += 1
                    assert all(4 * grade >= sum(d) + 2 - n for grade in full), (d_list, g, full)
                else:
                    outside += 1
                    assert full == {}, (d_list, g, full)
    assert (outside, inside) == (1500, 557)


@pytest.mark.parametrize("g", range(1, 6))
@pytest.mark.parametrize("n", range(1, 4))
def test_top_of_degree_window_is_nonzero(g, n):
    # (0, 4g-1, 1^(n-1)) sits on the window's bound 4g = S + 2 - n
    d_list = (4 * g - 1,) + (1,) * (n - 1)
    assert in_window(d_list, g) and 4 * g == sum(d_list) + 2 - n
    value = correlator_tau0(d_list, g)
    assert value != 0
    assert value == hurwitz_correlator((0,) + d_list, g)


@pytest.mark.parametrize("g", (10, 15, 20))
def test_one_point_key_at_top_of_window_builds_one_orbit(g):
    # <tau_(4g-2)> = <tau_0 tau_(4g-1)> reads H_(4g-2), asked for at most g - t
    # exponents off 1 at grade t, on 4g - 2t slots; 3g - t of them on 1 fit
    # the degree 2t only at t = g, whose one orbit is 2g ones
    _hamiltonian_term.cache_clear()
    value = correlator((4 * g - 2,), g)
    assert value != 0 and value == hurwitz_correlator((4 * g - 2,), g)
    assert _hamiltonian_term.cache_info().misses == 1
    term = _hamiltonian_term(4 * g - 2, g, (LEFT, 0))
    assert list(term.coeff.terms) == [(1,) * (2 * g)]


@pytest.mark.parametrize("d_list, g", [((3, 2), 2), ((9, 4, 2), 2)])
def test_keys_outside_degree_window_build_nothing(d_list, g):
    # (3, 2) at g = 2 is ruled out by parity alone, (9, 4, 2) at g = 2 by the
    # bound alone; neither builds a density, a bracket or an Ehrhart table
    assert not in_window(d_list, g)
    memos = (_prefix, _hamiltonian_term, _ehrhart_cached)
    for memo in memos:
        memo.cache_clear()
    assert nested_bracket(d_list, g) == {}
    assert [memo.cache_info().misses for memo in memos] == [0, 0, 0]
    assert _nested(d_list, g) == {}
    assert all(memo.cache_info().misses for memo in memos)


def test_demanded_intermediate_brackets_obey_rule_b():
    # later brackets strike at most g - grade + L slots, and every unstruck
    # slot must end at 1, so a demanded bracket with L >= 1 brackets after it
    # writes no monomial with more exponents off 1 than that
    monomials = 0
    for d_list, g in demand_grid():
        current = hamiltonian_density(d_list[0] - 1, max_grade=g)
        for i, d in enumerate(d_list[1:-1], 2):
            brackets_left = len(d_list) - i
            right = integrate_hamiltonian(hamiltonian_density(d, max_grade=g))
            current = bracket(current, right, g, brackets_left)
            for t in current.terms:
                for e in t.coeff.terms:
                    assert sum(x != 1 for x in e) <= g - t.grade + brackets_left, (d_list, g, e)
                    monomials += 1
    assert monomials > 1000


@st.composite
def keys_with_permuted_tail(draw):
    """(g, d_list, a permutation of d_list[1:]) with g <= 2 and n = 3 or 4.

    Sum d runs over n-2 .. 4g-2+n, where most string-point values are nonzero.
    """
    g = draw(st.integers(0, 2))
    n = draw(st.integers(3, 4))
    total = draw(st.integers(n - 2, 4 * g - 2 + n))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    d_list = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return g, d_list, draw(st.permutations(d_list[1:]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(key=keys_with_permuted_tail())
def test_nested_bracket_symmetric_in_later_insertions(key):
    # the Hbar_d commute, so by the Jacobi identity the order of the brackets
    # after the first does not change the nested commutator
    g, d_list, tail = key
    assert nested_bracket(d_list, g) == nested_bracket([d_list[0], *tail], g)


def test_demanded_last_bracket_keeps_only_all_ones():
    budget = 2
    hbar = {d: integrate_hamiltonian(hamiltonian_density(d, max_grade=budget))
            for d in range(4)}
    lefts = [hamiltonian_density(d, max_grade=budget) for d in range(-1, 4)]
    # multi-block left operands, as a nested commutator produces them
    lefts += [bracket(hamiltonian_density(2, max_grade=budget), hbar[1], budget),
              bracket(hamiltonian_density(3, max_grade=budget), hbar[2], budget)]
    nonzero = 0
    for left, right in itertools.product(lefts, hbar.values()):
        demanded = bracket(left, right, budget, 0)
        for t in demanded.terms:
            assert set(t.coeff.terms) == {(1,) * t.m}, t
        value = eval_string_point(demanded)
        assert value == eval_string_point(bracket(left, right, budget))
        # nested_bracket contracts its last bracket to the same value
        assert _string_point_bracket(left, right, budget) == value
        nonzero += bool(value)
    assert nonzero > 10


def test_demand_is_exact_on_random_left_operands():
    # rules A and B rest only on how strikes move slot exponents: a random
    # symmetric left operand through two Hamiltonian brackets agrees too
    rng = random.Random(2)
    trials = nonzero = 0
    while trials < 12:
        left = random_symbol(rng, DENSITY, max_m=3)
        if left.is_zero():
            continue
        trials += 1
        budget = rng.randint(1, 3)
        r1, r2 = (integrate_hamiltonian(hamiltonian_density(rng.randint(0, 3), max_grade=budget))
                  for _ in range(2))
        value = eval_string_point(bracket(bracket(left, r1, budget, 1), r2, budget, 0))
        assert value == eval_string_point(bracket(bracket(left, r1, budget), r2, budget))
        nonzero += bool(value)
    assert nonzero >= 6


def test_contracted_last_bracket_on_random_left_operands():
    # nested_bracket contracts its last bracket to one value per strike; the
    # oracle builds rule A's output symbol and reads its string point.  Random
    # symmetric left operands, non-real ones among them, against Hamiltonians,
    # random integrated operands and unsymmetrized ones
    rng = random.Random(21)
    trials = nonreal = nonzero = 0
    while trials < 40:
        # exponents up to 1 reach the string point more often; exponents of 2
        # are what the survivor filters drop
        left = random_symbol(rng, DENSITY, max_m=3, max_deg=1 + trials % 2)
        right = (integrate_hamiltonian(hamiltonian_density(rng.randint(0, 3), max_grade=3)),
                 random_symbol(rng, INTEGRATED, max_m=3),
                 unsymmetrized_integrated(rng))[trials % 3]
        if left.is_zero() or right.is_zero():
            continue
        trials += 1
        budget = 1 + trials % 3
        value = eval_string_point(bracket(left, right, budget, 0))
        assert _string_point_bracket(left, right, budget) == value, (left, right, budget)
        nonzero += bool(value)
        nonreal += not all(c.is_real() for c in value.values())
    assert nonzero >= 14 and nonreal >= 12


def _within(terms, kept, target, allowed):
    """The terms with at most ``allowed`` survivor exponents outside ``target``:
    the survivor filter as it ran before the split, kept as the reference."""
    if len(kept) <= allowed:
        return terms
    survivors = _picker(kept)
    need = len(kept) - allowed      # survivor exponents that must be on target
    if len(target) == 1:
        t, = target
        return {exps: c for exps, c in terms.items() if survivors(exps).count(t) >= need}
    t0, t1 = target
    return {exps: c for exps, c in terms.items()
            if (on := survivors(exps)).count(t0) + on.count(t1) >= need}


def _split_unfiltered(terms, struck, kept, sign):
    """The split with no survivor filter, as it ran after ``_within``."""
    k_of, rest_of = _picker(struck), _picker(kept)
    out = {}
    for exps, c in terms.items():
        out.setdefault(k_of(exps), []).append((rest_of(exps), c))
    if sign < 0:
        for k_exps, items in out.items():
            if sum(k_exps) % 2:
                out[k_exps] = [(rest, -c) for rest, c in items]
    return out


def test_split_filters_survivors_as_filter_then_split():
    # _split drops the terms with more than ``allowed`` survivor exponents off
    # target in the pass that groups them; the reference filters, then splits
    rng = random.Random(24)
    compared = dropped = kept_some = 0
    for _ in range(300):
        m = rng.randint(1, 5)
        terms = {}
        for _ in range(rng.randint(1, 12)):
            e = tuple(rng.choice((0, 1, 1, 2, 3)) for _ in range(m))
            terms[e] = (GaussRat(rng.randint(-4, 4) or 1, rng.randint(-1, 1)) if rng.random() < 0.2
                        else rng.choice((-3, -1, 1, 2, 5)))
        slots = list(range(m))
        rng.shuffle(slots)
        q = rng.randint(1, m)
        struck, kept = slots[:q], sorted(slots[q:])
        sign = rng.choice((1, -1))
        for target in (LEFT, RIGHT):
            for allowed in range(len(kept) + 2):
                filtered = _within(terms, kept, target, allowed)
                expected = _split_unfiltered(filtered, struck, kept, sign)
                assert _split(terms, struck, kept, sign, target, allowed) == expected, (
                    terms, struck, kept, sign, target, allowed)
                compared += 1
                dropped += len(filtered) < len(terms)
                kept_some += bool(filtered)
    assert compared > 1000 and dropped > 300 and kept_some > 700


def test_bracket_refuses_negative_brackets_left():
    h = hamiltonian_density(0)
    with pytest.raises(ValueError, match="brackets_left must be >= 0"):
        bracket(h, integrate_hamiltonian(h), 1, -1)


def test_hamiltonian_density_refuses_malformed_demand():
    with pytest.raises(ValueError, match="demand bound must be >= 0"):
        hamiltonian_density(4, max_grade=2, demand=(LEFT, -1))
    for target in ((2,), (0,), (1, 0), "left", None):
        with pytest.raises(ValueError, match="demand target must be LEFT or RIGHT"):
            hamiltonian_density(4, max_grade=2, demand=(target, 3))


def test_tau_symmetry():
    budget = 3
    for d1 in range(0, 5):
        for d2 in range(d1, 5):
            left = bracket(hamiltonian_density(d1 - 1, max_grade=budget),
                           integrate_hamiltonian(hamiltonian_density(d2, max_grade=budget)),
                           budget)
            right = bracket(hamiltonian_density(d2 - 1, max_grade=budget),
                            integrate_hamiltonian(hamiltonian_density(d1, max_grade=budget)),
                            budget)
            assert symbols_equal(left, right), (d1, d2)


def zero_mode_vanishes(sym: FourierSymbol) -> bool:
    grouped = {}
    for t in symmetrize(sym).terms:
        grouped.setdefault((t.grade, t.m), []).append(t.coeff)
    for (grade, m), coeffs in grouped.items():
        total = coeffs[0]
        for c in coeffs[1:]:
            total = total + c
        if m == 0:
            if not total.is_zero():
                return False
            continue
        vs = slot_names(m)
        minus_others = MultiPoly(
            tuple(vs[:-1]),
            {tuple(1 if i == j else 0 for i in range(m - 1)): GaussRat(-1)
             for j in range(m - 1)})
        restricted = total.substitute(vs[-1], minus_others)
        if not restricted.is_zero():
            return False
    return True


def test_quantum_integrability_zero_mode():
    budget = 3
    for d1 in range(0, 5):
        for d2 in range(d1, 5):
            c = bracket(hamiltonian_density(d1, max_grade=budget),
                        integrate_hamiltonian(hamiltonian_density(d2, max_grade=budget)),
                        budget)
            assert zero_mode_vanishes(c), (d1, d2)


def random_symbol(rng, kind, max_m=2, max_deg=2, max_grade=1):
    terms = []
    for _ in range(rng.randint(1, 2)):
        m = rng.randint(1, max_m)
        exps = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, max_deg) for _ in range(m))
            exps[e] = GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                               Fraction(rng.randint(-1, 1)))
        terms.append(make_term(rng.randint(0, max_grade), m, MultiPoly(slot_names(m), exps)))
    sym = symmetrize(FourierSymbol(DENSITY, tuple(terms)))
    if kind == INTEGRATED:
        return FourierSymbol(INTEGRATED, sym.terms)
    return sym


def weyl_comparisons(left, right, sym, modes, max_grade=None):
    """Assert that ``sym`` is the Weyl-algebra commutator of left and right on every
    monomial of mode sum <= modes (and hbar grade <= max_grade); return the count."""
    direct = weyl_commutator_over_hbar(
        symbol_to_weyl(left, modes), symbol_to_weyl(right, modes), modes)
    via = symbol_to_weyl(sym, modes)
    comparisons = 0
    for key in set(direct.terms) | set(via.terms):
        if monomial_mode_sum(key[1:], modes) > modes or (
                max_grade is not None and key[0] > max_grade):
            continue
        comparisons += 1
        assert direct.terms.get(key, GaussRat(0)) == via.terms.get(key, GaussRat(0)), key
    return comparisons


def test_bracket_against_weyl_oracle():
    rng = random.Random(99)
    modes = 5
    trials = 0
    comparisons = 0
    while trials < 10:
        left = random_symbol(rng, DENSITY)
        right = random_symbol(rng, INTEGRATED)
        if left.is_zero() or right.is_zero():
            continue
        trials += 1
        budget = left.max_grade() + right.max_grade() + min(
            max(t.m for t in left.terms), max(t.m for t in right.terms))
        comparisons += weyl_comparisons(left, right, bracket(left, right, budget), modes)
    assert comparisons > 50


def coefficients(sym):
    return [c for t in sym.terms for c in t.coeff.terms.values()]


def test_bracket_returns_gaussrat_coefficients():
    # the kernel computes with plain Fractions, but every coefficient a bracket
    # returns is a GaussRat, a real one with the imaginary part 0, on the
    # demanded chain of a nested commutator and on the full one
    checked = 0
    for d_list, g in (((3, 2, 1), 2), ((4, 3, 2), 2), ((2, 2, 2, 1), 2), ((4, 2, 1, 1), 3)):
        for demanded in (True, False):
            current = hamiltonian_density(d_list[0] - 1, max_grade=g)
            for i, d in enumerate(d_list[1:], 2):
                right = integrate_hamiltonian(hamiltonian_density(d, max_grade=g))
                current = bracket(current, right, g, len(d_list) - i if demanded else None)
                for c in coefficients(current):
                    assert type(c) is GaussRat and type(c.re) is Fraction and c.im == 0, c
                    checked += 1
    assert checked > 1000


def test_nonreal_bracket_against_weyl_oracle():
    # a non-real coefficient goes through the same kernel as a GaussRat
    rng = random.Random(5)
    modes = 4
    trials = nonreal = comparisons = 0
    while trials < 8:
        left = random_symbol(rng, DENSITY)
        right = random_symbol(rng, INTEGRATED)
        if (left.is_zero() or right.is_zero()
                or all(c.is_real() for c in coefficients(left) + coefficients(right))):
            continue
        trials += 1
        budget = left.max_grade() + right.max_grade() + min(
            max(t.m for t in left.terms), max(t.m for t in right.terms))
        sym = bracket(left, right, budget)
        assert all(type(c) is GaussRat for c in coefficients(sym))
        nonreal += not all(c.is_real() for c in coefficients(sym))
        comparisons += weyl_comparisons(left, right, sym, modes)
    assert nonreal >= 4 and comparisons > 50


PRIMES = (3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def coprime_symbol(rng, kind, min_m=1, max_m=3, max_grade=1):
    """A symmetric symbol whose coefficients carry distinct prime denominators,
    about half of them with a non-real part, also over a distinct prime."""
    primes = iter(rng.sample(PRIMES, len(PRIMES)))
    terms = []
    for _ in range(2):
        m = rng.randint(min_m, max_m)
        exps = {}
        for _ in range(3):
            e = tuple(rng.randint(0, 2) for _ in range(m))
            im = Fraction(rng.choice((-2, -1, 1, 2)), next(primes)) if rng.random() < 0.5 else 0
            exps[e] = GaussRat(Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), next(primes)), im)
        terms.append(make_term(rng.randint(0, max_grade), m, MultiPoly(slot_names(m), exps)))
    return FourierSymbol(kind, symmetrize(FourierSymbol(DENSITY, tuple(terms))).terms)


def denominator_primes(sym):
    """The primes of PRIMES that divide some coefficient's denominator."""
    dens = [x.denominator for c in coefficients(sym) for x in (c.re, c.im)]
    return {p for p in PRIMES if any(d % p == 0 for d in dens)}


def test_integer_kernel_on_coprime_denominators_against_weyl_oracle():
    # the kernel reads each operand term as integer numerators over the lcm of
    # its denominators; distinct primes make every lcm a product, and the
    # non-real parts travel as GaussRat numerators through the same code.  The
    # left operand of the last trials is itself a bracket, with several blocks
    # and the denominators of both its operands
    rng = random.Random(11)
    trials = nonreal = comparisons = 0
    while trials < 8:
        left = coprime_symbol(rng, DENSITY, max_m=2)
        right = coprime_symbol(rng, INTEGRATED, min_m=2)
        if trials >= 6:
            left = bracket(left, coprime_symbol(rng, INTEGRATED, min_m=2, max_m=2), 2)
        if left.is_zero() or right.is_zero():
            continue
        assert len(denominator_primes(left)) >= 3 and len(denominator_primes(right)) >= 3
        trials += 1
        budget = left.max_grade() + right.max_grade() + min(
            max(t.m for t in left.terms), max(t.m for t in right.terms))
        sym = bracket(left, right, budget)
        assert all(type(c) is GaussRat for c in coefficients(sym))
        nonreal += not all(c.is_real() for c in coefficients(sym))
        comparisons += weyl_comparisons(left, right, sym, 3)
    assert nonreal >= 6 and comparisons > 300


def test_hamiltonian_bracket_against_weyl_oracle():
    # not just random symbols: the actual Hamiltonians, small indices
    modes = 5
    for d1, d2 in [(-1, 0), (0, 0), (0, 1), (1, 1)]:
        left = hamiltonian_density(d1, max_grade=1)
        right = integrate_hamiltonian(hamiltonian_density(d2, max_grade=1))
        top = 1 + 1 + min(max(t.m for t in left.terms), max(t.m for t in right.terms))
        weyl_comparisons(left, right, bracket(left, right, top), modes)


def test_multi_block_left_operand_against_weyl_oracle():
    # a left operand with two-block terms, so some strikes take slots from two
    # left blocks: [H_1, Hbar_1] has blocks (2,2), (1,1) and (2)
    modes = 4
    left = bracket(hamiltonian_density(1, max_grade=1),
                   integrate_hamiltonian(hamiltonian_density(1, max_grade=1)), 1)
    assert {t.blocks for t in left.terms} == {(2, 2), (1, 1), (2,)}
    right = integrate_hamiltonian(hamiltonian_density(0, max_grade=1))
    assert weyl_comparisons(left, right, bracket(left, right, 2), modes, max_grade=1) == 52


def unsymmetrized_integrated(rng, max_grade=1):
    """An integrated operand with m = 2..3 slots and singleton blocks."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        m = rng.randint(2, 3)
        exps = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 1) for _ in range(m))
            exps[e] = GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                               Fraction(rng.randint(-1, 1)))
        terms.append(make_term(rng.randint(0, max_grade), m, MultiPoly(slot_names(m), exps)))
    return FourierSymbol(INTEGRATED, density(terms).terms)


def test_unsymmetrized_right_operand_against_weyl_oracle():
    # bracket symmetrizes its right operand on entry; feed it one that is not
    rng = random.Random(7)
    modes = 3
    trials = nonzero = 0
    comparisons = 0
    while trials < 6:
        left = random_symbol(rng, DENSITY)
        right = unsymmetrized_integrated(rng)
        if left.is_zero() or right.is_zero():
            continue
        trials += 1
        assert all(t.blocks == (1,) * t.m for t in right.terms)
        max_grade = left.max_grade() + right.max_grade() + min(
            max(t.m for t in left.terms), max(t.m for t in right.terms))
        sym = bracket(left, right, max_grade)
        nonzero += not sym.is_zero()
        assert symbols_equal(sym, bracket(left, symmetrize(right), max_grade))
        comparisons += weyl_comparisons(left, right, sym, modes)
    assert nonzero >= 4 and comparisons > 50
