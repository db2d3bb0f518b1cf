"""Fourier-symbol operations: symmetrization, derivations, conversions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwk.algebra import GaussRat, I, MultiPoly
from qwk.qkdv import bracket, hamiltonian_density, integrate_hamiltonian
from qwk.diffpoly import (DiffPoly, d_dp0, from_diff_poly, mode_derivative_zero_mode,
                          to_diff_poly, variational_derivative)
from qwk.symbols import (DENSITY, INTEGRATED, FourierSymbol, SymbolTerm, d_x, density,
                         eval_string_point, make_term, slot_names, symbols_equal,
                         symmetrize, u0_symbol)


def sym_of_terms(*terms):
    return density(list(terms))


def random_diff_poly(rng, max_terms=3, max_order=3, max_size=3, max_grade=1):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(0, max_size)
        orders = tuple(sorted(rng.randint(0, max_order) for _ in range(size)))
        c = GaussRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                     Fraction(rng.randint(-2, 2), 1))
        terms[(orders, rng.randint(0, max_grade))] = c
    return DiffPoly(terms)


def test_symmetrize_examples():
    # a1^2 on two slots -> (a1^2 + a2^2)/2
    t = make_term(0, 2, MultiPoly(slot_names(2), {(2, 0): 1}))
    s = symmetrize(sym_of_terms(t))
    assert s.terms[0].coeff == MultiPoly(
        slot_names(2), {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
    # already symmetric a1*a2 unchanged
    t = make_term(0, 2, MultiPoly(slot_names(2), {(1, 1): 1}))
    s = symmetrize(sym_of_terms(t))
    assert s.terms[0].coeff == MultiPoly(slot_names(2), {(1, 1): 1})
    # antisymmetric part dies
    t = make_term(0, 2, MultiPoly(slot_names(2), {(1, 0): 1, (0, 1): -1}))
    assert symmetrize(sym_of_terms(t)).is_zero()


def test_coefficient_must_be_over_the_slots_in_order():
    for variables in (("a1",), ("a2", "a1"), ("x", "y"), ("a1", "a2", "a3")):
        poly = MultiPoly(variables, {(1,) * len(variables): 1})
        with pytest.raises(ValueError):
            SymbolTerm(0, 2, poly, (2,))
        with pytest.raises(ValueError):
            make_term(0, 2, poly)
    assert make_term(0, 2, MultiPoly(slot_names(2), {(1, 0): 1})).blocks == (1, 1)


def test_symmetrize_idempotent():
    rng = random.Random(0)
    for _ in range(30):
        m = rng.randint(1, 4)
        poly = MultiPoly(slot_names(m),
                         {tuple(rng.randint(0, 2) for _ in range(m)): rng.randint(-3, 3)
                          for _ in range(3)})
        s = sym_of_terms(make_term(rng.randint(0, 2), m, poly))
        once = symmetrize(s)
        assert symbols_equal(once, symmetrize(once))
        assert eval_string_point(once) == eval_string_point(s)


def _symmetrize_by_permutations(s):
    """{(grade, slots): coefficient} of symmetrize(s), averaging every term
    over all m! slot permutations and summing per (grade, slots)."""
    acc = {}
    for t in s.terms:
        perms = list(itertools.permutations(range(t.m)))
        terms = {}
        for exps, c in t.coeff.terms.items():
            for p in perms:
                e = tuple(exps[i] for i in p)
                terms[e] = terms.get(e, GaussRat(0)) + c / len(perms)
        poly = MultiPoly(slot_names(t.m), terms)
        key = (t.grade, t.m)
        acc[key] = acc[key] + poly if key in acc else poly
    return {k: p for k, p in acc.items() if not p.is_zero()}


def test_symmetrize_returns_canonical_symbols_as_is():
    for d in range(-1, 6):
        h = hamiltonian_density(d, max_grade=2)
        assert symmetrize(h) is h
        hbar = integrate_hamiltonian(h)
        assert symmetrize(hbar) is hbar
    # random symbols with several blocks per term, repeated (grade, slots)
    # pairs and terms out of order take the general path, which canonicalizes
    rng = random.Random(22)
    blockings = {1: [(1,)], 2: [(1, 1), (2,)], 3: [(1, 2), (2, 1), (1, 1, 1), (3,)],
                 4: [(2, 2), (1, 3), (1, 1, 2)]}
    general = 0
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(1, 4)
            blocks = rng.choice(blockings[m])
            coeff = {}
            for _ in range(rng.randint(1, 3)):
                # one monomial and its rearrangements within each block
                exps = [rng.randint(0, 2) for _ in range(m)]
                c = GaussRat(rng.randint(-3, 3), rng.randint(-1, 1))
                cuts = list(itertools.accumulate((0,) + blocks))
                for parts in itertools.product(*(set(itertools.permutations(exps[lo:hi]))
                                                 for lo, hi in zip(cuts, cuts[1:]))):
                    e = sum(parts, ())
                    coeff[e] = coeff.get(e, GaussRat(0)) + c
            poly = MultiPoly(slot_names(m), coeff)
            terms.append(SymbolTerm(rng.randint(0, 2), m, poly, blocks))
        s = FourierSymbol(rng.choice((DENSITY, INTEGRATED)), tuple(terms))
        out = symmetrize(s)
        general += out is not s
        assert out.kind == s.kind
        assert [(t.grade, t.m) for t in out.terms] == sorted({(t.grade, t.m) for t in out.terms})
        assert all(t.blocks == (t.m,) and not t.coeff.is_zero() for t in out.terms)
        assert {(t.grade, t.m): t.coeff for t in out.terms} == _symmetrize_by_permutations(s)
        assert symmetrize(out) is out
    assert general >= 30


def test_d_x_examples():
    u0 = u0_symbol()
    du = d_x(u0)
    assert du.terms[0].coeff == MultiPoly(slot_names(1), {(1,): I})
    ddu = d_x(du)
    assert ddu.terms[0].coeff == MultiPoly(slot_names(1), {(2,): GaussRat(-1)})
    const = density([make_term(0, 0, 1)])
    assert d_x(const).is_zero()
    with pytest.raises(ValueError):
        d_x(FourierSymbol(INTEGRATED, u0.terms))


def test_d_dp0_examples():
    const = density([make_term(1, 0, Fraction(-1, 24))])
    assert d_dp0(const).is_zero()
    # m=2 term with coeff a1*a2/2: slot at zero kills the multilinear coeff
    t = make_term(0, 2, MultiPoly(slot_names(2), {(1, 1): Fraction(1, 2)}), blocks=(2,))
    assert d_dp0(sym_of_terms(t)).is_zero()
    # u0^2/2 -> u0
    t = make_term(0, 2, Fraction(1, 2), blocks=(2,))
    out = d_dp0(sym_of_terms(t))
    assert symbols_equal(out, u0_symbol())


def test_eval_string_point_examples():
    assert eval_string_point(u0_symbol()) == {}
    s = density([make_term(0, 1, MultiPoly(slot_names(1), {(1,): 1}))])
    assert eval_string_point(s) == {0: -I}
    s = density([make_term(1, 0, Fraction(-1, 24))])
    assert eval_string_point(s) == {1: GaussRat(Fraction(-1, 24))}


def test_string_point_lemma_dx_vs_dp0():
    # evaluation of d_x equals evaluation of d_dp0 on random symbols
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(1, 3)
        poly = MultiPoly(slot_names(m),
                         {tuple(rng.randint(0, 2) for _ in range(m)):
                          GaussRat(rng.randint(-3, 3), rng.randint(-1, 1))
                          for _ in range(3)})
        s = symmetrize(sym_of_terms(make_term(rng.randint(0, 1), m, poly)))
        if s.is_zero():
            continue
        assert eval_string_point(d_x(s)) == eval_string_point(d_dp0(s))


def test_diff_poly_roundtrip():
    rng = random.Random(2)
    many_factors = [DiffPoly({((1,) * 10, 0): GaussRat(3, -1)}),
                    DiffPoly({((0,) * 4 + (1,) * 3 + (2,) * 3, 1): GaussRat(Fraction(-5, 7))})]
    for d in [random_diff_poly(rng) for _ in range(40)] + many_factors:
        assert to_diff_poly(from_diff_poly(d)) == d


def test_diff_poly_is_a_multipoly_over_h_and_u():
    # u0 u2^2 hbar_u written twice, once unsorted: one term, the grade as h's exponent
    d = DiffPoly({((2, 0, 2), 1): GaussRat(1), ((0, 2, 2), 1): GaussRat(2)})
    assert d.variables == ("h", "u0", "u1", "u2")
    assert d.terms == {(1, 1, 0, 2): GaussRat(3)}
    # a negative order would land on h's exponent
    with pytest.raises(ValueError, match="nonnegative"):
        DiffPoly({((-1,), 0): GaussRat(1)})


def test_from_diff_poly_u1_squared():
    d = DiffPoly({((1, 1), 0): GaussRat(1)})
    s = from_diff_poly(d)
    assert len(s.terms) == 1
    t = s.terms[0]
    assert t.m == 2
    # (i a1)(i a2) = -a1 a2
    assert t.coeff == MultiPoly(slot_names(2), {(1, 1): GaussRat(-1)})


def test_variational_derivative_examples():
    # u0^2/2 -> the one-slot symbol with coefficient 1
    d = DiffPoly({((0, 0), 0): GaussRat(Fraction(1, 2))})
    assert symbols_equal(variational_derivative(d), u0_symbol())
    # u0 -> the constant 1
    d = DiffPoly({((0,), 0): GaussRat(1)})
    out = variational_derivative(d)
    assert symbols_equal(out, density([make_term(0, 0, 1)]))
    assert variational_derivative(DiffPoly()).is_zero()


def test_variational_derivative_matches_mode_route():
    rng = random.Random(3)
    for _ in range(40):
        d = random_diff_poly(rng)
        lhs = variational_derivative(d)
        rhs = mode_derivative_zero_mode(from_diff_poly(d))
        assert symbols_equal(lhs, rhs)


def test_debug_serialization_shape():
    s = density([make_term(1, 1, MultiPoly(slot_names(1), {(1,): I}))])
    blob = s.to_json()
    assert blob == [{"grade": 1, "slots": 1, "blocks": [1], "coeff": {"a1": "0+1*i"}}]


def brute_full_symmetrization(poly, m):
    vs = slot_names(m)
    acc = {}
    perms = list(itertools.permutations(range(m)))
    for perm in perms:
        for e, c in poly.terms.items():
            key = [0] * m
            for i, x in enumerate(e):
                key[perm[i]] = x
            key = tuple(key)
            acc[key] = acc.get(key, c * 0) + c
    return MultiPoly(vs, {e: c * Fraction(1, len(perms)) for e, c in acc.items()})


def random_block_terms(rng):
    # block-symmetric polynomials: products of per-block power sums
    for _ in range(25):
        m = rng.randint(2, 5)
        blocks = []
        left = m
        while left:
            b = rng.randint(1, left)
            blocks.append(b)
            left -= b
        vs = slot_names(m)
        poly = MultiPoly.const(1, vs)
        start = 0
        for b in blocks:
            block_vars = vs[start:start + b]
            e = rng.randint(1, 2)
            piece = MultiPoly.const(rng.randint(1, 3), vs)
            for v in block_vars:
                piece = piece + MultiPoly.var(v, vs) ** e
            poly = poly * piece
            start += b
        yield make_term(0, m, poly, blocks=tuple(blocks))


def bracket_block_terms():
    # what the engine really emits: terms of several blocks, up to six slots
    budget = 2
    h = {d: hamiltonian_density(d, max_grade=budget) for d in range(1, 5)}
    hbar = {d: integrate_hamiltonian(h[d]) for d in (1, 2)}
    outputs = [bracket(h[2], hbar[2], budget), bracket(h[3], hbar[2], budget),
               bracket(h[4], hbar[1], budget),
               bracket(bracket(h[2], hbar[1], budget), hbar[1], budget)]
    return [t for out in outputs for t in out.terms if len(t.blocks) > 1 and t.m <= 6]


def test_block_symmetrization_equals_brute_force():
    # multi-block terms: the orbit average must equal the full m! average
    engine_terms = bracket_block_terms()
    assert len(engine_terms) >= 15 and max(t.m for t in engine_terms) == 6
    for term in list(random_block_terms(random.Random(4))) + engine_terms:
        sym = symmetrize(density([term]))
        brute = brute_full_symmetrization(term.coeff, term.m)
        assert [t.coeff for t in sym.terms] == ([brute] if not brute.is_zero() else []), \
            (term.blocks,)


def orbit_sums(sym):
    acc = {}
    for t in sym.terms:
        for e, c in t.coeff.terms.items():
            key = (t.grade, tuple(sorted(e)))
            acc[key] = acc.get(key, GaussRat(0)) + c
    return {k: c for k, c in acc.items() if c}


@st.composite
def block_terms(draw):
    """A term with a random block layout (m <= 8), symmetric within each block.

    Singleton blocks promise nothing, so all-singleton layouts carry
    coefficients that are not symmetric at all.
    """
    m = draw(st.integers(1, 8))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=m - 1))) if m > 1 else []
    blocks = tuple(b - a for a, b in zip([0] + cuts, cuts + [m]))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        c = GaussRat(draw(st.integers(-4, 4)), draw(st.integers(-1, 1)))
        parts, start = [], 0
        for b in blocks:
            parts.append(set(itertools.permutations(e[start:start + b])))
            start += b
        for pieces in itertools.product(*parts):
            key = sum(pieces, ())
            terms[key] = terms.get(key, GaussRat(0)) + c
    return make_term(draw(st.integers(0, 2)), m, MultiPoly(slot_names(m), terms), blocks)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(terms=st.lists(block_terms(), min_size=1, max_size=3), data=st.data())
def test_symmetrize_is_the_orbit_average(terms, data):
    s = density(terms)
    out = symmetrize(s)
    for t in out.terms:
        assert t.blocks == (t.m,)
        for j in range(t.m - 1):
            swapped = {e[:j] + (e[j + 1], e[j]) + e[j + 2:]: c for e, c in t.coeff.terms.items()}
            assert MultiPoly(t.coeff.variables, swapped) == t.coeff
    assert orbit_sums(out) == orbit_sums(s)
    permuted = []
    for t in s.terms:
        p = data.draw(st.permutations(range(t.m)))
        moved = {tuple(e[p[j]] for j in range(t.m)): c for e, c in t.coeff.terms.items()}
        permuted.append(make_term(t.grade, t.m, MultiPoly(t.coeff.variables, moved)))
    assert symbols_equal(s, density(permuted))
