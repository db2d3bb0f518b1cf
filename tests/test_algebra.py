"""Ring axioms and exact-arithmetic properties of the coefficient layer."""

import random
from fractions import Fraction

import pytest

from qwk.algebra import GaussRat, I, MultiPoly, rat_str
from qwk.special import series_layer, series_product


def random_gauss(rng):
    return GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def random_poly(rng, variables, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[e] = random_gauss(rng)
    return MultiPoly(variables, terms)


def test_gaussrat_basics():
    a = GaussRat(Fraction(1, 2), Fraction(-3, 4))
    b = GaussRat(2, 1)
    assert (a + b) - b == a
    assert a * b / b == a
    assert I * I == GaussRat(-1)
    assert a.conj().conj() == a
    assert GaussRat(5).is_real() and not I.is_real()
    assert (I ** 4) == 1 and (I ** 3) == -I


def test_gaussrat_norm_multiplicative():
    rng = random.Random(1)
    for _ in range(200):
        a, b = random_gauss(rng), random_gauss(rng)
        ab = a * b
        assert ab * ab.conj() == (a * a.conj()) * (b * b.conj())


def test_gaussrat_text_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        a = random_gauss(rng)
        assert Fraction(rat_str(a.re)) == a.re and Fraction(rat_str(a.im)) == a.im
    assert GaussRat(Fraction(3, 4)).to_str() == "3/4"
    assert GaussRat(Fraction(1, 2), Fraction(2, 3)).to_str() == "1/2+2/3*i"
    assert GaussRat(0, -5).to_str() == "0-5*i"
    assert rat_str(Fraction(7, 1)) == "7"
    assert rat_str(Fraction(-7, 3)) == "-7/3"


def test_binomial_square():
    a = MultiPoly.var("a", ("a", "b"))
    b = MultiPoly.var("b", ("a", "b"))
    expansion = (a + b) * (a + b)
    assert expansion == a * a + a * b * 2 + b * b
    assert expansion.coeff_extract({"a": 1, "b": 1}) == 2


def test_binomial_coefficient_extraction():
    x = MultiPoly.var("x")
    fifth = (MultiPoly.const(1, ("x",)) + x) ** 5
    assert fifth.coeff_extract({"x": 3}) == 10


def test_mul_by_zero_absorbs():
    rng = random.Random(3)
    p = random_poly(rng, ("x", "y"))
    zero = MultiPoly(("x", "y"), {})
    assert (p * zero).is_zero()


def test_truncated_product_example():
    # (1 - z^2/24) * (1 + z^2/24 + z^4/1920) truncated at z^4, as z-layers
    lhs = [Fraction(1), 0, Fraction(-1, 24), 0, 0]
    rhs = [Fraction(1), 0, Fraction(1, 24), 0, Fraction(1, 1920)]
    prod = series_product(lhs, rhs)
    assert prod[0] == 1
    assert prod[2] == 0
    # 1/1920 - 1/576 = -7/5760, exact
    assert prod[4] == Fraction(-7, 5760)
    assert len(prod) == 5


def test_ring_axioms_randomized():
    rng = random.Random(4)
    vs = ("x", "y", "z")
    for _ in range(1000):
        a = random_poly(rng, vs, max_deg=2, max_terms=3)
        b = random_poly(rng, vs, max_deg=2, max_terms=3)
        c = random_poly(rng, vs, max_deg=2, max_terms=3)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_product_coefficient_is_convolution():
    rng = random.Random(5)
    for _ in range(50):
        a = random_poly(rng, ("x",), max_deg=4)
        b = random_poly(rng, ("x",), max_deg=4)
        prod = a * b
        for k in range(10):
            direct = GaussRat(0)
            for i in range(k + 1):
                direct = direct + a.coeff_extract({"x": i}) * b.coeff_extract({"x": k - i})
            assert prod.coeff_extract({"x": k}) == direct


def as_z_poly(layers):
    """sum_k layers[k] z^k as one polynomial, with no truncation."""
    z = MultiPoly.var("z", ("z", "w"))
    out = MultiPoly(("z", "w"))
    for k, layer in enumerate(layers):
        out = out + layer * z ** k
    return out


def test_layered_product_is_the_cut_full_product():
    # the layered product discards, never rounds: it equals the untruncated
    # product cut at the order, layer for layer
    rng = random.Random(6)
    for _ in range(100):
        order = rng.randint(0, 4)
        a = [random_poly(rng, ("w",), max_deg=4) for _ in range(order + 1)]
        b = [random_poly(rng, ("w",), max_deg=4) for _ in range(order + 1)]
        full = as_z_poly(a) * as_z_poly(b)
        prod = series_product(a, b)
        assert len(prod) == order + 1
        for k in range(order + 1):
            assert prod[k] == full.coeff_of_var_power("z", k)
            assert series_layer(a, b, k) == prod[k]


def test_layers_of_different_orders_rejected():
    a = [MultiPoly.const(1), MultiPoly.const(1), MultiPoly(()), MultiPoly(())]
    b = a + [MultiPoly(()), MultiPoly(())]
    with pytest.raises(ValueError):
        series_product(a, b)
    with pytest.raises(ValueError):
        series_layer(a, b, 3)


def test_substitute_linear_examples():
    # N := b1 + b2 in N^2
    n2 = MultiPoly(("N",), {(2,): 1})
    b1 = MultiPoly.var("b1", ("b1", "b2"))
    b2 = MultiPoly.var("b2", ("b1", "b2"))
    out = n2.substitute("N", b1 + b2)
    assert out == b1 * b1 + b1 * b2 * 2 + b2 * b2
    # z := A*z in z^2/24
    p = MultiPoly(("z",), {(2,): Fraction(1, 24)})
    az = MultiPoly.var("A", ("A", "z")) * MultiPoly.var("z", ("A", "z"))
    out = p.substitute("z", az)
    assert out.coeff_extract({"A": 2, "z": 2}) == GaussRat(Fraction(1, 24))
    # x := -x in x^3 + x^2 flips the odd part
    p = MultiPoly(("x",), {(3,): 1, (2,): 1})
    out = p.substitute("x", -MultiPoly.var("x"))
    assert out == MultiPoly(("x",), {(3,): -1, (2,): 1})


def test_unknown_variable_raises():
    p = MultiPoly(("x",), {(1,): 1})
    with pytest.raises(KeyError):
        p.coeff_extract({"nope": 1})


def test_evaluate_matches_substitute():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poly(rng, ("x", "y"))
        x0, y0 = rng.randint(-3, 3), rng.randint(-3, 3)
        direct = p.evaluate({"x": x0, "y": y0})
        via = p.substitute("x", x0).substitute("y", y0).coeff_extract({})
        assert direct == via


def test_polynomial_substitution_commutes_with_evaluation():
    # p.substitute(x, r) evaluated at a point == p evaluated with x := r(point)
    rng = random.Random(8)
    for _ in range(100):
        p = random_poly(rng, ("x", "y"), max_deg=3)
        r = random_poly(rng, ("y", "w"), max_deg=2, max_terms=3)
        point = {"y": rng.randint(-3, 3), "w": rng.randint(-3, 3)}
        substituted = p.substitute("x", r)
        lhs = substituted.evaluate(point)
        rhs = p.evaluate({"x": r.evaluate(point), **point})
        assert lhs == rhs
