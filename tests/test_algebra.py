"""Ring axioms and exact-arithmetic properties of the coefficient layer."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwk.algebra import I_POWERS, ZERO, GaussRat, I, MultiPoly, rat_str
from qwk.series import series_product


def coeff_extract(poly, monomial):
    """The exact coefficient of ``monomial`` (variable -> exponent) in ``poly``; 0 if absent."""
    e = [0] * len(poly.variables)
    for v, x in monomial.items():
        try:
            e[poly.variables.index(v)] = x
        except ValueError:
            raise KeyError(f"unknown variable {v!r}") from None
    return poly.terms.get(tuple(e), ZERO)


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
    # the lookup that replaces a power of i, negative exponents included
    assert all(I_POWERS[n % 4] == I ** n and I_POWERS[-n % 4] == (-I) ** n
               for n in range(-9, 10))


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


def test_gaussrat_refuses_floats():
    # a float part would be read as its binary value: GaussRat(0.1) is not 1/10
    for parts in ((0.1,), (1, 0.5), (0.0,), (Fraction(1, 2), -0.0)):
        with pytest.raises(TypeError, match="float"):
            GaussRat(*parts)
    for op in (lambda z: z + 0.5, lambda z: 0.5 + z, lambda z: z * 0.5,
               lambda z: 0.5 * z, lambda z: z - 0.5, lambda z: z / 0.5,
               lambda z: 0.5 / z):
        with pytest.raises(TypeError, match="float"):
            op(GaussRat(1, 1))
    assert GaussRat("1/10") == Fraction(1, 10)


# operands drawn as (re, im) Fraction pairs: real, purely imaginary and mixed;
# a right operand may also be an int or a Fraction, and is the left one of y / x
_PARTS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_PAIRS = st.one_of(_PARTS.map(lambda a: (a, Fraction(0))),
                   _PARTS.map(lambda b: (Fraction(0), b)),
                   st.tuples(_PARTS, _PARTS))
_GAUSS = _PAIRS.map(lambda p: (GaussRat(*p), p))
_RIGHT = st.one_of(_GAUSS,
                   st.integers(-20, 20).map(lambda n: (n, (Fraction(n), Fraction(0)))),
                   _PARTS.map(lambda x: (x, (x, Fraction(0)))))


def _pair_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _pair_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _pair_mul(out, x)
    if n >= 0:
        return out
    a, b = out
    norm = a * a + b * b
    return a / norm, -b / norm


def _assert_pair(z, pair):
    assert type(z) is GaussRat
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == pair
    if pair[1] == 0:
        assert z.im == 0 and z.is_real()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(left=_GAUSS, right=_RIGHT, n=st.integers(-3, 4))
def test_gaussrat_fast_paths_match_pair_arithmetic(left, right, n):
    (x, (a, b)), (y, (c, d)) = left, right
    _assert_pair(x + y, (a + c, b + d))
    _assert_pair(y + x, (a + c, b + d))
    _assert_pair(x - y, (a - c, b - d))
    _assert_pair(y - x, (c - a, d - b))
    _assert_pair(-x, (-a, -b))
    _assert_pair(x * y, _pair_mul((a, b), (c, d)))
    _assert_pair(y * x, _pair_mul((a, b), (c, d)))
    norm = c * c + d * d
    if norm:
        _assert_pair(x / y, ((a * c + b * d) / norm, (b * c - a * d) / norm))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    norm = a * a + b * b
    if norm:
        _assert_pair(y / x, ((c * a + d * b) / norm, (d * a - c * b) / norm))
    else:
        with pytest.raises(ZeroDivisionError):
            y / x
    if n < 0 and (a, b) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x ** n
    else:
        _assert_pair(x ** n, _pair_pow((a, b), n))
    assert (x == y) == (y == x) == ((a, b) == (c, d))
    assert bool(x) == ((a, b) != (0, 0))
    assert hash(x) == (hash(a) if b == 0 else hash((a, b)))
    if x == y:
        assert hash(x) == hash(y)


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                       lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_rebuild_through_the_constructor(roundtrip):
    real, mixed = GaussRat(Fraction(-3, 7)), GaussRat(Fraction(1, 2), -2)
    poly = MultiPoly(("a1", "a2"), {(1, 0): real, (0, 2): mixed, (3, 1): 5})
    for value in (real, mixed, poly):
        got = roundtrip(value)
        assert type(got) is type(value) and got == value
        with pytest.raises(AttributeError, match="immutable"):
            setattr(got, "terms" if type(got) is MultiPoly else "re", None)
    got = roundtrip(real)
    # a real value keeps the shared zero imaginary part that its fast paths test
    assert got.im == 0 and got.im is ZERO.im and got.is_real()
    assert roundtrip(poly).terms[(3, 1)].im is ZERO.im


def test_binomial_square():
    a = MultiPoly.var("a", ("a", "b"))
    b = MultiPoly.var("b", ("a", "b"))
    expansion = (a + b) * (a + b)
    assert expansion == a * a + a * b * 2 + b * b
    assert coeff_extract(expansion, {"a": 1, "b": 1}) == 2


def test_binomial_coefficient_extraction():
    x = MultiPoly.var("x")
    fifth = (MultiPoly.const(1, ("x",)) + x) ** 5
    assert coeff_extract(fifth, {"x": 3}) == 10


def test_mul_by_zero_absorbs():
    rng = random.Random(3)
    p = random_poly(rng, ("x", "y"))
    zero = MultiPoly(("x", "y"), {})
    assert (p * zero).is_zero()


def test_laurent_exponents():
    x = MultiPoly(("x",), {(1,): 1})
    x_inv = MultiPoly(("x",), {(-1,): 1})
    assert x * x_inv == 1
    assert (x + x_inv) * (x - x_inv) == MultiPoly(("x",), {(2,): 1, (-2,): -1})
    with pytest.raises(ValueError, match="negative power"):
        x ** -1


def _laurent(variables):
    return st.dictionaries(st.tuples(*[st.integers(-3, 3)] * len(variables)),
                           _GAUSS.map(lambda g: g[0]), max_size=4).map(
        lambda terms: MultiPoly(variables, terms))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(p=_laurent(("x", "y")), q=_laurent(("y", "z")), c=_GAUSS, n=st.integers(-4, 4))
def test_derivative_is_a_derivation_on_laurent_polynomials(p, q, c, n):
    c = c[0]
    # q lacks x and p lacks z, so each side also meets an absent variable
    for v in ("x", "y", "z"):
        assert (p + q * c).derivative(v) == p.derivative(v) + q.derivative(v) * c
        assert (p * q).derivative(v) == p.derivative(v) * q + p * q.derivative(v)
    x_n = MultiPoly(("x", "y"), {(n, 0): 1})
    assert x_n.derivative("x") == MultiPoly(("x", "y"), {(n - 1, 0): n})
    assert x_n.derivative("y").is_zero()
    absent = p.derivative("z")
    assert absent.is_zero() and absent.variables == p.variables


def test_laurent_evaluate_is_exact():
    x = MultiPoly(("x",), {(1,): 1})
    x_inv = MultiPoly(("x",), {(-1,): 1})
    half = x_inv.evaluate({"x": 2})
    assert isinstance(half, GaussRat) and half == Fraction(1, 2)
    assert (x + x_inv).evaluate({"x": 2}) == Fraction(5, 2)
    assert x_inv.evaluate({"x": Fraction(2)}) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        x_inv.evaluate({"x": 0})


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
                direct = direct + coeff_extract(a, {"x": i}) * coeff_extract(b, {"x": k - i})
            assert coeff_extract(prod, {"x": k}) == direct


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


def test_layers_of_different_orders_rejected():
    a = [MultiPoly.const(1), MultiPoly.const(1), MultiPoly(()), MultiPoly(())]
    b = a + [MultiPoly(()), MultiPoly(())]
    with pytest.raises(ValueError):
        series_product(a, b)


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
    assert coeff_extract(out, {"A": 2, "z": 2}) == GaussRat(Fraction(1, 24))
    # x := -x in x^3 + x^2 flips the odd part
    p = MultiPoly(("x",), {(3,): 1, (2,): 1})
    out = p.substitute("x", -MultiPoly.var("x"))
    assert out == MultiPoly(("x",), {(3,): -1, (2,): 1})


def test_unknown_variable_raises():
    p = MultiPoly(("x",), {(1,): 1})
    with pytest.raises(KeyError):
        coeff_extract(p, {"nope": 1})


def test_evaluate_matches_substitute():
    rng = random.Random(7)
    for _ in range(50):
        p = random_poly(rng, ("x", "y"))
        x0, y0 = rng.randint(-3, 3), rng.randint(-3, 3)
        direct = p.evaluate({"x": x0, "y": y0})
        via = coeff_extract(p.substitute("x", x0).substitute("y", y0), {})
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
