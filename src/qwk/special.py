"""Special series and combinatorial polynomials.

Contents:

  * the even series S(z) = sh(z/2)/(z/2) = sum z^(2l) / (4^l (2l+1)!),
    which carries every intersection-number coefficient in the engine;
  * truncated power series as lists of coefficient layers: layer k is the
    coefficient of z^k, for k up to the order len(layers) - 1, and a layer is
    a MultiPoly, an identities.ExpSum or a plain rational.  The kernels for
    product, inverse, exp and log are the only truncated-series arithmetic in
    the package; a product forms only the layer pairs i + j <= order, so
    nothing above the cutoff is ever computed.  The series
    prod_i S(x_i z) / S(z) is shared by the densities and the Hurwitz formula;
  * Eulerian polynomials E_n(t) via the descent recurrence;
  * the power-sum convolution C^r(N) = sum over compositions
    k_1+...+k_q = N (k_i >= 1) of prod k_i^(r_i), expanded as an exact
    polynomial in N through the Carlitz identity
        sum_{k>=1} k^d t^k = t E_d(t) / (1-t)^(d+1).

C^r(N) has degree q-1+sum(r) and all its monomials share the parity of that
degree; both facts are asserted at construction because the commutator
engine's single-polynomial representation rests on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence, Tuple

from .algebra import GaussRat, MultiPoly, Rat


def _is_zero(c) -> bool:
    return not c if isinstance(c, (int, Fraction, GaussRat)) else c.is_zero()


def _scalar(c) -> GaussRat:
    """The value of a constant layer; ValueError if the layer is not constant."""
    if isinstance(c, (int, Fraction, GaussRat)):
        return GaussRat.of(c)
    if any(any(e) for e in c.terms):
        raise ValueError("constant term in the series variable is not a scalar")
    return next(iter(c.terms.values()), GaussRat(0))


def _dot(xs, ys, zero):
    """sum of x * y over paired layers, skipping zero layers."""
    acc = None
    for x, y in zip(xs, ys):
        if _is_zero(x) or _is_zero(y):
            continue
        p = x * y
        acc = p if acc is None else acc + p
    return zero if acc is None else acc


def _order(a: list, b: list) -> int:
    if len(a) != len(b):
        raise ValueError(f"series of orders {len(a) - 1} and {len(b) - 1} do not combine")
    return len(a) - 1


def series_layer(a: list, b: list, k: int):
    """Layer k of the product a * b, from the pairs i + j == k alone."""
    _order(a, b)
    return _dot(a[:k + 1], b[k::-1], a[0] * b[0] * 0)


def series_product(a: list, b: list) -> list:
    """The product a * b to the common order of its factors."""
    zero = a[0] * b[0] * 0
    return [_dot(a[:k + 1], b[k::-1], zero) for k in range(_order(a, b) + 1)]


def series_inverse(a: list) -> list:
    """q with a * q == 1 to the order of a; layer 0 must be a nonzero constant."""
    u = _scalar(a[0])
    if not u:
        raise ValueError("zero constant term is not invertible")
    w = GaussRat(1) / u
    inv = [a[0] * (w * w)]
    zero = inv[0] * 0
    for n in range(1, len(a)):
        inv.append(_dot(a[1:n + 1], inv[::-1], zero) * -w)
    return inv


def series_exp_log(a: list, mode: str) -> list:
    """exp (layer 0 zero) or log (layer 0 one) of a, to its order.

    Both come from f' = a' f (exp) and a' = f' a (log), read layer by layer:
    n f_n = sum_{k=1..n} k a_k f_(n-k), and
    f_n = a_n - (1/n) sum_{k=1..n-1} k f_k a_(n-k).
    """
    if mode not in ("exp", "log"):
        raise ValueError("mode must be 'exp' or 'log'")
    zero = a[0] * 0
    if mode == "exp":
        if not _is_zero(a[0]):
            raise ValueError("exp needs zero constant term in the series variable")
        ka = [x * k for k, x in enumerate(a)]
        out = [a[0] + 1]
        for n in range(1, len(a)):
            out.append(_dot(ka[1:n + 1], out[::-1], zero) * Fraction(1, n))
        return out
    if not _is_zero(a[0] - 1):
        raise ValueError("log needs constant term 1 in the series variable")
    out = [a[0] - 1]
    kf = [zero]
    for n in range(1, len(a)):
        out.append(a[n] - _dot(kf[1:], a[n - 1:0:-1], zero) * Fraction(1, n))
        kf.append(out[n] * n)
    return out


def s_series_of(form, order: int) -> list:
    """S(form * z) to z^order, for a polynomial or rational ``form``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    f2 = form * form
    power = form ** 0
    out = [power]
    for k in range(1, order + 1):
        if k % 2:
            out.append(form * 0)
            continue
        power = power * f2
        l = k // 2
        out.append(power * Fraction(1, 4**l * factorial(2 * l + 1)))
    return out


def s_series(order: int) -> list:
    """S(z) to z^order as rationals; even, constant term 1."""
    return s_series_of(Fraction(1), order)


def s_quotient_series(names: Tuple[str, ...], order: int) -> list:
    """prod_i S(x_i z) / S(z) to z^order, with layers over the variables ``names``."""
    prod = [MultiPoly.const(c, names) for c in series_inverse(s_series(order))]
    for name in names:
        prod = series_product(prod, s_series_of(MultiPoly.var(name, names), order))
    return prod


# ----------------------------------------------------------------------
# Eulerian polynomials

@lru_cache(maxsize=None)
def _euler_row(n: int) -> Tuple[int, ...]:
    """Descent counts <n,k> for k < max(n, 1), by the Eulerian recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (1,)
    prev = _euler_row(n - 1)
    return tuple((k + 1) * (prev[k] if k < len(prev) else 0)
                 + (n - k) * (prev[k - 1] if k >= 1 else 0)
                 for k in range(n))


def eulerian_number(n: int, k: int) -> int:
    row = _euler_row(n)
    return row[k] if 0 <= k < len(row) else 0


def eulerian_polynomial(n: int, var: str = "t") -> MultiPoly:
    """E_n(t) = sum_k <n,k> t^k; E_n(1) = n!."""
    row = _euler_row(n)
    return MultiPoly((var,), {(k,): c for k, c in enumerate(row) if c})


# ----------------------------------------------------------------------
# Ehrhart power-sum convolution

@dataclass(frozen=True)
class EhrhartPoly:
    """Polynomial in N equal to the composition power sum for all integers N >= q."""

    poly: MultiPoly          # univariate in ``N``
    arity: int               # q, number of composition parts
    exponents: Tuple[int, ...]

    def __call__(self, n: int) -> GaussRat:
        return self.poly.evaluate({"N": n})


@lru_cache(maxsize=None)
def _ehrhart_cached(r: Tuple[int, ...]) -> EhrhartPoly:
    q = len(r)
    total = sum(r)
    degree = q - 1 + total
    # numerator of prod_i t*E_{r_i}(t) / (1-t)^(r_i+1) over (1-t)^D
    num = MultiPoly.const(1, ("t",))
    t = MultiPoly.var("t")
    for ri in r:
        num = num * t * eulerian_polynomial(ri)
    d_total = q + total
    # [t^N] num/(1-t)^D = sum_j num_j * binom(N-j+D-1, D-1), a polynomial in N
    n_var = MultiPoly.var("N")
    acc = MultiPoly(("N",), {})
    fact = Fraction(1, factorial(d_total - 1))
    for (j,), cj in num.terms.items():
        prod = MultiPoly.const(cj * fact, ("N",))
        for i in range(d_total - 1):
            prod = prod * (n_var + (d_total - 1 - j - i))
        acc = acc + prod
    got_deg = acc.degree()
    if got_deg != degree:
        raise AssertionError(f"Ehrhart degree {got_deg} != {degree} for r={r}")
    # pure parity holds under the lemma's hypothesis (all exponents positive);
    # the commutator engine's branch gluing rests on it, and only ever uses
    # exponents >= 1 because of the k_1...k_q prefactor
    if all(x >= 1 for x in r):
        for (e,), _c in acc.terms.items():
            if (e - degree) % 2 != 0:
                raise AssertionError(f"Ehrhart parity violated at N^{e} for r={r}")
    return EhrhartPoly(acc, q, r)


def ehrhart_convolution(r: Sequence[int]) -> EhrhartPoly:
    """The unique polynomial matching sum_{k_1+..+k_q=N, k_i>=1} prod k_i^{r_i} for N >= q."""
    r = tuple(r)
    if not r:
        raise ValueError("empty exponent list")
    if any(x < 0 for x in r):
        raise ValueError("negative exponent")
    canon = _ehrhart_cached(tuple(sorted(r)))
    return EhrhartPoly(canon.poly, canon.arity, r)


def ehrhart_brute_force(r: Sequence[int], n: int) -> Rat:
    """Direct enumeration of compositions; 0 when N < q."""
    r = tuple(r)
    q = len(r)
    if n < q:
        return Fraction(0)

    def rec(i: int, remaining: int) -> Fraction:
        if i == q - 1:
            return Fraction(remaining ** r[i])
        total = Fraction(0)
        for k in range(1, remaining - (q - i - 1) + 1):
            total += (k ** r[i]) * rec(i + 1, remaining - k)
        return total

    return rec(0, n)


def power_of_sum(variables: Tuple[str, ...], power: int) -> MultiPoly:
    """(x_1 + ... + x_m)^power, cached for the bracket engine."""
    return _power_of_sum_cached(variables, power)


@lru_cache(maxsize=None)
def _power_of_sum_cached(variables: Tuple[str, ...], power: int) -> MultiPoly:
    if not variables:
        return MultiPoly((), {(): GaussRat(1)} if power == 0 else {})
    s = MultiPoly(variables, {tuple(1 if i == j else 0 for i in range(len(variables))): GaussRat(1)
                              for j in range(len(variables))})
    return s ** power
