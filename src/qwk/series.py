"""Truncated power series and the direct count of the power-sum convolution.

Nothing on the engine path imports this module: it serves the identity
checks (``qwk.identities``) and the tests that read the closed forms of
``qwk.special`` against a second route.

Contents:

  * truncated power series as lists of coefficient layers: layer k is the
    coefficient of z^k, for k up to the order len(layers) - 1, and a layer is
    a MultiPoly (Laurent ones included) or a plain rational.  The kernels for
    product, inverse, exp and log are the only truncated-series arithmetic in
    the package; a product forms only the layer pairs i + j <= order, so
    nothing above the cutoff is ever computed;
  * the even series S(z) = sh(z/2)/(z/2) = sum z^(2l) / (4^l (2l+1)!), at a
    rational or polynomial argument, as such a list;
  * ``ehrhart_brute_force``, the power-sum convolution C^r(N) by enumerating
    the compositions of N, the oracle for ``special.ehrhart_convolution``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .algebra import GaussRat, Rat


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
