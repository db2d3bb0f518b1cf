"""Special series and combinatorial polynomials.

Contents:

  * the even series S(z) = sh(z/2)/(z/2) = sum z^(2l) / (4^l (2l+1)!),
    which carries every intersection-number coefficient in the engine;
  * truncated-series inverse, exp and log over MultiPoly, and the series
    prod_i S(x_i z) / S(z) shared by the densities and the Hurwitz formula;
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
from typing import List, Sequence, Tuple

from .algebra import GaussRat, MultiPoly, Rat


def s_series(order: int, var: str = "z") -> MultiPoly:
    """Truncated expansion of S(z); even, constant term 1."""
    if order < 0:
        raise ValueError("order must be >= 0")
    terms = {}
    l = 0
    while 2 * l <= order:
        terms[(2 * l,)] = Fraction(1, 4**l * factorial(2 * l + 1))
        l += 1
    return MultiPoly((var,), terms, {var: order})


def s_series_of(form: MultiPoly, z_var: str, order: int) -> MultiPoly:
    """S(form * z) truncated at z^order, for a polynomial ``form`` in other variables."""
    vs = form.variables if z_var in form.variables else form.variables + (z_var,)
    trunc = dict(form.truncation) if form.truncation else {}
    trunc[z_var] = order
    out = MultiPoly.const(1, vs, trunc)
    z = MultiPoly.var(z_var, vs, trunc)
    f2z2 = (form.with_variables(vs) * z) ** 2
    power = MultiPoly.const(1, vs, trunc)
    l = 1
    while 2 * l <= order:
        power = power * f2z2
        if power.is_zero():
            break
        out = out + power * Fraction(1, 4**l * factorial(2 * l + 1))
        l += 1
    return out


def series_inverse(p: MultiPoly, var: str, order: int) -> MultiPoly:
    """q with p*q == 1 modulo var^(order+1).

    The coefficient of var^0 in p must be a nonzero constant.
    """
    c0 = p.coeff_of_var_power(var, 0)
    if c0.degree() > 0:
        raise ValueError("constant term in the series variable is not a scalar")
    u = c0.coeff_extract({})
    if not u:
        raise ValueError("zero constant term is not invertible")
    trunc = dict(p.truncation) if p.truncation else {}
    trunc[var] = order
    layers = [p.coeff_of_var_power(var, k) for k in range(order + 1)]
    inv_layers: List[MultiPoly] = [MultiPoly.const(GaussRat(1) / u, layers[0].variables)]
    for n in range(1, order + 1):
        acc = MultiPoly((), {})
        for j in range(1, n + 1):
            if layers[j].is_zero():
                continue
            acc = acc + layers[j] * inv_layers[n - j]
        inv_layers.append(acc * (GaussRat(-1) / u))
    vs = p.variables if var in p.variables else p.variables + (var,)
    out = MultiPoly(vs, {}, trunc, _normalized=True)
    zvar = MultiPoly.var(var, vs, trunc)
    zpow = MultiPoly.const(1, vs, trunc)
    for n in range(order + 1):
        if not inv_layers[n].is_zero():
            out = out + inv_layers[n] * zpow
        zpow = zpow * zvar
    return out


def s_quotient_series(names: Tuple[str, ...], order: int) -> MultiPoly:
    """prod_i S(x_i z) / S(z) truncated at z^order, over the variables names + ("z",)."""
    vs = names + ("z",)
    prod = series_inverse(s_series(order), "z", order).with_variables(vs)
    for name in names:
        prod = prod * s_series_of(MultiPoly.var(name, vs), "z", order)
    return prod


def series_exp_log(p: MultiPoly, var: str, order: int, mode: str) -> MultiPoly:
    """Truncated exp/log along ``var``; exp needs zero constant term, log needs 1."""
    if mode not in ("exp", "log"):
        raise ValueError("mode must be 'exp' or 'log'")
    c0 = p.coeff_of_var_power(var, 0)
    trunc = dict(p.truncation) if p.truncation else {}
    trunc[var] = order
    vs = p.variables if var in p.variables else p.variables + (var,)
    p = MultiPoly(vs, p._remap(vs), trunc)
    if mode == "exp":
        if not c0.is_zero():
            raise ValueError("exp needs zero constant term in the series variable")
        out = MultiPoly.const(1, vs, trunc)
        power = MultiPoly.const(1, vs, trunc)
        for n in range(1, order + 1):
            power = power * p
            if power.is_zero():
                break
            out = out + power * Fraction(1, factorial(n))
        return out
    if c0 != MultiPoly.const(1, c0.variables):
        raise ValueError("log needs constant term 1 in the series variable")
    u = p - 1
    out = MultiPoly(vs, {}, trunc, _normalized=True)
    power = MultiPoly.const(1, vs, trunc)
    for n in range(1, order + 1):
        power = power * u
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (n + 1), n)
    return out


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
