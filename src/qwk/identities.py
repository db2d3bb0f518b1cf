"""Executable verifiers for the supporting combinatorial identities.

Every check returns an IdentityReport whose discrepancy is an exact rational;
a pass is discrepancy exactly zero, never a tolerance.

Hyperbolic identities are decided in the group algebra of half-integer
linear forms: an ExpSum is a finite sum  c * e^(L/2)  with L an integer
vector over a fixed basis, so sh and ch are two lattice terms and products
never truncate.  Quotients like sh(k L)/sh(L) are eliminated exactly via

    sh(k L) / sh(L) = sum_{i=0..k-1} ch((k-1-2i) L).

Identities that are genuinely power series in an outer variable (the t-sums
of the log/ratio lemmas, the exponential generating function of the Eulerian
polynomials, the z-series of the products of exponentials) are checked
coefficient-by-coefficient up to the requested order.  Such a series is a
list of coefficient layers (rationals, MultiPoly or ExpSum), multiplied,
inverted and exponentiated by the shared kernels of ``qwk.special``; powers
of 1/(1-t) ride along as an auxiliary symbol s that is eliminated exactly
through the relation s*(1-t) = 1 at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import GaussRat, MultiPoly
from .special import (eulerian_number, eulerian_polynomial, s_series_of,
                      series_exp_log, series_inverse, series_product)
from .symbols import (DiffPoly, from_diff_poly, mode_derivative_zero_mode,
                      symmetrize, variational_derivative)


@dataclass(frozen=True)
class IdentityReport:
    name: str
    params: Dict[str, object]
    order: int
    max_abs_discrepancy: Fraction

    @property
    def ok(self) -> bool:
        return self.max_abs_discrepancy == 0

    def to_json(self) -> dict:
        return {"name": self.name, "params": dict(self.params), "order": self.order,
                "max_abs_discrepancy": str(self.max_abs_discrepancy), "ok": self.ok}


def _discrepancy(x) -> Fraction:
    """max |re| + |im| over the coefficients of x; a list is a series of layers."""
    if isinstance(x, list):
        return max((_discrepancy(c) for c in x), default=Fraction(0))
    if isinstance(x, (int, Fraction, GaussRat)):
        return GaussRat.of(x).abs1()
    return max((c.abs1() for c in x.terms.values()), default=Fraction(0))


def _series_minus(a: list, b: list) -> list:
    return [x - y for x, y in zip(a, b, strict=True)]


# ----------------------------------------------------------------------
# exact exponential-lattice algebra

class ExpSum:
    """Finite sum of c * e^(L/2) over a fixed variable basis; L integer vectors."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: Tuple[str, ...], terms: Optional[dict] = None):
        self.basis = basis
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = c if isinstance(c, GaussRat) else GaussRat(c)
                if c:
                    self.terms[e] = c

    @staticmethod
    def const(basis: Tuple[str, ...], c) -> "ExpSum":
        return ExpSum(basis, {(0,) * len(basis): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpSum) and self.basis == other.basis and self.terms == other.terms

    def __add__(self, other) -> "ExpSum":
        if not isinstance(other, ExpSum):
            other = ExpSum.const(self.basis, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, GaussRat(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        r = ExpSum(self.basis)
        r.terms = out
        return r

    def __neg__(self) -> "ExpSum":
        r = ExpSum(self.basis)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other) -> "ExpSum":
        return self + (-other)

    def __mul__(self, other) -> "ExpSum":
        if not isinstance(other, ExpSum):
            c = other if isinstance(other, GaussRat) else GaussRat(other)
            r = ExpSum(self.basis)
            if c:
                r.terms = {e: v * c for e, v in self.terms.items()}
            return r
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, GaussRat(0)) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        r = ExpSum(self.basis)
        r.terms = out
        return r

    __rmul__ = __mul__


def _form_vec(basis: Tuple[str, ...], form: Mapping[str, object]) -> Tuple[int, ...]:
    """Linear form as doubled-integer exponent vector (so halves are exact)."""
    out = []
    for v in basis:
        x = Fraction(form.get(v, 0)) * 2
        if x.denominator != 1:
            raise ValueError("forms must have half-integer coefficients")
        out.append(int(x))
    return tuple(out)


def sh(basis: Tuple[str, ...], form: Mapping[str, object]) -> ExpSum:
    v = _form_vec(basis, form)
    half = Fraction(1, 2)
    return ExpSum(basis, {v: half}) + ExpSum(basis, {tuple(-x for x in v): -half})


def ch(basis: Tuple[str, ...], form: Mapping[str, object]) -> ExpSum:
    v = _form_vec(basis, form)
    half = Fraction(1, 2)
    return ExpSum(basis, {v: half}) + ExpSum(basis, {tuple(-x for x in v): half})


def cheb_ratio(basis: Tuple[str, ...], k: int, form: Mapping[str, object]) -> ExpSum:
    """sh(k*form)/sh(form) as a lattice element; 0 for k = 0."""
    out = ExpSum(basis)
    for i in range(k):
        scaled = {v: Fraction(form.get(v, 0)) * (k - 1 - 2 * i) for v in form}
        out = out + ch(basis, scaled)
    return out


# ----------------------------------------------------------------------
# Carlitz and the Eulerian generating functions

def check_carlitz(d: int, big_k: int) -> IdentityReport:
    """sum_{k=1..K} k^d t^k == t E_d(t)/(1-t)^(d+1) mod t^(K+1)."""
    if big_k < 1:
        raise ValueError("K must be >= 1")
    lhs = [Fraction(0)] + [Fraction(k**d) for k in range(1, big_k + 1)]
    t_euler = [Fraction(0)] + [Fraction(eulerian_number(d, k)) for k in range(big_k)]
    one_minus_t = [Fraction(1), Fraction(-1)] + [Fraction(0)] * (big_k - 1)
    den = one_minus_t
    for _ in range(d):
        den = series_product(den, one_minus_t)
    rhs = series_product(t_euler, series_inverse(den))
    return IdentityReport("carlitz", {"d": d, "K": big_k}, big_k,
                          _discrepancy(_series_minus(lhs, rhs)))


def check_eulerian_generating(order: int) -> IdentityReport:
    """The exponential generating function and its primitive, to the given order.

    Both sides are z-series with layers polynomial in t (and s).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    t = MultiPoly.var("t")
    # (t-1)/(t - e^{z(t-1)}) = 1 / (1 - sum_{j>=1} z^j (t-1)^(j-1)/j!)
    denom = [MultiPoly.const(1, ("t",))] + [-(t - 1) ** (j - 1) * Fraction(1, factorial(j))
                                            for j in range(1, order + 1)]
    lhs = [eulerian_polynomial(n) * Fraction(1, factorial(n)) for n in range(order + 1)]
    disc1 = _discrepancy(_series_minus(lhs, series_inverse(denom)))

    # primitive form: sum_n t E_n(t) z^(n+1) s^(n+1)/(n+1)! == -z - log(1 - w s),
    # w = 1 - e^{-z}; s stands for 1/(1-t) and is eliminated exactly at the end
    vs = ("t", "s")
    t2 = MultiPoly.var("t", vs)
    s2 = MultiPoly.var("s", vs)
    lhs2 = [MultiPoly(vs)] + [t2 * eulerian_polynomial(k - 1) * s2 ** k * Fraction(1, factorial(k))
                              for k in range(1, order + 1)]
    # 1 - w s has layers 1 and -(-1)^(j+1) s / j!
    log_arg = series_exp_log([MultiPoly.const(1, vs)] + [s2 * Fraction((-1) ** j, factorial(j))
                                                         for j in range(1, order + 1)], "log")
    rhs2 = [-c for c in log_arg]
    rhs2[1] = rhs2[1] - 1  # the -z
    # eliminate s per layer: multiply by (1-t)^(max s-degree), use s^e (1-t)^e == 1
    disc2 = Fraction(0)
    for layer in _series_minus(lhs2, rhs2):
        if layer.is_zero():
            continue
        e_max = layer.var_degree("s")
        cleared = MultiPoly(("t",))
        for e in range(e_max + 1):
            cleared = cleared + layer.coeff_of_var_power("s", e) * (1 - t) ** (e_max - e)
        disc2 = max(disc2, _discrepancy(cleared))
    return IdentityReport("eulerian-generating", {}, order, max(disc1, disc2))


# ----------------------------------------------------------------------
# hyperbolic lemmas

def check_sh_lemmas(order: int) -> IdentityReport:
    """The hyperbolic-sine lemmas and the log/ratio identities behind the Eulerian chain."""
    if order < 2:
        raise ValueError("order must be >= 2")
    worst = Fraction(0)
    results: Dict[str, str] = {}

    def record(name: str, disc: Fraction):
        nonlocal worst
        results[name] = str(disc)
        worst = max(worst, disc)

    # sh(a)sh(b) + sh(c)sh(a+b+c) == sh(a+c)sh(b+c)
    b3 = ("al", "be", "ga")
    lhs = sh(b3, {"al": 1}) * sh(b3, {"be": 1}) + sh(b3, {"ga": 1}) * sh(b3, {"al": 1, "be": 1, "ga": 1})
    rhs = sh(b3, {"al": 1, "ga": 1}) * sh(b3, {"be": 1, "ga": 1})
    record("sinhsinh", _discrepancy(lhs - rhs))

    # ch(a)sh(b+c) - ch(b)sh(a+c) == sh(b-a)ch(c)
    lhs = ch(b3, {"al": 1}) * sh(b3, {"be": 1, "ga": 1}) - ch(b3, {"be": 1}) * sh(b3, {"al": 1, "ga": 1})
    rhs = sh(b3, {"al": -1, "be": 1}) * ch(b3, {"ga": 1})
    record("sinhcosh", _discrepancy(lhs - rhs))

    # sh(u)sh(v)sh(w) == (1/4)[sh(u+v+w)+sh(u-v-w)+sh(-u+v-w)+sh(-u-v+w)]
    bu = ("u", "v", "w")
    lhs = sh(bu, {"u": 1}) * sh(bu, {"v": 1}) * sh(bu, {"w": 1})
    rhs = (sh(bu, {"u": 1, "v": 1, "w": 1}) + sh(bu, {"u": 1, "v": -1, "w": -1})
           + sh(bu, {"u": -1, "v": 1, "w": -1}) + sh(bu, {"u": -1, "v": -1, "w": 1})) * Fraction(1, 4)
    record("triple-product", _discrepancy(lhs - rhs))

    # finite sum: sh(mu/2) * sum_{j=0..b} sh(mu j + nu) == sh(mu(b+1)/2) sh(mu b/2 + nu)
    bm = ("mu", "nu")
    for b in range(0, min(order, 6) + 1):
        total = ExpSum(bm)
        for j in range(b + 1):
            total = total + sh(bm, {"mu": j, "nu": 1})
        lhs = sh(bm, {"mu": Fraction(1, 2)}) * total
        rhs = sh(bm, {"mu": Fraction(b + 1, 2)}) * sh(bm, {"mu": Fraction(b, 2), "nu": 1})
        record(f"sum-lemma-b{b}", _discrepancy(lhs - rhs))

    # four-line lemma
    b4 = ("A1", "A2", "B")
    a1 = {"A1": 1}
    a2 = {"A2": 1}
    bb = {"B": 1}
    absum = {"A1": 1, "A2": 1, "B": 1}
    lhs = (ch(b4, a1) * sh(b4, a2) * sh(b4, bb) * sh(b4, absum)
           + sh(b4, a1) * ch(b4, a2) * sh(b4, bb) * sh(b4, absum)
           + sh(b4, a1) * sh(b4, a2) * ch(b4, bb) * sh(b4, absum)
           - sh(b4, a1) * sh(b4, a2) * sh(b4, bb) * ch(b4, absum))
    rhs = sh(b4, {"A1": 1, "B": 1}) * sh(b4, {"A2": 1, "B": 1}) * sh(b4, {"A1": 1, "A2": 1})
    record("four-line", _discrepancy(lhs - rhs))

    # main summation lemma, small integer a and b
    b5 = ("A1", "A2", "B", "X")
    shs = {n: sh(b5, {n: 1}) for n in ("A1", "A2", "B")}
    sh_all = sh(b5, {"A1": 1, "A2": 1, "B": 1})
    prod_all = shs["A1"] * shs["A2"] * shs["B"] * sh_all
    for a in range(0, 3):
        for b in range(0, 4):
            lhs = ExpSum(b5)
            for j in range(b + 1):
                lhs = lhs + (sh(b5, {"A1": a + j, "A2": a + j, "X": 1})
                             * sh(b5, {"A1": b - j, "B": b - j})
                             * sh(b5, {"A2": j, "B": j}))
            # the triple-product linearization carries 1/4, so the four-term
            # right side equals 4 * (the plain sum)
            lhs = lhs * prod_all * Fraction(4)
            pieces = [
                (ch(b5, {"A1": 1}), shs["A2"] * shs["B"] * sh_all,
                 sh(b5, {"A1": b}), sh(b5, {"A1": a, "A2": a, "B": -b, "X": 1})),
                (ch(b5, {"A2": 1}), shs["A1"] * shs["B"] * sh_all,
                 sh(b5, {"A2": b}), sh(b5, {"A1": a + b, "A2": a + b, "B": b, "X": 1})),
                (ch(b5, {"B": 1}), shs["A1"] * shs["A2"] * sh_all,
                 sh(b5, {"B": b}), sh(b5, {"A1": -a - b, "A2": -a, "X": -1})),
                (ch(b5, {"A1": 1, "A2": 1, "B": 1}), shs["A1"] * shs["A2"] * shs["B"],
                 sh(b5, {"A1": b, "A2": b, "B": b}), sh(b5, {"A1": -a, "A2": -a - b, "X": -1})),
            ]
            rhs = ExpSum(b5)
            for c, rest, s1, s2 in pieces:
                rhs = rhs + c * rest * s1 * s2
            record(f"main-lemma-a{a}-b{b}", _discrepancy(lhs - rhs))

    # per-t^k log expansion: (4/k) sh(kA/2) sh(kB/2) == (2/k)[ch(k(A+B)/2) - ch(k(A-B)/2)]
    bab = ("A", "B")
    for k in range(1, order + 1):
        lhs = sh(bab, {"A": Fraction(k, 2)}) * sh(bab, {"B": Fraction(k, 2)}) * Fraction(4, k)
        rhs = (ch(bab, {"A": Fraction(k, 2), "B": Fraction(k, 2)})
               - ch(bab, {"A": Fraction(k, 2), "B": Fraction(-k, 2)})) * Fraction(2, k)
        record(f"eulerian-log-k{k}", _discrepancy(lhs - rhs))

    # ratio lemma: sh(A+B) * (1-te^{A-B})(1-te^{B-A}) / ((1-te^{A+B})(1-te^{-A-B}))
    #            == sh(A+B) + 4 sh(A) sh(B) sum_k sh(k(A+B)) t^k
    one = ExpSum.const(bab, 1)

    def quadratic(middle: ExpSum) -> List[ExpSum]:
        """1 + middle * t + t^2 as a t-series to the order."""
        return [one, middle, one] + [ExpSum(bab)] * (order - 2)

    ratio = series_product(quadratic(ch(bab, {"A": 1, "B": -1}) * Fraction(-2)),
                           series_inverse(quadratic(ch(bab, {"A": 1, "B": 1}) * Fraction(-2))))
    sh_ab = sh(bab, {"A": 1, "B": 1})
    shab4 = sh(bab, {"A": 1}) * sh(bab, {"B": 1}) * Fraction(4)
    rhs_series = [sh_ab] + [shab4 * sh(bab, {"A": k, "B": k}) for k in range(1, order + 1)]
    record("geometric-ratio", _discrepancy(_series_minus([sh_ab * c for c in ratio], rhs_series)))

    # corollary chain, halves: exp(sum_k (4/k) sh(kA/2) sh(kB/2) t^k) == ratio(half forms)
    half = Fraction(1, 2)
    ratio_h = series_product(quadratic(ch(bab, {"A": half, "B": -half}) * Fraction(-2)),
                             series_inverse(quadratic(ch(bab, {"A": half, "B": half}) * Fraction(-2))))
    arg = [ExpSum(bab)] + [sh(bab, {"A": Fraction(k, 2)}) * sh(bab, {"B": Fraction(k, 2)}) * Fraction(4, k)
                           for k in range(1, order + 1)]
    record("eulerian-fin-1", _discrepancy(_series_minus(series_exp_log(arg, "exp"), ratio_h)))

    sh_ab_h = sh(bab, {"A": half, "B": half})
    shab4h = sh(bab, {"A": half}) * sh(bab, {"B": half}) * Fraction(4)
    rhs_series = [sh_ab_h] + [shab4h * sh(bab, {"A": Fraction(k, 2), "B": Fraction(k, 2)})
                              for k in range(1, order + 1)]
    record("eulerian-fin-2", _discrepancy(_series_minus([sh_ab_h * c for c in ratio_h], rhs_series)))

    return IdentityReport("sh-lemmas", {"checks": results}, order, worst)


# ----------------------------------------------------------------------
# the sinh formula

def check_sinh_formula(n: int, a: Sequence[int], b: int, order: int) -> IdentityReport:
    """Coefficient extraction of the nested hyperbolic product formula.

    ``a`` lists the extracted exponents a_2..a_n (positive); ``b`` is the
    exponent of the extra variable.  The quotient-free form multiplies
    through by the sh denominators via the Chebyshev expansion.
    """
    a = tuple(a)
    if len(a) != n - 1 or not 2 <= n <= 4:
        raise ValueError("need a_2..a_n with 2 <= n <= 4")
    if any(x < 1 for x in a) or b < 0:
        raise ValueError("exponents a_i must be positive and b >= 0")
    if max(a) > 4 or b > 4:
        raise ValueError("extraction exponents capped at 4")
    basis = tuple(f"A{i}" for i in range(1, n + 1)) + ("B",) + tuple(f"X{i}" for i in range(2, n + 1))
    a_of = {i: a[i - 2] for i in range(2, n + 1)}

    def phi_factor(i_of: Dict[int, int]) -> ExpSum:
        out = ExpSum.const(basis, 1)
        for r in range(2, n + 1):
            form: Dict[str, Fraction] = {f"X{r}": Fraction(1)}
            for j in range(1, r + 1):
                form[f"A{j}"] = Fraction(i_of[r])
            form[f"A{r}"] = form.get(f"A{r}", Fraction(0)) + sum(i_of[l] for l in range(r + 1, n + 1))
            out = out * sh(basis, form)
        return out

    lhs = ExpSum(basis)
    subsets = [T for T in _subsets(range(1, n + 1)) if T]
    for T in subsets:
        for js in _compositions(b, len(T)):
            j_of = dict(zip(T, js))
            i_of = {r: a_of[r] + j_of.get(r, 0) for r in range(2, n + 1)}
            term = phi_factor(i_of)
            for s in T:
                form_s = {f"A{s}": Fraction(1), "B": Fraction(1)}
                term = term * sh(basis, {f"A{s}": 1}) * sh(basis, {"B": 1}) \
                    * cheb_ratio(basis, j_of[s], form_s) * Fraction(4)
            lhs = lhs + term

    sum_form = {f"A{j}": Fraction(1) for j in range(1, n + 1)}
    sum_b = dict(sum_form)
    sum_b["B"] = Fraction(1)
    rhs = sh(basis, sum_form) * sh(basis, {"B": 1}) * cheb_ratio(basis, b, sum_b) * Fraction(4)
    for r in range(2, n + 1):
        form = {f"X{r}": Fraction(1)}
        for j in range(1, r + 1):
            form[f"A{j}"] = Fraction(a_of[r])
        tail = sum(a_of[l] for l in range(r + 1, n + 1)) + b
        form[f"A{r}"] = form.get(f"A{r}", Fraction(0)) + tail
        rhs = rhs * sh(basis, form)

    return IdentityReport("sinh-formula", {"n": n, "a": list(a), "b": b},
                          order, _discrepancy(lhs - rhs))


def _subsets(items) -> List[Tuple]:
    items = list(items)
    out: List[Tuple] = [()]
    for x in items:
        out += [s + (x,) for s in out]
    return out


def _compositions(total: int, parts: int) -> List[Tuple[int, ...]]:
    """Compositions of ``total`` into ``parts`` positive parts."""
    if parts == 0:
        return [()] if total == 0 else []
    if total < parts:
        return []
    out = []

    def rec(remaining, left, acc):
        if left == 1:
            out.append(tuple(acc + [remaining]))
            return
        for k in range(1, remaining - left + 2):
            rec(remaining - k, left - 1, acc + [k])

    rec(total, parts, [])
    return out


# ----------------------------------------------------------------------
# products of exponentials

def check_products_of_exponentials(n: int, a_vals: Sequence[int], order: int) -> IdentityReport:
    """Laurent extraction of the pairwise exponential product against the closed form.

    The left side is a z-series whose layers are Laurent polynomials in
    t_2..t_n, held as lattice elements with t_i = e^(x_i), so t_i^k has
    exponent vector 2k; its t-coefficient at (a_2..a_n) is compared with the
    closed form, layer by layer.
    """
    a_vals = tuple(a_vals)
    if len(a_vals) != n or any(x < 1 for x in a_vals):
        raise ValueError("need n positive integers")
    if not 2 <= n <= 3:
        raise ValueError("n must be 2 or 3")
    k_max = sum(a_vals[1:])
    basis = tuple(f"t{i}" for i in range(2, n + 1))

    def s_int(c: int) -> list:
        return s_series_of(Fraction(c), order)

    def unit() -> List[ExpSum]:
        return [ExpSum.const(basis, 1)] + [ExpSum(basis)] * order

    # the product runs over i of (prod_{j<i} exp(pair term) - 1)
    laurent = unit()
    for i in range(2, n + 1):
        group = unit()
        for j in range(1, i):
            arg = [ExpSum(basis)] * (order + 1)
            for k in range(1, k_max + 1):
                vec = [0] * (n - 1)
                vec[i - 2] += 2 * k
                if j >= 2:
                    vec[j - 2] -= 2 * k
                t_pow = ExpSum(basis, {tuple(vec): a_vals[i - 1] * a_vals[j - 1] * k})
                pair = series_product(s_int(k * a_vals[i - 1]), s_int(k * a_vals[j - 1]))
                for l in range(2, order + 1):  # the pair term carries z^2
                    arg[l] = arg[l] + t_pow * pair[l - 2]
            group = series_product(group, series_exp_log(arg, "exp"))
        group[0] = group[0] - 1  # the "- 1" of each bracket
        laurent = series_product(laurent, group)

    target = tuple(2 * x for x in a_vals[1:])
    lhs = [layer.terms.get(target, GaussRat(0)) for layer in laurent]

    total = sum(a_vals)
    pref = a_vals[0]
    for x in a_vals[1:]:
        pref *= x * x
    rhs = [Fraction(pref * total ** (n - 2)) if k == 2 * n - 2 else Fraction(0)
           for k in range(order + 1)]
    for x in a_vals:
        rhs = series_product(rhs, s_int(x))
    rhs = series_product(rhs, series_inverse(s_int(total)))
    for x in a_vals[1:]:
        rhs = series_product(rhs, s_int(x * total))
    return IdentityReport("products-of-exponentials", {"n": n, "A": list(a_vals)},
                          order, _discrepancy(_series_minus(lhs, rhs)))


# ----------------------------------------------------------------------
# variational derivative

def check_variational(seed: int = 0, cases: int = 50) -> IdentityReport:
    """Random differential polynomials: u-route versus mode-derivative route."""
    rng = random.Random(seed)
    worst = Fraction(0)
    for _ in range(cases):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(0, 3)
            orders = tuple(sorted(rng.randint(0, 3) for _ in range(size)))
            grade = rng.randint(0, 1)
            num = rng.randint(-4, 4)
            den = rng.randint(1, 3)
            re = Fraction(num, den)
            im = Fraction(rng.randint(-2, 2), 1) if rng.random() < 0.3 else Fraction(0)
            terms[(orders, grade)] = GaussRat(re, im)
        d = DiffPoly(terms)
        lhs = variational_derivative(d)
        rhs = mode_derivative_zero_mode(from_diff_poly(d))
        ta = {(t.grade, t.m): t.coeff for t in symmetrize(lhs).terms}
        tb = {(t.grade, t.m): t.coeff for t in symmetrize(rhs).terms}
        for key in set(ta) | set(tb):
            pa = ta.get(key)
            pb = tb.get(key)
            if pa is None:
                diff = pb
            elif pb is None:
                diff = pa
            else:
                diff = pa - pb
            worst = max(worst, _discrepancy(diff))
    return IdentityReport("variational", {"seed": seed, "cases": cases}, 0, worst)
