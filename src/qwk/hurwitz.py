"""One-part double Hurwitz numbers and Hurwitz correlators.

The closed formula (genus g, n parts over infinity, r = 2g-1+n simple
branch points) is

    H_g(mu) = r! * (mu_1+..+mu_n)^(r-1) * [z^(2g)] prod_i S(mu_i z) / S(z),

a polynomial in the parts.  A Hurwitz correlator extracts one monomial:

    <<tau_{d_1}..tau_{d_n}>>_g = (-1)^((4g-3+n-sum d)/2) [mu^d] ( H_g / (r! d) ),

which vanishes unless sum d lies in [2g-3+n, 4g-3+n] with the parity
opposite to n.

The independent oracle counts transposition factorizations: with sigma_0 the
fixed cycle (1 2 .. d), it counts r-tuples of transpositions whose product
with sigma_0 has cycle type mu, divided by d.  The sum of all transpositions
is central in the group algebra of S_d, so the count only depends on cycle
types: it runs as a dynamic program over the p(d) partitions of d, one
cut-and-join step per branch point (Goulden-Jackson 1997), in exact
integers.  DEFAULT_DEGREE_CAP = 20 is a cost guard: at that degree, (1^20)
at g = 5 (29 branch points) takes about half a second.  The closed formula
equals aut_factor(mu) times this count: the formula counts covers with
labeled preimages of infinity, the count weights unlabeled covers by 1/|Aut|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterator, Sequence, Tuple

from .algebra import MultiPoly, Rat
from .special import power_of_sum, s_quotient_series

DEFAULT_DEGREE_CAP = 20


@dataclass(frozen=True)
class Partition:
    """Partition with positive parts, stored sorted descending."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))

    @property
    def degree(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)


def mu_names(n: int) -> Tuple[str, ...]:
    return tuple(f"mu{i}" for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _s_quotient(g: int, n: int) -> MultiPoly:
    """[z^(2g)] of prod_i S(mu_i z) / S(z), a polynomial in mu_1..mu_n."""
    return s_quotient_series(mu_names(n), 2 * g)[2 * g]


def one_part_polynomial(g: int, n: int) -> MultiPoly:
    """r! * (sum mu)^(r-1) * [z^(2g)] prod S(mu_i z)/S(z), with r = 2g-1+n."""
    r = 2 * g - 1 + n
    if r - 1 < 0:
        raise ValueError("need 2g-2+n >= 0")
    poly = _s_quotient(g, n) * factorial(r)
    if r - 1 > 0:
        poly = poly * power_of_sum(mu_names(n), r - 1)
    return poly


def one_part_number(g: int, mu: Partition) -> Rat:
    """Closed-form value r! * d^(r-1) * [z^(2g)] prod S(mu_i z)/S(z) at a partition.

    Unlike one_part_polynomial this also covers r = 0 (g = 0 with a single
    part), where d^(r-1) is the rational 1/d.
    """
    n = len(mu)
    r = 2 * g - 1 + n
    if r < 0:
        raise ValueError("negative number of simple branch points")
    base = _s_quotient(g, n)
    v = base.evaluate(dict(zip(mu_names(n), mu.parts)))
    if not v.is_real():
        raise ArithmeticError("non-real Hurwitz value")
    return v.re * factorial(r) * Fraction(mu.degree) ** (r - 1)


def hurwitz_correlator(d: Sequence[int], g: int) -> Rat:
    """Signed mu-coefficient of H_g/(r! d); 0 outside the level interval/parity."""
    d = tuple(d)
    n = len(d)
    if 2 * g - 3 + n < 0:
        raise ValueError("need 2g-3+n >= 0")
    total = sum(d)
    if (total - n) % 2 == 0:
        return Fraction(0)
    if total < 2 * g - 3 + n or total > 4 * g - 3 + n:
        return Fraction(0)
    # H/(r! d) = (sum mu)^(2g-3+n) [z^(2g)] prod S / S
    poly = _s_quotient(g, n)
    e = 2 * g - 3 + n
    if e:
        poly = poly * power_of_sum(mu_names(n), e)
    c = poly.coeff_extract(dict(zip(mu_names(n), d)))
    sign = -1 if ((4 * g - 3 + n - total) // 2) % 2 else 1
    value = c * sign
    if not value.is_real():
        raise ArithmeticError("non-real Hurwitz correlator")
    return value.re


# ----------------------------------------------------------------------
# transposition-factorization oracle

def _cut_and_join(lam: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """(cycle type, weight) pairs: how many transpositions t take a
    permutation of cycle type lam to each type of its product with t.

    A transposition inside an a-cycle cuts it into (s, a-s) in a ways, or a/2
    ways when 2s = a; one across an a-cycle and a b-cycle joins them in a*b
    ways.  Types are tuples sorted descending; a type may repeat.
    """
    for i, a in enumerate(lam):
        rest = lam[:i] + lam[i + 1:]
        for s in range(1, a // 2 + 1):
            weight = a // 2 if 2 * s == a else a
            yield tuple(sorted(rest + (s, a - s), reverse=True)), weight
        for j in range(i + 1, len(lam)):
            b = lam[j]
            joined = rest[:j - 1] + rest[j:] + (a + b,)
            yield tuple(sorted(joined, reverse=True)), a * b


def factorization_count(g: int, mu: Partition, cap: int = DEFAULT_DEGREE_CAP) -> Rat:
    """(1/d) * #{transposition tuples (t_1..t_r): sigma_0 t_1..t_r has type mu}.

    sigma_0 is the fixed d-cycle (1 2 .. d); r = 2g-1+n.  The 1/d absorbs the
    (d-1)! choices of the full cycle over the d! normalization of covers.
    The tuples are counted by cycle type of the partial product, starting
    from the type (d,) of sigma_0.
    """
    d = mu.degree
    if d > cap:
        raise ValueError(f"degree {d} above the factorization-count cap {cap}")
    r = 2 * g - 1 + len(mu)
    if r < 0:
        raise ValueError("negative number of simple branch points")
    counts: Dict[Tuple[int, ...], int] = {(d,): 1}
    for _ in range(r):
        nxt: Dict[Tuple[int, ...], int] = {}
        for lam, c in counts.items():
            for new, weight in _cut_and_join(lam):
                nxt[new] = nxt.get(new, 0) + c * weight
        counts = nxt
    return Fraction(counts.get(mu.parts, 0), d)


def aut_factor(mu: Partition) -> int:
    """Product over distinct part sizes of (multiplicity)!."""
    out = 1
    for v in set(mu.parts):
        out *= factorial(mu.parts.count(v))
    return out


def partitions_of(d: int):
    """All partitions of d, parts descending."""
    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(d, d)
