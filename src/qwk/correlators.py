"""Correlators of the deformed intersection-number series at epsilon = 0.

Two routes feed every value:

  * keys with a tau_0 insertion come straight from the commutator engine:
      <tau_0 tau_{d_1} .. tau_{d_n}>_g = (-1)^g i^(n-1) * v_g,
    v = nested_bracket((d_1..d_n), g).  The i-power converts the internal
    i*hbar grading back to hbar coefficients; the result must be real.
    A key outside the commutator's degree window (sum d - n odd, or
    sum d > 4g - 2 + n) is zero and never reaches a bracket.
  * every other key is defined by inverting the string equation
      <tau_0 tau_{d_1}..tau_{d_n}> = sum_i <.. tau_{d_i - 1} ..>,
    solved downward until a tau_0 appears.  The recursion terminates because
    each step moves weight onto the largest entry, and one-point functions
    use the linear-term convention <tau_d> = <tau_0 tau_{d+1}>.

The constant term of the series at genus grade g is 1/(2g-2) times the
coefficient of t_1, which is singular at g = 1: constant_term refuses there.

All values are memoized on (d sorted descending, g), the engine's under the
key with the tau_0; entries are exact rationals.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from itertools import combinations_with_replacement
from math import factorial
from typing import Dict, Optional, Sequence, Tuple

from .algebra import I_POWERS, GaussRat, Rat, Record, require_ints
from .qkdv import nested_bracket


class NonRealCorrelatorError(ArithmeticError):
    """The engine produced a non-real correlator; signals an engine bug."""


@total_ordering
class CorrelatorKey(Record):
    """A correlator's key: genus grade g and insertions d, sorted ascending;
    keys order by (g, d)."""

    __slots__ = ("g", "d")

    def __init__(self, g: int, d: Tuple[int, ...]):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "d", d)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.g, self.d) < (other.g, other.d)
        return NotImplemented

    @staticmethod
    def of(d: Sequence[int], g: int) -> "CorrelatorKey":
        return CorrelatorKey(g, tuple(sorted(d)))


def correlator_tau0(rest: Sequence[int], g: int) -> Rat:
    """<tau_0 tau_{d_1}..tau_{d_n}>_{0,g} via the commutator engine, unmemoized;
    ``correlator`` keeps its value under the key with the tau_0."""
    rest = tuple(sorted(rest, reverse=True))
    if not rest:
        raise ValueError("need at least one insertion next to tau_0")
    values = nested_bracket(rest, g)
    v = values.get(g, GaussRat(0))
    n = len(rest)
    result = v * I_POWERS[(2 * g + n - 1) % 4]   # (-1)^g i^(n-1)
    if not result.is_real():
        raise NonRealCorrelatorError(
            f"non-real correlator at rest={rest}, g={g}: {result.to_str()}")
    return result.re


def correlator(d: Sequence[int], g: int) -> Rat:
    """<tau_{d_1}..tau_{d_n}>_{0,g} for any list of insertions (possibly empty)."""
    d = tuple(d)
    require_ints("genus grade", (g,))
    require_ints("insertion", d)
    key = tuple(sorted(d, reverse=True))
    if g < 0 or any(x < 0 for x in key):
        raise ValueError("negative genus grade or insertion")
    if not key:
        return constant_term(g)
    return _correlator_cached(key, g)


@lru_cache(maxsize=None)
def _correlator_cached(d: Tuple[int, ...], g: int) -> Rat:
    # d sorted descending; <tau_0> is one-point, so test that first
    if len(d) == 1:
        return _correlator_cached((d[0] + 1, 0), g)  # linear-term convention
    if d[-1] == 0:
        return correlator_tau0(d[:-1], g)
    # string inversion: bump the largest entry, peel the others
    bumped = (d[0] + 1,) + d[1:]
    total = _correlator_cached(bumped + (0,), g)
    for i in range(1, len(d)):
        child = list(bumped)
        child[i] -= 1
        total -= _correlator_cached(tuple(sorted(child, reverse=True)), g)
    return total


def constant_term(g: int) -> Rat:
    """Constant coefficient at genus grade g: correlator([1], g) / (2g - 2)."""
    if g == 1:
        raise ValueError("constant-term convention is singular at genus grade 1")
    return correlator((1,), g) / (2 * g - 2)


def vanishes_by_level(d: Sequence[int], g: int, l: int) -> bool:
    """Level-structure vanishing: sum d > 4g-3+n-l or sum d = n-l (mod 2)."""
    if l < 0:
        raise ValueError("level index must be >= 0")
    if l > g:
        raise ValueError("level index exceeds genus grade")
    n = len(d)
    total = sum(d)
    return total > 4 * g - 3 + n - l or (total - (n - l)) % 2 == 0


class CorrelatorTable(Record):
    """Memoized grid of correlators, plus the bounds used to build it.

    The bounds are fixed; ``correlator_table`` fills ``entries``.  Like any
    value holding a dict, a table has no hash.
    """

    __slots__ = ("g_max", "n_max", "sum_max", "entries")
    __hash__ = None

    def __init__(self, g_max: int, n_max: int, sum_max: int,
                 entries: Optional[Dict[CorrelatorKey, Rat]] = None):
        object.__setattr__(self, "g_max", g_max)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "sum_max", sum_max)
        object.__setattr__(self, "entries", {} if entries is None else entries)

    def get(self, d: Sequence[int], g: int) -> Rat:
        return self.entries[CorrelatorKey.of(d, g)]


def correlator_table(g_max: int, n_max: int, sum_max: int) -> CorrelatorTable:
    """All correlators with g <= g_max, 1 <= n <= n_max, sum d <= sum_max."""
    if min(g_max, n_max, sum_max) < 0:
        raise ValueError("bounds must be >= 0")
    table = CorrelatorTable(g_max, n_max, sum_max)
    for g in range(g_max + 1):
        for n in range(1, n_max + 1):
            for d in combinations_with_replacement(range(sum_max + 1), n):
                if sum(d) > sum_max:
                    continue
                table.entries[CorrelatorKey.of(d, g)] = correlator(d, g)
    return table


def series_coefficient(d: Sequence[int], g: int) -> Rat:
    """Coefficient of prod_d t_d^{mult} at hbar grade g in the generating series.

    The series sums <...>/n! over ordered insertion tuples, so the monomial
    coefficient is the correlator divided by the product of multiplicities.
    """
    value = correlator(d, g)
    denom = 1
    for x in set(d):
        denom *= factorial(list(d).count(x))
    return value / denom
