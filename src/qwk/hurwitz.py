"""One-part double Hurwitz numbers and Hurwitz correlators.

The closed formula (genus g, n parts over infinity, r = 2g-1+n simple
branch points) is

    H_g(mu) = r! * (mu_1+..+mu_n)^(r-1) * [z^(2g)] prod_i S(mu_i z) / S(z),

a polynomial in the parts.  ``one_part_number`` reads it at one partition
without building that polynomial: in w = z^2 each S(mu_i z), truncated at
w^g, is an integer list over the one denominator D = 4^g (2g+1)!, built from
the powers of mu_i^2, the lists are multiplied over the parts, and [w^g] of
their product with 1/S is summed against the coefficients of 1/S that the
densities and the Hurwitz correlators read, with no division by S, so the
value is one ``Fraction``.  D, the coefficients of S over it and those of
1/S over the lcm of their denominators are built once per genus grade, in
the memo table ``special.genus_table(g)``.  Only ``one_part_polynomial``
builds the polynomial.  Its quotient is ``special.s_quotient`` (the Hamiltonian
densities are the same quotient on one more slot, summed in closed form by
``qkdv``), so the polynomials here are over its slot variables a1..an: part
mu_i is slot a_i.  A Hurwitz correlator is one monomial:

    <<tau_{d_1}..tau_{d_n}>>_g = (-1)^((4g-3+n-sum d)/2) [mu^d] ( H_g / (r! d) ),

which vanishes unless sum d lies in [2g-3+n, 4g-3+n] with the parity
opposite to n.  With p = 2g-3+n, that monomial is the sum over even
beta <= d with |beta| = |d| - p of sigma_(g-|beta|/2) prod_i s_(beta_i/2)
p! / prod_i (d_i - beta_i)!, the closed coefficients of the quotient
(``special``) against the multinomials of the power of the sum.
``hurwitz_correlator`` sums it in integers over one denominator, with no
polynomial and no ``GaussRat``.

The independent oracle counts transposition factorizations: with sigma_0 the
fixed cycle (1 2 .. d), it counts r-tuples of transpositions whose product
with sigma_0 has cycle type mu, divided by d.  The sum of all transpositions
is central in the group algebra of S_d, so the count only depends on cycle
types: it runs as a dynamic program over the p(d) partitions of d, one
cut-and-join step per branch point (Goulden-Jackson 1997), in exact
integers.  A type is its vector of multiplicities, and its row has one
entry per cut or join of part sizes, weighted by those multiplicities, so
nothing is sorted and repeated parts give one entry.  The p(d) types are
numbered over ``partitions_of(d)`` and each row is a list of (type number,
weight) pairs (``_transitions(d)``), so a step is a plain count vector
stepped along the rows.  Each degree has one walk state, in the memo table
``_walk_state(d)``: its table and the count vectors at the step counts r
asked for so far.  A count at r reads the stored vector, or steps forward
from the largest stored r' < r and stores the new one, so keys can come in
any order, none is walked past twice when they come in increasing r, and
no intermediate vector is kept.  After r steps the vector holds every type
at once, so ``factorization_counts`` and ``factorization_count`` serve every
(mu, g) of a degree from one walk.  The walk is a loop, not a recursion, so
``factorization_count(1000, (3, 2, 1))``, 2,001 steps, runs in about 13 ms.
DEFAULT_DEGREE_CAP = 20 is a cost guard: at that degree the table has
p(20) = 627 rows and 7,090 entries, and a cold count for (1^20) at g = 5
(29 branch points), table build included, takes about 0.02 s on a 2-vCPU
Xeon (Python 3.11), and the closed formula 0.3 ms.  The closed formula equals
aut_factor(mu) times this count: the formula counts covers with labeled
preimages of infinity, the count weights unlabeled covers by 1/|Aut|.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .algebra import MultiPoly, Rat, Record, require_ints
from .special import (genus_table, power_of_sum, quotient_rows, s_quotient,
                      sigma_coefficients)

DEFAULT_DEGREE_CAP = 20


class Partition(Record):
    """Partition with positive integer parts, stored sorted descending."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        require_ints("part", parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        object.__setattr__(self, "parts", tuple(sorted(parts, reverse=True)))

    @property
    def degree(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)


def one_part_polynomial(g: int, n: int) -> MultiPoly:
    """r! * (sum a)^(r-1) * [z^(2g)] prod S(a_i z)/S(z) over a1..an, with r = 2g-1+n."""
    r = 2 * g - 1 + n
    if r - 1 < 0:
        raise ValueError("need 2g-2+n >= 0")
    return s_quotient(g, n) * factorial(r) * power_of_sum(n, r - 1)


def one_part_number(g: int, mu: Partition) -> Rat:
    """Closed-form value r! * d^(r-1) * [z^(2g)] prod S(mu_i z)/S(z) at a partition.

    Unlike one_part_polynomial this also covers r = 0 (g = 0 with a single
    part), where d^(r-1) is the rational 1/d.  The series are integer lists
    in w = z^2 over the one denominator D = 4^g (2g+1)!: S(mu_i z) is
    t_l (mu_i^2)^l / D with t_l = D / (4^l (2l+1)!), so their product P
    carries D^n.  With sigma_k the coefficients of 1/S as integers over the
    lcm of their denominators, [w^g] of the quotient is sum_k sigma_(g-k) P_k
    over that lcm times D^n.  D, the t_l and the sigma numerators are read
    from ``special.genus_table(g)``, built once per genus grade.
    """
    if g < 0:
        raise ValueError("negative genus grade")
    n = len(mu)
    r = 2 * g - 1 + n
    if r < 0:
        raise ValueError("negative number of simple branch points")
    table = genus_table(g)
    prod = None
    for part in mu.parts:
        square = part * part
        series = list(table.s_num)
        power = 1
        for l in range(1, g + 1):
            power *= square
            series[l] *= power
        if prod is None:
            prod = series
        else:
            series.reverse()    # P_k = sum_j prod_j series_(k-j)
            prod = [sum(map(mul, prod, series[g - k:])) for k in range(g + 1)]
    num = sum(map(mul, reversed(table.sigma_num), prod))
    num, den = num * factorial(r), table.sigma_den * table.s_den ** n
    if r:
        num *= mu.degree ** (r - 1)
    else:
        den *= mu.degree
    return Fraction(num, den)


def hurwitz_correlator(d: Sequence[int], g: int) -> Fraction:
    """Signed mu-coefficient of H_g/(r! d); 0 outside the level interval/parity.

    H_g/(r! d) = Q_g(a) (a_1+..+a_n)^p with p = 2g-3+n, so the coefficient of
    a^d is the sum over even beta <= d with |beta| = |d| - p = 2k of
    sigma_(g-k) prod_i s_(beta_i/2) * p! / prod_i (d_i-beta_i)!.  With
    s_l = 1/(4^l (2l+1)!), every term shares sigma_(g-k) p! / 4^k, and over
    the one denominator prod_i (d_i+1)! slot i gives the integer
    comb(d_i+1, beta_i+1), so the sum over beta is entry k of
    ``special.quotient_rows(d)``.
    """
    d = tuple(d)
    require_ints("genus grade", (g,))
    require_ints("insertion", d)
    if g < 0 or any(x < 0 for x in d):
        raise ValueError("negative genus grade or insertion")
    n = len(d)
    p = 2 * g - 3 + n
    if p < 0:
        raise ValueError("need 2g-3+n >= 0")
    total = sum(d)
    if (total - n) % 2 == 0:
        return Fraction(0)
    if total < p or total > 4 * g - 3 + n:
        return Fraction(0)
    k = (total - p) // 2
    # the parity and level rules keep k <= sum floor(d_i/2), the rows' top degree
    ways = quotient_rows(d, k)
    den = 4 ** k
    for x in d:
        den *= factorial(x + 1)
    sign = -1 if ((4 * g - 3 + n - total) // 2) % 2 else 1
    return sign * sigma_coefficients(g - k)[-1] * Fraction(factorial(p) * ways[k], den)


# ----------------------------------------------------------------------
# transposition-factorization oracle

def _cut_and_join(m: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], int]]:
    """(new type, weight) pairs: how many transpositions t take a permutation
    whose cycle type has the multiplicities m (m[a-1] counts the a-cycles) to
    each type of its product with t.

    A transposition inside an a-cycle cuts it into (s, a-s) in a ways, or a/2
    ways when 2s = a; one across an a-cycle and a b-cycle joins them in a*b
    ways.  Per part size that is m_a*a cuts (m_a*a/2 when 2s = a), m_a*m_b*a*b
    joins of an a- and a b-cycle (a < b) and C(m_a, 2)*a^2 joins of two
    a-cycles.  No two of these moves give the same type, so each type appears
    once, and the weights sum to C(d, 2).
    """
    row = []
    sizes = [(a, ma) for a, ma in enumerate(m, 1) if ma]
    for i, (a, ma) in enumerate(sizes):
        less = list(m)
        less[a - 1] -= 1
        for s in range(1, a // 2 + 1):
            new = less.copy()
            new[s - 1] += 1
            new[a - s - 1] += 1
            row.append((tuple(new), ma * a // 2 if 2 * s == a else ma * a))
        if ma > 1:
            new = less.copy()
            new[a - 1] -= 1
            new[2 * a - 1] += 1
            row.append((tuple(new), ma * (ma - 1) // 2 * a * a))
        for b, mb in sizes[i + 1:]:
            new = less.copy()
            new[b - 1] -= 1
            new[a + b - 1] += 1
            row.append((tuple(new), ma * mb * a * b))
    return row


def factorization_count(g: int, mu: Partition, cap: int = DEFAULT_DEGREE_CAP) -> Rat:
    """(1/d) * #{transposition tuples (t_1..t_r): sigma_0 t_1..t_r has type mu}.

    sigma_0 is the fixed d-cycle (1 2 .. d); r = 2g-1+n.  The 1/d absorbs the
    (d-1)! choices of the full cycle over the d! normalization of covers.  The
    count reads the degree's walk state, ``_walk_state(d)``, which is built
    on the first count of that degree and shared by every later one.
    """
    if g < 0:
        raise ValueError("negative genus grade")
    d = mu.degree
    if d > cap:
        raise ValueError(f"degree {d} above the factorization-count cap {cap}")
    r = 2 * g - 1 + len(mu)
    if r < 0:
        raise ValueError("negative number of simple branch points")
    return _walk_state(d).count(r, mu.parts)


def factorization_counts(d: int, g_max: int) -> Dict[Tuple[Tuple[int, ...], int], Rat]:
    """{(mu.parts, g): factorization_count(g, mu)} for every partition mu of d
    and every g <= g_max, read from the same walk state as
    ``factorization_count``, asked in increasing r so that no step is taken
    twice."""
    if g_max < 0:
        raise ValueError("negative genus grade")
    if not 1 <= d <= DEFAULT_DEGREE_CAP:
        raise ValueError(
            f"degree {d} outside 1..{DEFAULT_DEGREE_CAP}, the factorization-count cap")
    walk = _walk_state(d)
    keys = sorted((2 * g - 1 + len(parts), parts, g)
                  for parts in partitions_of(d) for g in range(g_max + 1))
    return {(parts, g): walk.count(r, parts) for r, parts, g in keys}


class _Walk:
    """The cut-and-join walk of one degree from the d-cycle.

    ``number`` and ``rows`` are the degree's table (``_transitions``);
    ``vectors`` maps each step count asked for so far, and 0, to the count
    vector over the type numbers after that many steps, and ``steps`` lists
    those step counts in increasing order.  A count at r reads its vector,
    or steps forward from the vector at the largest stored r' < r and stores
    the result; no intermediate vector is kept.
    """

    __slots__ = ("d", "number", "rows", "steps", "vectors")

    def __init__(self, d: int):
        self.d = d
        self.number, self.rows = _transitions(d)
        start = [0] * len(self.rows)
        start[0] = 1  # partitions_of(d) starts at (d,), the d-cycle
        self.steps = [0]
        self.vectors = {0: start}

    def count(self, r: int, parts: Sequence[int]) -> Rat:
        """The count over d of the type ``parts`` after r steps."""
        counts = self.vectors.get(r)
        if counts is None:
            done = self.steps[bisect_left(self.steps, r) - 1]
            counts = self.vectors[done]
            for _ in range(r - done):
                nxt = [0] * len(self.rows)
                for c, row in zip(counts, self.rows):
                    if c:
                        for j, weight in row:
                            nxt[j] += c * weight
                counts = nxt
            # stored before it is listed, so every listed step count has its
            # vector even when another thread reads the walk in between
            self.vectors[r] = counts
            insort(self.steps, r)
        return Fraction(counts[self.number[_multiplicities(parts, self.d)]], self.d)


@lru_cache(maxsize=None)
def _walk_state(d: int) -> _Walk:
    """The walk of degree d, shared by every count of that degree."""
    return _Walk(d)


def _transitions(d: int) -> Tuple[Dict[Tuple[int, ...], int],
                                  Tuple[Tuple[Tuple[int, int], ...], ...]]:
    """The cut-and-join table of S_d: every cycle type, as its multiplicity
    vector, numbered in the order of ``partitions_of(d)``, and each type's
    row as (type number, weight) pairs.  p(d) rows, p(20) = 627 at the cap."""
    number = {_multiplicities(parts, d): i for i, parts in enumerate(partitions_of(d))}
    rows = tuple(tuple((number[new], weight) for new, weight in _cut_and_join(m))
                 for m in number)
    return number, rows


def _multiplicities(parts: Sequence[int], d: int) -> Tuple[int, ...]:
    """The multiplicity vector of a partition of d: entry a-1 counts the parts a."""
    m = [0] * d
    for part in parts:
        m[part - 1] += 1
    return tuple(m)


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
