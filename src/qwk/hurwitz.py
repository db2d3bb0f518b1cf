"""One-part double Hurwitz numbers and Hurwitz correlators.

The closed formula (genus g, n parts over infinity, r = 2g-1+n simple
branch points) is

    H_g(mu) = r! * (mu_1+..+mu_n)^(r-1) * [z^(2g)] prod_i S(mu_i z) / S(z),

a polynomial in the parts.  ``one_part_number`` reads it at one partition
without building that polynomial: in w = z^2 each S(mu_i z), truncated at
w^g, is an integer list over the one denominator D = 4^g (2g+1)!, the lists
are multiplied over the parts, and [w^g] of their product with 1/S is summed
against the coefficients of 1/S that the densities and the Hurwitz
correlators read (``special.sigma_coefficients``), with no division by S, so
the value is one ``Fraction``.  Only ``one_part_polynomial`` builds the
polynomial.  Its quotient is ``special.s_quotient`` (the Hamiltonian
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
nothing is sorted and repeated parts give one entry.  The rows of a degree
are built once per process, in the memo table ``_transitions(d)``: the p(d)
types numbered over ``partitions_of(d)``, each row as (type number, weight)
pairs, so the walk is a plain count vector stepped along the rows, and every
count of that degree shares the table.  After r steps the walk holds every
type at once, so ``factorization_counts`` serves every (mu, g) of a degree
from one walk.  DEFAULT_DEGREE_CAP = 20 is a cost guard: at that degree the
table has p(20) = 627 rows and 7,090 entries, and a cold count for (1^20)
at g = 5 (29 branch points), table build included, takes about 0.02 s on a
2-vCPU Xeon, and the closed formula 0.2 ms.  The closed formula equals
aut_factor(mu) times this count: the formula counts covers with labeled
preimages of infinity, the count weights unlabeled covers by 1/|Aut|.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Dict, List, Sequence, Tuple

from .algebra import MultiPoly, Rat, Record, require_ints
from .special import power_of_sum, quotient_rows, s_quotient, sigma_coefficients

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
    t_l mu_i^(2l) / D with t_l = D / (4^l (2l+1)!), so their product P
    carries D^n.  With sigma_k the coefficients of 1/S (``sigma_coefficients``)
    as integers over the lcm of their denominators, [w^g] of the quotient is
    sum_k sigma_(g-k) P_k over that lcm times D^n.
    """
    if g < 0:
        raise ValueError("negative genus grade")
    n = len(mu)
    r = 2 * g - 1 + n
    if r < 0:
        raise ValueError("negative number of simple branch points")
    big = 4 ** g * factorial(2 * g + 1)
    t = [big // (4 ** l * factorial(2 * l + 1)) for l in range(g + 1)]
    prod = [1] + [0] * g
    for part in mu.parts:
        series = [t[l] * part ** (2 * l) for l in range(g + 1)]
        prod = [sum(prod[j] * series[k - j] for j in range(k + 1)) for k in range(g + 1)]
    sigma = sigma_coefficients(g)
    common = lcm(*(s.denominator for s in sigma))
    num = sum(s.numerator * (common // s.denominator) * p for s, p in zip(reversed(sigma), prod))
    num, den = num * factorial(r), common * big ** n
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
    walk reads the degree's cut-and-join table, ``_transitions(d)``, which is
    built on the first count of that degree and shared by every later one.
    """
    if g < 0:
        raise ValueError("negative genus grade")
    d = mu.degree
    if d > cap:
        raise ValueError(f"degree {d} above the factorization-count cap {cap}")
    r = 2 * g - 1 + len(mu)
    if r < 0:
        raise ValueError("negative number of simple branch points")
    return _walk(d, [(r, mu.parts)])[0]


def factorization_counts(d: int, g_max: int) -> Dict[Tuple[Tuple[int, ...], int], Rat]:
    """{(mu.parts, g): factorization_count(g, mu)} for every partition mu of d
    and every g <= g_max, read from one walk over the same per-degree table
    as ``factorization_count``."""
    if g_max < 0:
        raise ValueError("negative genus grade")
    if not 1 <= d <= DEFAULT_DEGREE_CAP:
        raise ValueError(
            f"degree {d} outside 1..{DEFAULT_DEGREE_CAP}, the factorization-count cap")
    keys = sorted((2 * g - 1 + len(parts), parts, g)
                  for parts in partitions_of(d) for g in range(g_max + 1))
    counts = _walk(d, [(r, parts) for r, parts, _ in keys])
    return {(parts, g): c for (_, parts, g), c in zip(keys, counts)}


def _walk(d: int, wanted: List[Tuple[int, tuple]]) -> List[Rat]:
    """The count over d of each (r, parts) in ``wanted``, sorted by r, from one
    walk of cut-and-join steps from the d-cycle: a count vector over the type
    numbers of ``_transitions(d)``, stepped along the table's rows."""
    number, rows = _transitions(d)
    counts = [0] * len(rows)
    counts[0] = 1  # partitions_of(d) starts at (d,), the d-cycle
    out = []
    done = 0
    for r, parts in wanted:
        for _ in range(r - done):
            nxt = [0] * len(rows)
            for c, row in zip(counts, rows):
                if c:
                    for j, weight in row:
                        nxt[j] += c * weight
            counts = nxt
        done = r
        out.append(Fraction(counts[number[_multiplicities(parts, d)]], d))
    return out


@lru_cache(maxsize=None)
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
