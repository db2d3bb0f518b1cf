"""Special series and combinatorial polynomials: the closed forms the engine reads.

Contents:

  * the even series S(z) = sh(z/2)/(z/2) = sum z^(2l) / (4^l (2l+1)!),
    which carries every intersection-number coefficient in the engine, read
    through its coefficients s_l = 1/(4^l (2l+1)!) and the coefficients
    sigma_k of 1/S (``sigma_coefficients``), in closed form from the tangent
    numbers.  Both lists, to w^g, sit in one table per genus grade
    (``genus_table``, memoized, since every density term, Hurwitz
    correlator and one-part Hurwitz number of that grade reads the same
    values), as ``Fraction``s and as integers over one denominator each;
  * the quotient Q_g(a_1..a_n) = [z^(2g)] prod_i S(a_i z) / S(z) over the
    slots a1..an, built as ``s_quotient(g, n)`` for ``one_part_polynomial``.
    It is symmetric, and its coefficient of a^(2 lambda) is
    sigma_(g-|lambda|) prod_i s_(lambda_i).  So it is built orbit by orbit,
    with no series product: one value per partition lambda
    (``sorted_exponents``), written on each distinct rearrangement
    (``rearrangements``, an iterative next-permutation in lexicographic
    order).  ``symbols``, the densities and ``power_of_sum`` use the same two
    generators.  ``sorted_exponents`` writes a tuple as its zeros, its ones
    and its exponents of 2 or more, and takes a lower bound on the ones and
    an upper bound on the rest, which the densities' demands set.  Only the
    exponents of 2 or more recurse, one level each, so it goes at most
    total/2 deep, however many slots there are.  The Hurwitz numbers and
    correlators and the densities never build the quotient;
  * ``power_of_sum(n, power)`` = (a_1+..+a_n)^power over the same slots,
    written in closed form, one multinomial power!/prod_i e_i! per sorted
    exponent tuple e, and memoized;
  * Eulerian polynomials E_n(t) via the descent recurrence, built row by
    row in a loop on each call (the memoized Ehrhart table below is their
    only hot reader);
  * the power-sum convolution C^r(N) = sum over compositions
    k_1+...+k_q = N (k_i >= 1) of prod k_i^(r_i), expanded as an exact
    polynomial in N through the Carlitz identity
        sum_{k>=1} k^d t^k = t E_d(t) / (1-t)^(d+1).
    The Eulerian numerator prod_i t E_(r_i)(t) is a polynomial product,
    D = q + sum(r) prefix sums divide it by (1-t)^D, and the polynomial is
    interpolated from D consecutive coefficients by forward differences,
    as integer coefficients over the one denominator (D-1)!, in O(D^2)
    steps.

C^r(N) has degree q-1+sum(r) and all its monomials share the parity of that
degree; both facts are asserted at construction because the commutator
engine's single-polynomial representation rests on them.  The truncated
power series and the direct count of C^r(N), which check these closed forms,
live in ``qwk.series``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm
from typing import Iterable, List, Optional, Sequence, Tuple

from .algebra import GaussRat, MultiPoly, Record


class GenusTable(Record):
    """The coefficients of S and 1/S to w^g (w = z^2) at one genus grade g.

    ``sigma`` holds sigma_0..sigma_g as ``Fraction``s, ``sigma_num`` the
    same as integers over their lcm ``sigma_den``; ``s_num`` holds
    s_0..s_g, s_l = 1/(4^l (2l+1)!), as integers over ``s_den`` =
    4^g (2g+1)!, the one denominator of the one-part Hurwitz numbers.
    """

    __slots__ = ("sigma", "sigma_num", "sigma_den", "s_num", "s_den")

    def __init__(self, sigma, sigma_num, sigma_den, s_num, s_den):
        for name, value in zip(self.__slots__, (sigma, sigma_num, sigma_den, s_num, s_den)):
            object.__setattr__(self, name, value)


@lru_cache(maxsize=None)
def genus_table(g: int) -> GenusTable:
    """The coefficients of S and 1/S to genus grade g, built once per g.

    1/S(z) = (z/2)/sinh(z/2), so sigma_k = (2 - 4^k) B_(2k) / ((2k)! 4^k);
    with B_(2k) = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), T_k the tangent
    numbers 1, 2, 16, 272, .. (``_tangent_numbers``), that is
    sigma_k = (-1)^k (4^k - 2) T_k / ((4^k - 1) (2k-1)! 16^k) for k >= 1.
    Memoized, since every density term, Hurwitz correlator and one-part
    Hurwitz number of genus grade g reads the same table.
    """
    sigma = [Fraction(1)]
    fact = 1                                  # (2k-1)!
    for k, tangent in enumerate(_tangent_numbers(g), 1):
        four = 4 ** k
        sigma.append(Fraction((-1) ** k * (four - 2) * tangent, (four - 1) * fact * four * four))
        fact *= 2 * k * (2 * k + 1)
    sigma_den = lcm(*(s.denominator for s in sigma))
    s_num = [1]                               # s_l 4^g (2g+1)!, from l = g down
    for l in range(g, 0, -1):
        s_num.append(s_num[-1] * 4 * 2 * l * (2 * l + 1))
    sigma_num = tuple(s.numerator * (sigma_den // s.denominator) for s in sigma)
    return GenusTable(tuple(sigma), sigma_num, sigma_den, tuple(reversed(s_num)), s_num[-1])


def _tangent_numbers(n: int) -> List[int]:
    """T_1..T_n, tan z = sum T_k z^(2k-1) / (2k-1)!, by the integer recurrence
    of Knuth and Buckholtz (1967), in O(n^2) steps."""
    t = [0] * (n + 1)
    if n > 0:
        t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def sigma_coefficients(g: int) -> Tuple[Fraction, ...]:
    """sigma_0..sigma_g, sigma_k = [z^(2k)] 1/S(z), read from ``genus_table(g)``."""
    return genus_table(g).sigma


def slot_names(n: int) -> Tuple[str, ...]:
    """The slot variables a1..an."""
    return tuple(f"a{i}" for i in range(1, n + 1))


def rearrangements(canon: Tuple[int, ...]):
    """The distinct rearrangements of a sorted tuple, each once, in lexicographic order.

    Each step is the next permutation: find the last ascent a[i] < a[i+1],
    swap a[i] with the last entry above it, and reverse the tail after i.
    """
    a = list(canon)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def sorted_exponents(n: int, total: int, min_ones: int = 0, max_big: Optional[int] = None):
    """The ascending length-n tuples of integers >= 0 with the given total, at
    least ``min_ones`` of them 1 and, when given, at most ``max_big`` of them
    2 or more, in lexicographic order.

    Such a tuple is z zeros, then o ones, then j = w - o exponents of 2 or
    more, w = n - z, which sum to total - o >= 2j.  Fewer zeros, then fewer
    ones, come later in lexicographic order, and only the last part recurses
    (``_big_exponents``), so the depth is at most total/2 however many slots
    there are.
    """
    min_ones = max(0, min_ones)
    for w in range(min_ones, min(n, total) + 1):
        head = (0,) * (n - w)
        low = max(min_ones, 2 * w - total, 0 if max_big is None else w - max_big)
        for o in range(min(total, w), low - 1, -1):
            for big in _big_exponents(w - o, total - o, 2):
                yield head + (1,) * o + big


def _big_exponents(j: int, total: int, low: int):
    """The ascending length-j tuples of integers >= low with the given total."""
    if j == 0:
        if total == 0:
            yield ()
        return
    for x in range(low, total // j + 1):
        for rest in _big_exponents(j - 1, total - x, x):
            yield (x,) + rest


def s_quotient(g: int, n: int) -> MultiPoly:
    """Q_g(a_1..a_n) = [z^(2g)] prod_i S(a_i z) / S(z), a symmetric polynomial in the slots.

    Its coefficient of a^(2 lambda) is sigma_(g-|lambda|) prod_i s_(lambda_i),
    written once per partition lambda on every rearrangement.
    """
    sigma = sigma_coefficients(g)
    terms = {}
    for k in range(g + 1):
        for lam in sorted_exponents(n, k):
            c = sigma[g - k]
            for l in lam:
                c /= 4 ** l * factorial(2 * l + 1)
            c = GaussRat(c)
            for e in rearrangements(tuple(2 * l for l in lam)):
                terms[e] = c
    return MultiPoly(slot_names(n), terms, _normalized=True)


def quotient_rows(exponents: Iterable[int], top: Optional[int] = None) -> List[int]:
    """Entry k: the sum over even beta <= a with |beta| = 2k of prod_i
    comb(a_i+1, beta_i+1), to k = ``top`` if given; the quotient's beta sum
    over prod_i (a_i+1)!, as the densities and the Hurwitz correlators read it."""
    out = [1]
    for a in exponents:
        if a < 2:       # the one entry comb(a+1, 1)
            out = [x * (a + 1) for x in out]
            continue
        row = [comb(a + 1, b + 1) for b in range(0, a + 1, 2)]
        size = len(out) + len(row) - 1
        if top is not None:
            size = min(size, top + 1)
        out = [sum(out[j] * row[i - j]
                   for j in range(max(0, i - len(row) + 1), min(i + 1, len(out))))
               for i in range(size)]
    return out


# ----------------------------------------------------------------------
# Eulerian polynomials

def _euler_row(n: int) -> Tuple[int, ...]:
    """Descent counts <n,k> for k < max(n, 1), by the Eulerian recurrence, row by row."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for i in range(1, n + 1):
        row = [(k + 1) * (row[k] if k < len(row) else 0) + (i - k) * (row[k - 1] if k else 0)
               for k in range(i)]
    return tuple(row)


def eulerian_number(n: int, k: int) -> int:
    row = _euler_row(n)
    return row[k] if 0 <= k < len(row) else 0


def eulerian_polynomial(n: int, var: str = "t") -> MultiPoly:
    """E_n(t) = sum_k <n,k> t^k; E_n(1) = n!."""
    row = _euler_row(n)
    return MultiPoly((var,), {(k,): c for k, c in enumerate(row) if c})


# ----------------------------------------------------------------------
# Ehrhart power-sum convolution

@lru_cache(maxsize=None)
def _ehrhart_cached(r: Tuple[int, ...]) -> MultiPoly:
    """C^r(N) as [t^N] prod_i t E_(r_i)(t) / (1-t)^D, D = q + sum(r).

    That coefficient is sum_j num_j binom(N-j+D-1, D-1), a polynomial of
    degree D-1 in N, and it equals the series coefficient from N0 = the
    numerator's degree - (D-1) on (there every binomial with j > N is 0).
    So D prefix sums give its values at N0..N0+D-1, and their forward
    differences Delta^k at N0 give it in Newton form,
    sum_k Delta^k (D-1)!/k! prod_(i<k) (N-N0-i) over (D-1)!, which Horner's
    rule expands into integer coefficients of N^e.
    """
    q = len(r)
    total = sum(r)
    degree = q - 1 + total
    d_total = q + total
    # numerator of prod_i t*E_{r_i}(t) / (1-t)^(r_i+1) over (1-t)^D
    num = MultiPoly.const(1, ("t",))
    t = MultiPoly.var("t")
    for ri in r:
        num = num * t * eulerian_polynomial(ri)
    top = num.degree()
    low = max(0, top + 1 - d_total)
    series = [0] * (low + d_total)
    for (j,), cj in num.terms.items():
        series[j] = int(cj.re)
    for _ in range(d_total):
        series = list(accumulate(series))
    diffs = []
    values = series[low:]
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    acc = [diffs[-1]]
    weight = 1                  # (D-1)!/k!
    for k in range(d_total - 2, -1, -1):
        weight *= k + 1
        acc = [b - (low + k) * a for a, b in zip(acc + [0], [0] + acc)]
        acc[0] += diffs[k] * weight
    poly = MultiPoly(("N",), {(e,): GaussRat(Fraction(a, weight)) for e, a in enumerate(acc) if a},
                     _normalized=True)
    got_deg = poly.degree()
    if got_deg != degree:
        raise AssertionError(f"Ehrhart degree {got_deg} != {degree} for r={r}")
    # pure parity holds under the lemma's hypothesis (all exponents positive);
    # the commutator engine's branch gluing rests on it, and only ever uses
    # exponents >= 1 because of the k_1...k_q prefactor
    if all(x >= 1 for x in r):
        for (e,), _c in poly.terms.items():
            if (e - degree) % 2 != 0:
                raise AssertionError(f"Ehrhart parity violated at N^{e} for r={r}")
    return poly


def ehrhart_convolution(r: Sequence[int]) -> MultiPoly:
    """The polynomial in N matching sum_{k_1+..+k_q=N, k_i>=1} prod k_i^{r_i} for N >= q.

    It is symmetric in r, so one memo entry serves every ordering.
    """
    r = tuple(r)
    if not r:
        raise ValueError("empty exponent list")
    if any(x < 0 for x in r):
        raise ValueError("negative exponent")
    return _ehrhart_cached(tuple(sorted(r)))


@lru_cache(maxsize=None)
def power_of_sum(n: int, power: int) -> MultiPoly:
    """(a_1 + ... + a_n)^power over the slots a1..an.

    The multinomial power! / prod_i e_i! is written once per sorted exponent
    tuple e, on each of its rearrangements.  Memoized, since the bracket
    engine asks for few distinct powers.
    """
    if n < 0 or power < 0:
        raise ValueError("slot count and power must be >= 0")
    terms = {}
    top = factorial(power)
    for canon in sorted_exponents(n, power):
        ways = top
        for e in canon:
            ways //= factorial(e)
        c = GaussRat(ways)
        for e in rearrangements(canon):
            terms[e] = c
    return MultiPoly(slot_names(n), terms, _normalized=True)
