"""Special series and combinatorial polynomials: the closed forms the engine reads.

Contents:

  * the even series S(z) = sh(z/2)/(z/2) = sum z^(2l) / (4^l (2l+1)!),
    which carries every intersection-number coefficient in the engine, read
    through its coefficients s_l = 1/(4^l (2l+1)!) and the coefficients
    sigma_k of 1/S, in closed form from the tangent numbers.
    sigma_0..sigma_g sit in one table per genus grade
    (``genus_table``, memoized, since every density term, Hurwitz
    correlator, one-part Hurwitz number and quotient of that grade reads the
    same values), as integers over their lcm;
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
    only hot reader, and reads the integer rows);
  * the power-sum convolution C^r(N) = sum over compositions
    k_1+...+k_q = N (k_i >= 1) of prod k_i^(r_i), expanded as an exact
    polynomial in N through the Carlitz identity
        sum_{k>=1} k^d t^k = t E_d(t) / (1-t)^(d+1)
    (Carlitz, *Eulerian numbers and polynomials*, 1959).
    The Eulerian numerator prod_i t E_(r_i)(t) is an integer list
    convolution, D = q + sum(r) prefix sums divide it by (1-t)^D, and the
    polynomial is interpolated from D consecutive coefficients by forward
    differences, in O(D^2) integer steps.  ``ehrhart_convolution`` returns
    the pair (c_0..c_(D-1), (D-1)!), the integer coefficients of N^e over
    their one denominator, so a reader scales a whole table by one integer
    and no table holds a Fraction.

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

from .algebra import GaussRat, MultiPoly


@lru_cache(maxsize=None)
def genus_table(g: int) -> Tuple[Tuple[int, ...], int]:
    """sigma_0..sigma_g, sigma_k = [z^(2k)] 1/S(z), as integer numerators over
    their lcm: the pair (numerators, lcm), built once per genus grade g.

    1/S(z) = (z/2)/sinh(z/2), so sigma_k = (2 - 4^k) B_(2k) / ((2k)! 4^k);
    with B_(2k) = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), T_k the tangent
    numbers 1, 2, 16, 272, .. (``_tangent_numbers``), that is
    sigma_k = (-1)^k (4^k - 2) T_k / ((4^k - 1) (2k-1)! 16^k) for k >= 1.
    Memoized, since every density term, Hurwitz correlator, one-part Hurwitz
    number and quotient of genus grade g reads the same table; each builds
    the one ``Fraction`` it needs from the integers.
    """
    sigma = [Fraction(1)]
    fact = 1                                  # (2k-1)!
    for k, tangent in enumerate(_tangent_numbers(g), 1):
        four = 4 ** k
        sigma.append(Fraction((-1) ** k * (four - 2) * tangent, (four - 1) * fact * four * four))
        fact *= 2 * k * (2 * k + 1)
    den = lcm(*(s.denominator for s in sigma))
    return tuple(s.numerator * (den // s.denominator) for s in sigma), den


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
    sigma, sigma_den = genus_table(g)
    terms = {}
    for k in range(g + 1):
        for lam in sorted_exponents(n, k):
            den = sigma_den
            for l in lam:
                den *= 4 ** l * factorial(2 * l + 1)
            c = GaussRat(Fraction(sigma[g - k], den))
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
        out = _convolve(out, row, None if top is None else top + 1)
    return out


def _convolve(a: Sequence[int], b: Sequence[int], size: Optional[int] = None) -> List[int]:
    """The product of two integer coefficient lists, to ``size`` entries if given."""
    n = len(a) + len(b) - 1
    if size is not None:
        n = min(n, size)
    return [sum(a[j] * b[i - j] for j in range(max(0, i - len(b) + 1), min(i + 1, len(a))))
            for i in range(n)]


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
def _ehrhart_cached(r: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    """C^r(N) as [t^N] prod_i t E_(r_i)(t) / (1-t)^D, D = q + sum(r), returned
    as the pair (c_0..c_(D-1), (D-1)!): C^r(N) = sum_e c_e N^e / (D-1)!.

    The numerator prod_i t E_(r_i)(t) is an integer list convolution of the
    Eulerian rows.  Its coefficient of t^N over (1-t)^D is
    sum_j num_j binom(N-j+D-1, D-1), a polynomial of degree D-1 in N, and it
    equals the series coefficient from N0 = the numerator's degree - (D-1) on
    (there every binomial with j > N is 0).  So D prefix sums give its values
    at N0..N0+D-1, and their forward differences Delta^k at N0 give it in
    Newton form, sum_k Delta^k (D-1)!/k! prod_(i<k) (N-N0-i) over (D-1)!,
    which Horner's rule expands into integer coefficients of N^e.
    """
    q = len(r)
    total = sum(r)
    degree = q - 1 + total
    d_total = q + total
    # numerator of prod_i t*E_{r_i}(t) / (1-t)^(r_i+1) over (1-t)^D
    num = [1]
    for ri in r:
        num = [0] + _convolve(num, _euler_row(ri))
    low = max(0, len(num) - d_total)
    series = num + [0] * (low + d_total - len(num))
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
    got_deg = max((e for e, a in enumerate(acc) if a), default=-1)
    if got_deg != degree:
        raise AssertionError(f"Ehrhart degree {got_deg} != {degree} for r={r}")
    # pure parity holds under the lemma's hypothesis (all exponents positive);
    # the commutator engine's branch gluing rests on it, and only ever uses
    # exponents >= 1 because of the k_1...k_q prefactor
    if all(x >= 1 for x in r):
        for e in range(degree - 1, -1, -2):
            if acc[e]:
                raise AssertionError(f"Ehrhart parity violated at N^{e} for r={r}")
    return tuple(acc), weight


def ehrhart_convolution(r: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """sum_{k_1+..+k_q=N, k_i>=1} prod k_i^{r_i} for N >= q, as a polynomial in N:
    the pair (c_0..c_(D-1), (D-1)!), D = q + sum(r), of its integer
    coefficients of N^e and their one denominator.

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
