"""Quantum KdV Hamiltonian densities and the commutator engine.

The density H_d carries one term per genus grade g with m = d+2-2g slots and
coefficient

    (1/m!) * [z^(2g)]  S(a_1 z) ... S(a_m z) S((a_1+..+a_m) z) / S(z),

a symmetric polynomial of degree 2g in the slots: the quotient that the
one-part Hurwitz formula reads (``special.s_quotient``), on m+1 slots with the
last set to the sum of the others.  Its coefficients have a closed form, so
the term is built orbit by orbit, with no polynomial product and without the
quotient.  With s_l = 1/(4^l (2l+1)!) the coefficients of S and sigma_k those
of 1/S, a sorted exponent tuple alpha of even total <= 2g has the coefficient

    sigma_(g-|alpha|/2) / (m! 2^|alpha| prod_i (alpha_i+1)!)
        * sum over even beta <= alpha of prod_i comb(alpha_i+1, beta_i+1) / (|alpha|-|beta|+1),

and that one value is written on every distinct rearrangement of alpha.  The
last slot contributes s_(j/2) (a_1+..+a_m)^j with j = |alpha| - |beta|, the
others sigma_(g-|alpha|/2) prod_i s_(beta_i/2), and the multinomial
j!/prod_i (alpha_i-beta_i)! turns j!/(j+1)! into 1/(j+1).  The sum is taken in
integers over lcm(1..|alpha|+1), so each orbit costs one Fraction.

The commutator engine computes (L*R - R*L)/hbar_u for a density L and an
integrated R, where * is the normal-ordered star product

    f * g = f exp( sum_{k>0} hbar_u k  d/dp_k(left) d/dp_{-k}(right) ) g.

Striking q slots against each other turns the k-summation, constrained by
R's zero total mode to k_1+..+k_q = B (B = sum of R's surviving slots), into
the power-sum convolution C^r(N) evaluated at N := B.  The true operator
coefficient is E_fwd(B) on B>0 and -E_rev(-B) on B<0, where E_rev is the
product with the signs of the two sides swapped.  By ``_split``'s sign rule
E_rev's coefficient of C^r is E_fwd's times (-1)^(q+|r|), and C^r(-N) is
(-1)^(q-1+|r|) C^r(N) because C^r has the pure parity of its degree, which
``special._ehrhart_cached`` asserts for every table it builds.  So the two
branches glue into the single polynomial E_fwd, the only one computed.

The same two facts bound the degree of a nested commutator, which gives its
degree window.  A grade-g density term has monomials of even degree <= 2g.  A
strike of q slots takes left and right monomials of degrees D_l and D_r, with
struck exponents k_l and k_r, to survivors of degree D_l + D_r - |k_l| - |k_r|
times the powers N^e of C^r, r = k_l + k_r + 1; C^r has degree
q - 1 + |r| = 2q - 1 + |k_l| + |k_r| and pure parity, and N^e puts degree e on
the survivors.  So the output has degree <= D_l + D_r + 2q - 1 and parity
D_l + D_r + 1, at grade grade_l + grade_r + q - 1.  By induction over the
n - 1 brackets of [[..[H_(d_1-1), Hbar_(d_2)].., Hbar_(d_n)]], each grade-g
term has degree <= 2g + n - 1, of the parity of n - 1, on m = S + 1 - 2g
slots, S = d_1 + .. + d_n.  The string point reads the all-ones monomial, of
degree m, so grade g is zero unless S - n is even and 4g >= S + 2 - n: at the
budget g these are the l = 0 level conditions on the key (0, d_1..d_n).
``nested_bracket`` returns {} outside that window without building anything;
``_nested`` is the same evaluation without the window, its oracle.

The right operand is symmetrized on entry.  That is exact, because an
integrated symbol's operator sees only its symmetrization, and free for a
Hamiltonian, whose terms are already one symmetric block (m_r,).  A strike of
q slots against a left term with blocks (b_1..b_k) is then a tuple of
per-left-block counts (v_1..v_k) with sum q: left block i strikes its last
v_i slots, the right operand strikes its last q slots, and the t-th struck
left slot (blocks in order) meets right slot m_r-q+t through the mode k_t.
The prefactor is the integer perm(m_r, q) * prod_i comb(b_i, v_i): the
ordered slot choices over the orderings of the modes within one left block,
since perm(b, v)/v! = comb(b, v).  The survivors keep their order: left
blocks (b_i - v_i), then the right block (m_r - q).

Each strike works on exponent tuples.  One walk, ``_strikes``, serves both
``bracket`` and the contracted last bracket: it splits each side once per
term, strike shape and bound (a left term per (counts, bound), a right one
per (q, bound), with rule B's ``allowed`` clamped to that side's survivor
count, past which it filters nothing) into survivor exponents and
coefficients grouped by strike-mode exponents, the right one with its struck
slots set to -k_t, and drops rule B's terms (below) in the same pass.
``bracket`` multiplies the two splits of a strike group by group; the
Ehrhart expansion of that product, with the prefactor folded into the
Ehrhart coefficients, is summed per output monomial of the strike's
(grade, blocks).

Symbols carry GaussRat coefficients, but between those boundaries the values
are Python integers: ``_strikes`` reads each operand term once as integer
numerators over the lcm of its denominators, dl for a left term and dr for a
right one, the Ehrhart coefficients of a strike are read over one
de = (D-1)!, the largest denominator of its tables, and the N-power
multinomials are ints.  Each strike adds one Fraction(numerator, dl*dr*de)
per output monomial (per strike at the last bracket, rule A below), and
``bracket`` wraps each output value in a GaussRat once.  A non-real
coefficient, as in a random test symbol, travels as a GaussRat with integer
parts through the same code.

Terms above the hbar-grade budget are dropped eagerly.  Inside a nested
commutator, ``bracket`` also takes the number of brackets still to come after
it, and then keeps only the terms that can still reach the string point, whose
value reads the one coefficient with every slot exponent exactly 1.  Three
facts make this pruning a linear projection, hence exact at every grade up to
the budget: a left survivor's exponent never changes (it can only be struck
later), a right survivor's exponent only grows (through the N-power), and a
strike of q slots adds q - 1 grades, so L later brackets under the budget g
strike at most g - grade + L of a term's slots in all.

  * Rule B, L >= 1 brackets after this one: with allowed = g - grade + L,
    a left split term with more than ``allowed`` survivor exponents other
    than 1, or a right split term with more than ``allowed`` survivor
    exponents of 2 or more, can never become multilinear and is dropped
    as its side is split.  The same bound holds on the output: only the
    monomials of the N-power expansion with at most ``allowed`` exponents
    other than 1, left and right survivors together, are multiplied and
    written.  They are enumerated directly, not filtered from the whole
    power: a recursion over the right survivors spends the spare left by the
    left survivors only where an exponent ends off 1, and builds each
    multinomial as it goes.
  * Rule A, the last bracket, is rule B at L = 0 with allowed = 0, since no
    strike is left to move a survivor: every left survivor exponent must be
    1 and every right one 0 or 1, and of the N-power expansion only the
    all-ones monomial is kept, N^z giving it the coefficient z! when z is
    the number of zero right survivors.  So ``nested_bracket`` builds no
    output symbol for its last bracket: ``_string_point_bracket`` contracts
    the same splits, taken at allowed = 0, to sum pref L[k_l] R[k_r, z]
    [N^z] C^(k_l+k_r+1) z! per strike, one Fraction over dl*dr*de, which
    (-i)^m of its output slots adds into its grade.  ``bracket`` with no
    bracket after it writes the same values as monomials, and
    ``eval_string_point`` of that is the oracle.

The rule counts survivor exponents, which is symmetric under permuting the
slots of a block, so every output term stays one symmetric term per block
layout.  The rule drops split terms before the product, and the gluing holds
for each C^r on its own, so it holds for what is kept.  Without that
argument ``bracket`` is the full commutator: the same code under a bound
larger than any strike's survivors, which never binds.

The same bound builds the densities on demand.  A strike of q slots passes a
split term only if its survivors have at most ``allowed`` exponents off
target, and allowed + q = g - grade_l - grade_r + 1 + L does not depend on q,
so no term with more than that many exponents off target, in all its slots,
is ever used.  ``nested_bracket`` therefore asks the first density
H_(d_1-1) (a left operand, target 1) for at most g - grade + n - 1 exponents
other than 1, and the right operand Hbar_d of a bracket with L brackets after
it (target 0 or 1) for at most g - grade + 1 + L exponents of 2 or more.  At
the last bracket, allowed = 0 and q <= g + 1 - grade_l - grade_r bound the
same sum.  The admitted orbits are enumerated directly, never filtered from
all of them: ``special.sorted_exponents`` writes a sorted exponent tuple as its
zeros, its ones and its exponents of 2 or more, and the demand bounds how few
ones (LEFT) or how many exponents of 2 or more (RIGHT) it has, so the other
orbits are never generated, summed or written.  The memo key of a demanded
term is its bound clamped to the most exponents a grade-g term on m slots can
have off target: m off 1, and min(m, g) of 2 or more, since their total is at
most 2g.
Demands that admit the same orbits therefore share one term, and a grade whose
m - k slots on 1 would pass the degree 2g is skipped without a build.

Nested commutators share their intermediates.  The i-th one depends only on
the triple (d_1..d_(i+1), g, n - i - 1): the insertions so far, the budget and
the brackets still to come, which fix every operand's demand.  ``_prefix``
memoizes that triple, so the keys of a grid that share their leading
insertions (the string inversion bumps the largest and keeps it first) build
those brackets once; the same insertions with another number of brackets
after them are a different, differently pruned symbol.  The last bracket
builds no symbol: ``_string_point_bracket`` contracts it to the string-point
value, which ``correlators`` memoizes per key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm
from operator import add, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import I_POWERS, GaussRat, MultiPoly, Scalar, require_ints
from .special import (ehrhart_convolution, power_of_sum, quotient_rows, rearrangements,
                      sigma_coefficients, slot_names, sorted_exponents)
from .symbols import (DENSITY, INTEGRATED, FourierSymbol, SymbolTerm,
                      eval_string_point, make_term, symmetrize)


# ----------------------------------------------------------------------
# Hamiltonian densities

# What a density keeps when it serves ``bracket`` as one of its operands: the
# survivor exponents that can still end at the string point's 1 (``_split``'s
# target), a left survivor's being final and a right survivor's only growing.
LEFT, RIGHT = (1,), (0, 1)


@lru_cache(maxsize=None)
def _hamiltonian_term(d: int, g: int,
                      demand: Optional[Tuple[Tuple[int, ...], int]] = None) -> Optional[SymbolTerm]:
    """The grade-g term of H_d, or with ``demand`` = (target, k) its orbits with
    at most k exponents off target; None when no orbit is left.

    A demanded term enumerates only its admitted orbits, in the order of the
    full build, so it equals the full term restricted: off LEFT's 1 are all
    but the ones, off RIGHT's 0 and 1 the exponents of 2 or more.
    """
    m = d + 2 - 2 * g
    if m < 0:
        return None
    min_ones, max_big = 0, None
    if demand is not None:
        target, k = demand
        min_ones, max_big = (m - k, None) if target == LEFT else (0, k)
    sigma = sigma_coefficients(g)
    terms = {}
    for total in range(0, 2 * g + 1, 2):
        sig = sigma[g - total // 2]
        common = lcm(*range(1, total + 2))
        for alpha in sorted_exponents(m, total, min_ones, max_big):
            # the sum over beta by |beta|/2, over prod_i (alpha_i+1)!; a slot with
            # exponent 0 or 1 gives comb / (alpha_i+1)! = 1
            big = [a for a in alpha if a > 1]
            by_half = quotient_rows(big)
            den = factorial(m) << total
            for a in big:
                den *= factorial(a + 1)
            num = sum(c * (common // (total - 2 * h + 1)) for h, c in enumerate(by_half))
            c = GaussRat(Fraction(sig.numerator * num, sig.denominator * den * common))
            for e in rearrangements(alpha):
                terms[e] = c
    if not terms:
        return None
    return make_term(g, m, MultiPoly(slot_names(m), terms, _normalized=True), blocks=(m,))


def hamiltonian_density(d: int, max_grade: Optional[int] = None,
                        demand: Optional[Tuple[Tuple[int, ...], int]] = None) -> FourierSymbol:
    """H_d at epsilon = 0; one term per genus grade with m = d+2-2g >= 0 slots.

    With ``demand`` = (target, bound), target LEFT or RIGHT, the term of grade
    g keeps only the orbits with at most bound - g exponents off target, and
    is dropped when that is negative or no orbit is left; without it, H_d is
    complete.  Each term is built under bound - g clamped to the most
    exponents it can have off target, so every bound that admits the same
    orbits reads one memoized term.
    """
    if d < -1:
        raise ValueError("d must be >= -1")
    g_top = (d + 2) // 2
    if max_grade is not None:
        if max_grade < 0:
            raise ValueError("max_grade must be >= 0")
        g_top = min(g_top, max_grade)
    if demand is not None:
        target, bound = demand
        if target not in (LEFT, RIGHT):
            raise ValueError("demand target must be LEFT or RIGHT")
        if bound < 0:
            raise ValueError("demand bound must be >= 0")
    terms = []
    for g in range(g_top + 1):
        term_demand = None
        if demand is not None:
            if bound < g:
                break
            # clamped to the most exponents a grade-g term has off target: every
            # slot off 1, and at most g slots of 2 or more, whose total is <= 2g
            m = d + 2 - 2 * g
            k = min(bound - g, m) if target == LEFT else min(bound - g, m, g)
            if target == LEFT and m - k > 2 * g:
                continue        # its m - k slots on 1 pass the degree 2g
            term_demand = (target, k)
        t = _hamiltonian_term(d, g, term_demand)
        if t is not None:
            terms.append(t)
    return FourierSymbol(DENSITY, tuple(terms))


def integrate_hamiltonian(h: FourierSymbol) -> FourierSymbol:
    """x-integration: flags the zero-total-mode constraint, terms unchanged."""
    if h.kind != DENSITY:
        raise ValueError("only a density can be integrated")
    return FourierSymbol(INTEGRATED, h.terms)


# ----------------------------------------------------------------------
# the commutator engine

def _strike_counts(caps: Tuple[int, ...], q: int):
    """Every (v_1..v_k) with 0 <= v_i <= caps[i] and v_1+..+v_k = q, lexicographically."""
    if not caps:
        if q == 0:
            yield ()
        return
    for v in range(min(caps[0], q) + 1):
        for rest in _strike_counts(caps[1:], q - v):
            yield (v,) + rest


def bracket(left: FourierSymbol, right: FourierSymbol, max_grade: int,
            brackets_left: Optional[int] = None) -> FourierSymbol:
    """(left * right - right * left) / hbar_u as a density symbol, to hbar grade max_grade.

    With ``brackets_left`` given, only the terms that can still reach the
    string point after that many further brackets under the same budget are
    kept (rules A and B of the module docstring); without it, all of them.
    """
    if left.kind != DENSITY:
        raise ValueError("left operand must be a density")
    if right.kind != INTEGRATED:
        raise ValueError("right operand must be integrated")
    if max_grade < 0:
        raise ValueError("max_grade must be >= 0")
    if brackets_left is not None and brackets_left < 0:
        raise ValueError("brackets_left must be >= 0")
    merged: Dict[Tuple[int, Tuple[int, ...]], Dict[tuple, Scalar]] = {}
    # the admitted N-power monomials, shared by the pieces of this call
    admitted: Dict[tuple, list] = {}
    for tl, m_r, den, grade, counts, allowed, ls, rs in _strikes(
            left, right, max_grade, brackets_left):
        fwd = _product_by_k(ls, rs)
        if fwd:
            _bracket_piece(merged, admitted, fwd, tl, m_r, den, grade, counts, allowed)

    out_terms = []
    for (grade, blocks), terms in merged.items():
        if terms:
            m = sum(blocks)
            coeff = {e: GaussRat.of(c) for e, c in terms.items()}
            out_terms.append(
                SymbolTerm(grade, m, MultiPoly(slot_names(m), coeff, _normalized=True), blocks))
    out_terms.sort(key=lambda t: (t.grade, t.m, t.blocks))
    return FourierSymbol(DENSITY, tuple(out_terms))


def _strikes(left: FourierSymbol, right: FourierSymbol, max_grade: int,
             brackets_left: Optional[int], read_right: Optional[Callable] = None):
    """The strikes of ``bracket(left, right, max_grade, brackets_left)``, as
    (tl, m_r, den, grade, counts, allowed, left split, right split).

    Each operand term is read once as integer numerators over one denominator;
    den is the left one times the right one.  ``allowed`` is rule B's bound:
    0 at the last bracket, at least L with L >= 1 brackets after it, and past
    the survivors for the full commutator.  Each side is split once per term,
    strike shape and bound clamped to its survivors, a right split passing
    through ``read_right`` when given, and a strike with an empty side is
    skipped.
    """
    lefts = [(tl, *_numerators(tl.coeff.terms)) for tl in left.terms if tl.m]
    rights = [(tr, *_numerators(tr.coeff.terms)) for tr in symmetrize(right).terms if tr.m]
    right_splits: Dict[tuple, dict] = {}
    for tl, dl, phi in lefts:
        left_splits: Dict[tuple, dict] = {}
        for j, (tr, dr, psi) in enumerate(rights):
            m_r = tr.m
            q_cap = min(tl.m, m_r, max_grade + 1 - tl.grade - tr.grade)
            for q in range(1, q_cap + 1):
                grade = tl.grade + tr.grade + q - 1
                if brackets_left is None:
                    allowed = tl.m + m_r
                else:
                    allowed = max_grade - grade + brackets_left if brackets_left else 0
                # the right operand strikes its last q slots, so the t-th struck
                # left slot meets right slot m_r-q+t through the mode k_t; a bound
                # at or past a side's survivor count filters nothing, so each side
                # is split and cached at the bound clamped to its survivors
                bound = min(allowed, m_r - q)
                rs = right_splits.get((j, q, bound))
                if rs is None:
                    rs = _split(psi, list(range(m_r - q, m_r)), list(range(m_r - q)), -1,
                                RIGHT, bound)
                    rs = right_splits[j, q, bound] = read_right(rs) if read_right else rs
                if not rs:
                    continue
                bound = min(allowed, tl.m - q)
                for counts in _strike_counts(tl.blocks, q):
                    ls = left_splits.get((counts, bound))
                    if ls is None:
                        ls = left_splits[counts, bound] = _split(
                            phi, *_left_slots(tl.blocks, counts), 1, LEFT, bound)
                    if ls:
                        yield tl, m_r, dl * dr, grade, counts, allowed, ls, rs


def _numerators(terms: Dict[tuple, GaussRat]) -> Tuple[int, Dict[tuple, Scalar]]:
    """(den, {exps: den * coefficient}), den the lcm of the coefficients' denominators.

    A real coefficient becomes an int; a non-real one stays a GaussRat, with
    integer parts.
    """
    values = terms.values()
    den = lcm(*{c.re.denominator for c in values}, *{c.im.denominator for c in values if c.im})
    out = {}
    for exps, c in terms.items():
        out[exps] = c * den if c.im else _over(c, den)
    return den, out


def _over(c: GaussRat, den: int) -> int:
    """A real value whose denominator divides ``den``, as its numerator over ``den``."""
    re = c.re
    return re.numerator * (den // re.denominator)


def _picker(slots: List[int]) -> Callable[[tuple], tuple]:
    """The map from an exponent tuple to its entries at ``slots``, as a tuple."""
    if len(slots) == 1:
        p, = slots
        return lambda exps: (exps[p],)
    return itemgetter(*slots) if slots else lambda exps: ()


def _split(terms: Dict[tuple, Scalar], struck: List[int], kept: List[int], sign: int,
           target: Tuple[int, ...], allowed: int) -> Dict[Tuple[int, ...], list]:
    """{k-exponents: [(survivor exponents, coefficient)]} over the terms with
    at most ``allowed`` survivor exponents outside ``target``.

    Struck slot ``struck[t]`` becomes the strike mode k_t, i.e. is replaced by
    ``sign * k_t``, which negates a coefficient whose k-exponents have an odd
    sum when the sign is negative; the slots in ``kept`` survive in order.
    """
    k_of, rest_of = _picker(struck), _picker(kept)
    need = len(kept) - allowed      # survivor exponents that must be on target
    # LEFT has one exponent on target, RIGHT two; at bound 0, LEFT's survivors
    # must equal one tuple, which is the cheaper test
    t0, t1 = target[0], target[-1]
    both = t0 != t1
    whole = None if both or allowed else (t0,) * need
    out: Dict[Tuple[int, ...], list] = {}
    for exps, c in terms.items():
        rest = rest_of(exps)
        if need > 0 and (rest != whole if whole
                         else rest.count(t0) + (both and rest.count(t1)) < need):
            continue
        out.setdefault(k_of(exps), []).append((rest, c))
    if sign < 0:
        for k_exps, items in out.items():
            if sum(k_exps) % 2:
                out[k_exps] = [(rest, -c) for rest, c in items]
    return out


def _product_by_k(left, right) -> Dict[Tuple[int, ...], Dict[tuple, Scalar]]:
    """The product of two splits times k_1...k_q, grouped by k-exponents."""
    out: Dict[Tuple[int, ...], Dict[tuple, Scalar]] = {}
    for kl, items_l in left.items():
        for kr, items_r in right.items():
            bucket = out.setdefault(tuple(a + b + 1 for a, b in zip(kl, kr)), {})
            for rest_l, cl in items_l:
                for rest_r, cr in items_r:
                    rest = rest_l + rest_r
                    bucket[rest] = bucket.get(rest, 0) + cl * cr
    return {k: nonzero for k, bucket in out.items()
            if (nonzero := {rest: c for rest, c in bucket.items() if c})}


def _admitted_powers(right: Tuple[int, ...], spare: int,
                     n_exp: int) -> List[Tuple[Tuple[int, ...], int]]:
    """Rule B's monomials e2 of (a_1+..+a_k)^n_exp, k = len(right), each with its multinomial.

    ``right`` holds the right survivors' exponents capped at 2; e2 is admitted
    when at most ``spare`` positions have right[i] + e2[i] != 1.  A zero
    survivor is on target with e2 = 1, a survivor of 1 with e2 = 0, and one of
    2 or more never.  The recursion over positions spends the spare only off
    target and carries the multinomial of the exponents placed so far.  With
    no spare left the rest is on target, each zero survivor taking 1 of the
    power; once the spare covers every position left, any completion is
    admitted, read from the slot-sum power on those positions, so no table
    wider than the spare is built.
    """
    out = []

    def walk(i, head, power, spare, ways):
        rest = right[i:]
        if spare >= len(rest):
            out.extend((head + tail, ways * c.re.numerator)
                       for tail, c in power_of_sum(len(rest), power).terms.items())
        elif not spare:
            if power == rest.count(0) and 2 not in rest:
                out.append((head + tuple(1 - r for r in rest), ways * factorial(power)))
        elif rest.count(2) <= spare and rest.count(0) - spare <= power:
            on_target = 1 - right[i]
            for x in range(power + 1):
                walk(i + 1, head + (x,), power - x, spare - (x != on_target),
                     ways * comb(power, x))

    walk(0, (), n_exp, spare, 1)
    return out


def _prefactor(blocks: Tuple[int, ...], counts: Tuple[int, ...], m_r: int) -> int:
    """The ordered slot choices of a strike within each block, over the
    orderings of the modes struck from one left block: perm(m_r, q) times
    prod_i perm(b_i, v_i) / v_i! = comb(b_i, v_i)."""
    pref = perm(m_r, sum(counts))
    for b, v in zip(blocks, counts):
        pref *= comb(b, v)
    return pref


def _left_slots(blocks: Tuple[int, ...], counts: Tuple[int, ...]) -> Tuple[List[int], List[int]]:
    """(struck, kept) slots of a left term when block i strikes its last counts[i] slots."""
    struck: List[int] = []
    end = 0
    for b, v in zip(blocks, counts):
        end += b
        struck.extend(range(end - v, end))
    return struck, [p for p in range(end) if p not in struck]


def _bracket_piece(merged, admitted, fwd: Dict[Tuple[int, ...], Dict[tuple, Scalar]],
                   tl: SymbolTerm, m_r: int, den: int, grade: int,
                   counts: Tuple[int, ...], allowed: int):
    """Add one strike of ``_strikes``, with ``fwd`` the product of its splits,
    into ``merged``: counts[i] slots of each left block i against the right
    operand's m_r slots.  ``admitted`` caches the N-power monomials within one
    ``bracket`` call.
    """
    q = sum(counts)
    pref = _prefactor(tl.blocks, counts, m_r)

    # E_fwd(N) with N := sum of surviving right slots, via the Ehrhart
    # convolution.  The table of k-exponents r has the one denominator (D-1)!,
    # D = q + |r|, so every table of this strike is read as integers over the
    # largest of them, de.  Survivor exponents are laid out as the left
    # survivors, then the right survivors, each in slot order, which is exactly
    # the canonical slot order of new_blocks, so every expanded term lands in
    # the strike's integer sums ``acc`` over den * de, prefactor included, and
    # those go into the output term of (grade, new_blocks) as one Fraction each
    de = factorial(q - 1 + max(map(sum, fwd)))
    new_blocks = tuple(b - v for b, v in zip(tl.blocks, counts) if b > v)
    if m_r > q:
        new_blocks += (m_r - q,)
    out = merged.setdefault((grade, new_blocks), {})
    # rule B on the output: whether a term admits an N-power monomial depends
    # on its left survivors only through their count off 1, and on each right
    # survivor only through 0, 1 or >= 2, so the admitted monomials are
    # enumerated once per such group, before any summed exponent tuple is built
    n_left = tl.m - q
    left_zeros = (0,) * n_left
    twos = (2,) * (m_r - q)
    acc: Dict[tuple, Scalar] = {}
    for k_exps, bucket in fwd.items():
        groups = {}
        for rest, c in bucket.items():
            key = (allowed - n_left + rest[:n_left].count(1), tuple(map(min, rest[n_left:], twos)))
            groups.setdefault(key, []).append((rest, c))
        for (n_exp,), cn in ehrhart_convolution(k_exps).terms.items():
            cn = _over(cn, de) * pref
            for key, items in groups.items():
                n_terms = admitted.get((n_left, key, n_exp))
                if n_terms is None:
                    spare, right = key
                    n_terms = admitted[n_left, key, n_exp] = [
                        (left_zeros + e2, c2) for e2, c2 in _admitted_powers(right, spare, n_exp)]
                if not n_terms:
                    continue
                for rest, c in items:
                    base = c * cn
                    for e2, c2 in n_terms:
                        e = tuple(map(add, rest, e2))
                        acc[e] = acc.get(e, 0) + base * c2
    _fold(out, acc, den * de)


def _fold(out: Dict[tuple, Scalar], acc: Dict[tuple, Scalar], den: int):
    """Add the numerators ``acc`` over ``den`` into ``out``, one Fraction per monomial."""
    for e, v in acc.items():
        if not v:
            continue
        v = Fraction(v, den) if type(v) is int else v * Fraction(1, den)
        prev = out.get(e)
        if prev is None:
            out[e] = v
        else:
            s = prev + v
            if s:
                out[e] = s
            else:
                del out[e]


# ----------------------------------------------------------------------
# nested evaluation at the string point

def nested_bracket(d_list: Sequence[int], g: int) -> Dict[int, GaussRat]:
    """Evaluate [[..[H_{d_1-1}, Hbar_{d_2}].., Hbar_{d_n}]] at the string point.

    Returns the map hbar-grade -> value for grades up to the budget g.  With
    S = sum d_list and n = len(d_list), the grades below (S + 2 - n) / 4 are
    absent, and so is every grade when S - n is odd (the degree window of the
    module docstring): a key outside the window returns {} before any density
    or bracket is built.  Inside it, the brackets before the last are
    ``_prefix``'s; the last one is contracted straight to its string-point
    value, with no output symbol.
    """
    d_list = tuple(d_list)
    if not d_list:
        raise ValueError("empty insertion list")
    require_ints("genus grade", (g,))
    require_ints("insertion", d_list)
    if any(d < 0 for d in d_list):
        raise ValueError("insertions must be >= 0")
    if g < 0:
        raise ValueError("genus grade must be >= 0")
    total, n = sum(d_list), len(d_list)
    if (total - n) % 2 or 4 * g < total + 2 - n:
        return {}
    return _nested(d_list, g)


def _nested(d_list: Tuple[int, ...], g: int) -> Dict[int, GaussRat]:
    """``nested_bracket`` without the degree window: every key builds its
    densities and brackets, the oracle of that window."""
    if len(d_list) == 1:
        return eval_string_point(hamiltonian_density(d_list[0] - 1, max_grade=g, demand=(LEFT, g)))
    return _string_point_bracket(_prefix(d_list[:-1], g, 1), _right_operand(d_list[-1], g, 0), g)


def _right_operand(d: int, g: int, brackets_left: int) -> FourierSymbol:
    """Hbar_d as the right operand of a bracket with ``brackets_left`` brackets after it."""
    return integrate_hamiltonian(
        hamiltonian_density(d, max_grade=g, demand=(RIGHT, g + 1 + brackets_left)))


@lru_cache(maxsize=None)
def _prefix(prefix: Tuple[int, ...], g: int, brackets_left: int) -> FourierSymbol:
    """The demanded nested commutator of ``prefix``, with brackets_left >= 1
    brackets after it, memoized on that triple."""
    # each density keeps only what its bracket's _split can pass: a strike of
    # q slots, with L brackets after it, allows g - grade + L survivor
    # exponents off target at grade = grade_l + grade_r + q - 1, so a term
    # uses at most g - grade_l - grade_r + 1 + L in all its slots, whatever q;
    # the first density, with L + 1 brackets after it, may use g + L + 1
    if len(prefix) == 1:
        return hamiltonian_density(prefix[0] - 1, max_grade=g, demand=(LEFT, g + brackets_left))
    return bracket(_prefix(prefix[:-1], g, brackets_left + 1),
                   _right_operand(prefix[-1], g, brackets_left), g, brackets_left)


def _string_point_bracket(left: FourierSymbol, right: FourierSymbol,
                          max_grade: int) -> Dict[int, GaussRat]:
    """eval_string_point(bracket(left, right, max_grade, 0)), one value per strike.

    Rule A contracts ``_strikes``' splits at allowed = 0: each left group is
    one term, its survivors all 1, read by struck exponents k_l; each right
    split is summed once by (k_r, z), z its zero survivors, as ``_by_zeros``.
    """
    # per (grade, power of i), (-i)^m = i^(-m) for m output slots, applied at the end
    sums: Dict[Tuple[int, int], Scalar] = {}
    for tl, m_r, den, grade, counts, _, ls, rs in _strikes(left, right, max_grade, 0, _by_zeros):
        by_k: Dict[tuple, Dict[int, Scalar]] = {}
        for kl, [(_, cl)] in ls.items():
            for kr, by_z in rs.items():
                acc = by_k.setdefault(tuple(a + b + 1 for a, b in zip(kl, kr)), {})
                for z, cr in by_z.items():
                    acc[z] = acc.get(z, 0) + cl * cr
        q = sum(counts)
        # in integers over de = (D-1)!, the largest Ehrhart denominator of the strike
        de = factorial(q - 1 + max(map(sum, by_k)))
        num = 0
        for k, by_z in by_k.items():
            table = ehrhart_convolution(k).terms
            for z, c in by_z.items():
                cn = table.get((z,))
                if c and cn is not None:
                    num += c * (_over(cn, de) * factorial(z))
        if num:
            pref = _prefactor(tl.blocks, counts, m_r)
            den *= de
            value = Fraction(num * pref, den) if type(num) is int else num * Fraction(pref, den)
            power = (2 * q - tl.m - m_r) % 4
            sums[grade, power] = sums.get((grade, power), 0) + value
    out: Dict[int, GaussRat] = {}
    for (grade, power), s in sums.items():
        if s:
            out[grade] = out.get(grade, GaussRat(0)) + s * I_POWERS[power]
    return {g: c for g, c in out.items() if c}


def _by_zeros(split) -> Dict[tuple, Dict[int, Scalar]]:
    """{k: {z: summed numerators}} of a right split, z the survivors that are 0,
    without the sums that cancel."""
    out: Dict[tuple, Dict[int, Scalar]] = {}
    for k, items in split.items():
        by_z: Dict[int, Scalar] = {}
        for rest, c in items:
            z = rest.count(0)
            by_z[z] = by_z.get(z, 0) + c
        if nonzero := {z: c for z, c in by_z.items() if c}:
            out[k] = nonzero
    return out
