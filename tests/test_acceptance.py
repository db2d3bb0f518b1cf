"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every comparison is exact (tolerance zero).  Run with ``pytest -s`` to see
the per-criterion lines.

Criterion 1 pins the golden reference values and checks each against both
the engine and the closed Hurwitz formula.  The entry <tau1 tau6> at genus
grade 2 is 1/640: the paper's main theorem makes it a signed coefficient of
the Goulden-Jackson-Vakil one-part double Hurwitz polynomial (GJV 2005), and
the test after criterion 1 recovers it exactly from permutation
factorization counts alone.  The value 1/480 once pinned there is
<tau0 tau1 tau7> at genus grade 2.
"""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

from qwk.algebra import GaussRat, MultiPoly
from qwk.cli import _random_symbol
from qwk.correlators import correlator, correlator_tau0, vanishes_by_level
from qwk.hurwitz import (Partition, aut_factor, factorization_count,
                         hurwitz_correlator, one_part_number, partitions_of)
from qwk.identities import (check_carlitz, check_eulerian_generating,
                            check_products_of_exponentials, check_sh_lemmas,
                            check_sinh_formula, check_variational)
from qwk.diffpoly import d_dp0
from qwk.qkdv import bracket, hamiltonian_density, integrate_hamiltonian
from qwk.series import ehrhart_brute_force
from qwk.symbols import (DENSITY, INTEGRATED, FourierSymbol,
                         slot_names, symbols_equal, symmetrize, u0_symbol)
from qwk.weyl import monomial_mode_sum, symbol_to_weyl, weyl_commutator_over_hbar
from test_hurwitz import _count_by_permutations
from test_special import ehrhart_poly


def finish(num: int, desc: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {num}: {desc}" +
          (f" ({len(failures)} failing)" if failures else ""))
    assert not failures, f"criterion {num}: {failures}"


GOLDEN = [
    (([0, 0, 0], 0), Fraction(1)),
    (([0, 1], 1), Fraction(1, 24)),
    (([2], 1), Fraction(1, 24)),
    (([0, 3], 1), Fraction(1, 24)),
    (([1, 2], 1), Fraction(1, 24)),
    (([6], 2), Fraction(1, 1920)),
    (([0, 7], 2), Fraction(1, 1920)),
    # Signed mu1 mu2^6 coefficient of the GJV 2005 one-part formula, by the
    # paper's main theorem; 1/480 (once pinned here) is <tau0 tau1 tau7>, g=2.
    (([1, 6], 2), Fraction(1, 640)),
    (([4], 2), Fraction(1, 576)),
    (([0, 5], 2), Fraction(1, 576)),
    (([1, 4], 2), Fraction(1, 192)),
    (([2], 2), Fraction(7, 5760)),
    (([0, 3], 2), Fraction(7, 5760)),
    (([1, 2], 2), Fraction(7, 1920)),
]


def test_criterion_01_golden_values():
    failures = []
    for (d, g), expected in GOLDEN:
        got = correlator(d, g)
        closed = hurwitz_correlator(d, g)
        if got != expected or closed != expected:
            failures.append(
                f"<{d}, g={g}>: pinned {expected}, engine {got}, "
                f"closed Hurwitz formula {closed}")
    finish(1, "golden first-terms values vs engine and closed Hurwitz formula",
           failures)


# Even symmetric monomials of degree <= 4 in (mu1, mu2), each as its orbit of
# exponent pairs: a basis for [z^4] S(mu1 z) S(mu2 z) / S(z).
_GENUS_2_BASIS = (((0, 0),), ((2, 0), (0, 2)), ((1, 1),), ((4, 0), (0, 4)),
                  ((3, 1), (1, 3)), ((2, 2),))


def _solve_exact(rows):
    """Unique solution of the augmented system [A | b] over Fraction.

    Gauss-Jordan elimination; fails unless A has full column rank and every
    surplus equation reduces to 0 = 0.
    """
    rows = [list(r) for r in rows]
    n = len(rows[0]) - 1
    for col in range(n):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col] != 0), None)
        assert pivot is not None, f"no pivot in column {col}"
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col] != 0:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[col])]
    assert all(x == 0 for row in rows[n:] for x in row), "inconsistent system"
    return [rows[i][n] for i in range(n)]


def test_golden_tau1_tau6_from_permutation_counts():
    """<tau1 tau6> at g=2 from transposition factorization counts alone.

    P(mu) = H_2(mu) / (5! d^4), with H_2(mu) = aut(mu) times the number of
    transposition factorizations, is an even symmetric polynomial of degree
    <= 4 in (mu1, mu2) (GJV 2005).  The nine two-part partitions with d <= 6
    overdetermine its six coefficients; the signed mu1 mu2^6 coefficient of
    (mu1+mu2)^3 P is the correlator.  The counts come from enumerating
    permutations; no closed formula, cycle-type count or engine code is used.
    """
    g, d = 2, (1, 6)
    rows = []
    for deg in range(2, 7):
        for parts in partitions_of(deg):
            if len(parts) != 2:
                continue
            mu = Partition(parts)
            value = aut_factor(mu) * _count_by_permutations(g, mu) / (factorial(5) * deg ** 4)
            rows.append([sum(Fraction(parts[0] ** a * parts[1] ** b) for a, b in orbit)
                         for orbit in _GENUS_2_BASIS] + [value])
    assert len(rows) == 9
    coeffs = _solve_exact(rows)
    for row in rows:
        assert sum(c * x for c, x in zip(coeffs, row)) == row[-1]
    assert coeffs == [Fraction(7, 5760), Fraction(-1, 576), 0,
                      Fraction(1, 1920), 0, Fraction(1, 576)]

    poly = {e: c for c, orbit in zip(coeffs, _GENUS_2_BASIS) for e in orbit}
    # [mu1 mu2^6] of (mu1 + mu2)^3 P, with the correlator's level sign
    coefficient = sum(comb(3, k) * poly.get((d[0] - k, d[1] - 3 + k), 0)
                      for k in range(4))
    sign = (-1) ** ((4 * g - 3 + len(d) - sum(d)) // 2)
    pinned = next(v for key, v in GOLDEN if key == (list(d), g))
    assert sign * coefficient == pinned == Fraction(1, 640)


def theorem_grid(g_max=2, slack=2):
    for g in range(g_max + 1):
        for n in range(1, 4):
            if 2 * g - 3 + n < 0:
                continue
            cap = 4 * g - 3 + n + slack  # includes keys outside the interval
            for d in itertools.combinations_with_replacement(range(cap + 1), n):
                if sum(d) <= cap:
                    yield d, g


def test_criterion_02_main_theorem():
    failures = []
    for d, g in theorem_grid():
        lhs = correlator(d, g)
        rhs = hurwitz_correlator(d, g)
        if lhs != rhs:
            failures.append((d, g, str(lhs), str(rhs)))
    finish(2, "main theorem: engine == closed Hurwitz formula on the grid", failures)


def _theorem_failures(keys):
    """The keys on which the engine and the closed Hurwitz formula disagree."""
    failures = []
    for d, g in keys:
        lhs = correlator(d, g)
        rhs = hurwitz_correlator(d, g)
        if lhs != rhs:
            failures.append((d, g, str(lhs), str(rhs)))
    return failures


def test_main_theorem_genus_3():
    """Criterion 2 on the grid of ``qwk verify main-theorem --g-max 3``: 441 keys,
    252 of them at genus grade 3."""
    keys = list(theorem_grid(g_max=3, slack=3))
    assert len(keys) == 441 and sum(g == 3 for _, g in keys) == 252
    failures = _theorem_failures(keys)
    assert not failures, failures


def test_main_theorem_genus_4_low_n():
    """Criterion 2 at genus grade 4 for one and two insertions: the 118 keys
    of ``qwk verify main-theorem --g-max 4`` with n <= 2."""
    keys = [(d, g) for d, g in theorem_grid(g_max=4, slack=3) if g == 4 and len(d) <= 2]
    assert len(keys) == 118
    failures = _theorem_failures(keys)
    assert not failures, failures


def test_main_theorem_genus_4_three_points():
    """Criterion 2 at genus grade 4 for three insertions: the 314 keys of
    ``qwk verify main-theorem --g-max 4`` with n = 3, two nested brackets each."""
    keys = [(d, g) for d, g in theorem_grid(g_max=4, slack=3) if g == 4 and len(d) == 3]
    assert len(keys) == 314
    failures = _theorem_failures(keys)
    assert not failures, failures


def test_main_theorem_genus_5_low_n():
    """Criterion 2 at genus grade 5 for one and two insertions: the 166 keys
    of ``qwk verify main-theorem --g-max 5`` with n <= 2."""
    keys = [(d, g) for d, g in theorem_grid(g_max=5, slack=3) if g == 5 and len(d) <= 2]
    assert len(keys) == 166
    failures = _theorem_failures(keys)
    assert not failures, failures


def test_main_theorem_genus_5_three_points_sample():
    """Criterion 2 at genus grade 5 for three insertions, on a seeded sample of
    24 of the 168 keys of ``qwk verify main-theorem --g-max 5`` with n = 3 whose
    value can be nonzero (10 <= sum d <= 20, sum d even); each is."""
    keys = [(d, g) for d, g in theorem_grid(g_max=5, slack=3)
            if g == 5 and len(d) == 3 and 10 <= sum(d) <= 20 and sum(d) % 2 == 0]
    assert len(keys) == 168
    sample = random.Random(5).sample(keys, 24)
    assert all(correlator(d, g) for d, g in sample)
    failures = _theorem_failures(sample)
    assert not failures, failures


def test_main_theorem_genus_6_three_points_sample():
    """Criterion 2 at genus grade 6 for three insertions, on a seeded sample of
    8 of the 267 keys of ``qwk verify main-theorem --g-max 6`` with n = 3 whose
    value can be nonzero (12 <= sum d <= 24, sum d even); each is."""
    keys = [(d, g) for d, g in theorem_grid(g_max=6, slack=3)
            if g == 6 and len(d) == 3 and 12 <= sum(d) <= 24 and sum(d) % 2 == 0]
    assert len(keys) == 267
    sample = random.Random(6).sample(keys, 8)
    assert all(correlator(d, g) for d, g in sample)
    failures = _theorem_failures(sample)
    assert not failures, failures


def test_main_theorem_genus_5_four_points_sample():
    """Criterion 2 at genus grade 5 for four insertions, on a seeded sample of
    8 of the 406 keys whose value can be nonzero (11 <= sum d <= 21, sum d
    odd); each is."""
    keys = [(d, 5) for d in itertools.combinations_with_replacement(range(22), 4)
            if 11 <= sum(d) <= 21 and sum(d) % 2 == 1]
    assert len(keys) == 406
    sample = random.Random(54).sample(keys, 8)
    assert all(correlator(d, g) for d, g in sample)
    failures = _theorem_failures(sample)
    assert not failures, failures


def test_criterion_03_string_equation():
    failures = []
    for g in range(3):
        for n in range(1, 4):
            cap = 4 * g - 3 + n
            for d in itertools.combinations_with_replacement(range(max(cap, 0) + 1), n):
                if sum(d) > cap:
                    continue
                lhs = correlator_tau0(d, g)
                rhs = Fraction(0)
                for i in range(n):
                    if d[i] > 0:
                        child = list(d)
                        child[i] -= 1
                        rhs += correlator(child, g)
                if lhs != rhs:
                    failures.append((d, g, str(lhs), str(rhs)))
    finish(3, "string equation on the grid", failures)


def test_criterion_04_level_structure():
    failures = []
    for g in range(3):
        for n in range(1, 4):
            cap = 4 * g + n
            for d in itertools.combinations_with_replacement(range(cap + 1), n):
                if sum(d) > cap:
                    continue
                if vanishes_by_level(d, g, 0) and correlator(d, g) != 0:
                    failures.append((d, g, str(correlator(d, g))))
    finish(4, "level-structure vanishing on the grid", failures)


def test_criterion_05_tau_symmetry_and_integrability():
    failures = []
    budget = 3

    def ham(d):
        return hamiltonian_density(d, max_grade=budget)

    for d1 in range(0, 5):
        for d2 in range(d1, 5):
            left = bracket(ham(d1 - 1), integrate_hamiltonian(ham(d2)), budget)
            right = bracket(ham(d2 - 1), integrate_hamiltonian(ham(d1)), budget)
            if not symbols_equal(left, right):
                failures.append(("tau-symmetry", d1, d2))
    for d1 in range(0, 5):
        for d2 in range(d1, 5):
            c = bracket(ham(d1), integrate_hamiltonian(ham(d2)), budget)
            if not _zero_mode_vanishes(c):
                failures.append(("integrability", d1, d2))
    finish(5, "tau symmetry and integrability, d1,d2 <= 4, budget 3", failures)


def _zero_mode_vanishes(sym: FourierSymbol) -> bool:
    grouped = {}
    for t in symmetrize(sym).terms:
        grouped.setdefault((t.grade, t.m), []).append(t.coeff)
    for (_grade, m), coeffs in grouped.items():
        total = coeffs[0]
        for c in coeffs[1:]:
            total = total + c
        if m == 0:
            if not total.is_zero():
                return False
            continue
        vs = slot_names(m)
        minus_others = MultiPoly(
            tuple(vs[:-1]),
            {tuple(1 if i == j else 0 for i in range(m - 1)): GaussRat(-1)
             for j in range(m - 1)})
        if not total.substitute(vs[-1], minus_others).is_zero():
            return False
    return True


def test_criterion_06_bracket_finite_mode_oracle():
    failures = []
    rng = random.Random(20240)
    modes = 5
    produced = 0
    compared = 0
    while produced < 50:
        left = _random_symbol(rng, DENSITY)
        right = _random_symbol(rng, INTEGRATED)
        if left.is_zero() or right.is_zero():
            continue
        produced += 1
        budget = left.max_grade() + right.max_grade() + min(
            max(t.m for t in left.terms), max(t.m for t in right.terms))
        sym = bracket(left, right, budget)
        direct = weyl_commutator_over_hbar(
            symbol_to_weyl(left, modes), symbol_to_weyl(right, modes), modes)
        via = symbol_to_weyl(sym, modes)
        for key in set(direct.terms) | set(via.terms):
            if monomial_mode_sum(key[1:], modes) > modes:
                continue
            compared += 1
            if direct.terms.get(key, GaussRat(0)) != via.terms.get(key, GaussRat(0)):
                failures.append((produced, key))
    if compared < 50:
        failures.append(("too few comparison points", compared))
    finish(6, f"bracket vs finite-mode commutators, 50 pairs, {compared} points", failures)


def test_criterion_07_ehrhart_oracle():
    failures = []
    for q in range(1, 5):
        for r in itertools.product(range(7), repeat=q):
            if sum(r) > 6:
                continue
            poly = ehrhart_poly(r)
            low = 0 if min(r) >= 1 else q  # below q the empty sum has no polynomial match
            for n in range(low, 16):
                if poly.evaluate({"N": n}) != ehrhart_brute_force(r, n):
                    failures.append((r, n))
            degree = q - 1 + sum(r)
            if poly.degree() != degree:
                failures.append((r, "degree"))
            if min(r) >= 1:
                for (e,), _c in poly.terms.items():
                    if (e - degree) % 2 != 0:
                        failures.append((r, "parity"))
    finish(7, "Ehrhart convolution vs brute force, q <= 4, sum r <= 6, N <= 15", failures)


def test_criterion_08_hurwitz_oracle():
    failures = []
    for deg in range(1, 6):
        for parts in partitions_of(deg):
            mu = Partition(parts)
            for g in range(3):
                closed = one_part_number(g, mu)
                count = factorization_count(g, mu)
                if closed != aut_factor(mu) * count:
                    failures.append((parts, g))
    calib = (one_part_number(0, Partition((1, 1))),
             factorization_count(0, Partition((1, 1))),
             aut_factor(Partition((1, 1))))
    if calib != (1, Fraction(1, 2), 2):
        failures.append(("calibration", calib))
    finish(8, "Hurwitz closed form == aut * factorization count, d <= 5, g <= 2", failures)


def test_criterion_09_identity_suite():
    failures = []
    reports = []
    for d in range(0, 7):
        reports.append(check_carlitz(d, 12))
    reports.append(check_eulerian_generating(10))
    reports.append(check_sh_lemmas(8))
    for n in (2, 3):
        for a in itertools.combinations_with_replacement((1, 2, 3), n - 1):
            for b in range(0, 4):
                reports.append(check_sinh_formula(n, a, b, 8))
    for n in (2, 3):
        for a_vals in itertools.combinations_with_replacement((1, 2, 3), n):
            reports.append(check_products_of_exponentials(n, a_vals, 6))
    reports.append(check_variational(seed=2024, cases=50))
    for r in reports:
        if not r.ok:
            failures.append((r.name, r.params, str(r.max_abs_discrepancy)))
    finish(9, f"identity suite, {len(reports)} reports, discrepancy 0", failures)


def test_criterion_10_hamiltonian_sanity():
    failures = []
    if not symbols_equal(hamiltonian_density(-1), u0_symbol()):
        failures.append("H_-1 != u0")
    h0 = {(t.grade, t.m): t.coeff for t in hamiltonian_density(0).terms}
    if h0.get((0, 2)) != MultiPoly.const(Fraction(1, 2), slot_names(2)) or \
            h0.get((1, 0)) != MultiPoly.const(Fraction(-1, 24), ()) or len(h0) != 2:
        failures.append("H_0 != u0^2/2 - h/24")
    for d in range(0, 7):
        if not symbols_equal(d_dp0(hamiltonian_density(d)), hamiltonian_density(d - 1)):
            failures.append(f"d/dp0 H_{d} != H_{d - 1}")
    finish(10, "Hamiltonian sanity: H_-1, H_0, and the p0-derivative ladder", failures)
