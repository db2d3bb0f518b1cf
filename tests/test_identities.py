"""The identity suite: every check must return discrepancy exactly zero."""

import itertools
from fractions import Fraction

import pytest

from qwk.identities import (IdentityReport, check_carlitz,
                            check_eulerian_generating,
                            check_products_of_exponentials, check_sh_lemmas,
                            check_sinh_formula, check_variational, ch,
                            cheb_ratio, sh)


def test_carlitz_small_cases():
    # d = 0 is the geometric series; d = 1 gives t/(1-t)^2
    assert check_carlitz(0, 5).ok
    assert check_carlitz(1, 3).ok
    assert check_carlitz(3, 10).ok


def test_carlitz_range():
    for d in range(0, 7):
        report = check_carlitz(d, 12)
        assert report.ok, (d, report.max_abs_discrepancy)


def test_eulerian_generating():
    for order in (1, 6, 10):
        report = check_eulerian_generating(order)
        assert report.ok, (order, report.max_abs_discrepancy)


def test_sh_lemmas():
    for order in (2, 4, 8):
        report = check_sh_lemmas(order)
        assert report.ok, report.params


def test_lattice_helpers():
    basis = ("x",)
    # a zero form: sh(0) == 0 and ch(0) == 1, the two zero-vector terms combine
    assert sh(basis, {"x": 0}).is_zero()
    assert ch(basis, {"x": 0}) == 1
    assert ch(basis, {}) == 1
    # sh(2x)/sh(x) == 2 ch(x)
    assert cheb_ratio(basis, 2, {"x": 1}) == ch(basis, {"x": 1}) * Fraction(2)
    assert cheb_ratio(basis, 0, {"x": 1}).is_zero()
    # sh(x)ch(x) == sh(2x)/2
    assert sh(basis, {"x": 1}) * ch(basis, {"x": 1}) == sh(basis, {"x": 2}) * Fraction(1, 2)


def test_sinh_formula_cases():
    assert check_sinh_formula(2, [1], 1, 6).ok
    assert check_sinh_formula(3, [1, 1], 1, 4).ok
    assert check_sinh_formula(2, [2], 0, 4).ok
    with pytest.raises(ValueError):
        check_sinh_formula(2, [0], 1, 4)


def test_sinh_formula_grid():
    for n in (2, 3):
        for a in itertools.combinations_with_replacement((1, 2, 3), n - 1):
            for b in range(0, 4):
                report = check_sinh_formula(n, a, b, 8)
                assert report.ok, (n, a, b, report.max_abs_discrepancy)


def test_products_of_exponentials_cases():
    assert check_products_of_exponentials(2, [1, 1], 4).ok
    assert check_products_of_exponentials(2, [2, 1], 6).ok
    assert check_products_of_exponentials(3, [1, 1, 1], 4).ok


def test_products_of_exponentials_grid():
    for n in (2, 3):
        for a_vals in itertools.combinations_with_replacement((1, 2, 3), n):
            report = check_products_of_exponentials(n, a_vals, 6)
            assert report.ok, (n, a_vals, report.max_abs_discrepancy)


def test_variational_seeded():
    report = check_variational(seed=2024, cases=50)
    assert report.ok, report.max_abs_discrepancy


def test_report_shape():
    r = check_carlitz(2, 4)
    blob = r.to_json()
    assert blob["ok"] is True and blob["max_abs_discrepancy"] == "0"
    assert isinstance(r, IdentityReport)
