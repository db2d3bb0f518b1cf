"""The immutable value classes: field equality and hash, order, immutability, copies.

``SymbolTerm``, ``FourierSymbol``, ``Partition``, ``CorrelatorKey``,
``CorrelatorTable`` and ``IdentityReport`` are plain classes over
``algebra.Record``.  Values are
shared across worker processes, so they also copy and pickle.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from qwk.algebra import MultiPoly
from qwk.correlators import CorrelatorKey, CorrelatorTable, correlator_table
from qwk.hurwitz import Partition
from qwk.identities import IdentityReport
from qwk.qkdv import hamiltonian_density
from qwk.symbols import DENSITY, INTEGRATED, FourierSymbol, SymbolTerm, slot_names


def _term(c=Fraction(1, 3), grade=1):
    return SymbolTerm(grade, 2, MultiPoly(slot_names(2), {(1, 1): c}), (2,))


def _table(value=Fraction(1, 24)):
    return CorrelatorTable(1, 1, 2, {CorrelatorKey.of((2,), 1): value})


def _report(discrepancy=Fraction(0)):
    return IdentityReport("carlitz", {"d": 2, "K": 5}, 5, discrepancy)


FIELDS = {
    SymbolTerm: ("grade", "m", "coeff", "blocks"),
    FourierSymbol: ("kind", "terms"),
    Partition: ("parts",),
    CorrelatorKey: ("g", "d"),
    CorrelatorTable: ("g_max", "n_max", "sum_max", "entries"),
    IdentityReport: ("name", "params", "order", "max_abs_discrepancy"),
}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def _cases():
    """(value, an equal value built anew, a value differing in one field) per class."""
    return [
        (_term(), _term(), _term(grade=2)),
        (FourierSymbol(DENSITY, (_term(),)), FourierSymbol(DENSITY, (_term(),)),
         FourierSymbol(INTEGRATED, (_term(),))),
        (Partition((1, 3, 2)), Partition([3, 2, 1]), Partition((3, 3))),
        (CorrelatorKey.of((2, 0), 1), CorrelatorKey(1, (0, 2)), CorrelatorKey(1, (0, 1))),
        (_table(), _table(), _table(Fraction(1, 12))),
        (_report(), _report(), _report(Fraction(1, 3))),
    ]


def test_equality_is_by_fields():
    for a, b, c in _cases():
        assert a == b and a is not b
        assert not a != b
        assert a != c
        # only between instances of one class
        assert a != _fields(a)


def test_hash_is_by_fields():
    for a, b, _ in (_cases()[2], _cases()[3]):
        assert hash(a) == hash(b) == hash(_fields(a))
        assert len({a, b}) == 1
    empty = FourierSymbol(DENSITY, ())
    assert hash(empty) == hash(FourierSymbol(DENSITY, ()))
    # a polynomial coefficient or a dict has no hash, so neither has a term, a
    # symbol holding terms, a table or an identity report
    for unhashable in (_term(), FourierSymbol(DENSITY, (_term(),)), _table(), _report()):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_correlator_keys_sort_by_genus_then_insertions():
    keys = [CorrelatorKey(2, (0,)), CorrelatorKey(1, (1, 2)), CorrelatorKey(1, (0, 5)),
            CorrelatorKey(0, (3, 3, 3))]
    assert sorted(keys) == [CorrelatorKey(0, (3, 3, 3)), CorrelatorKey(1, (0, 5)),
                            CorrelatorKey(1, (1, 2)), CorrelatorKey(2, (0,))]
    assert CorrelatorKey(1, (0, 5)) <= CorrelatorKey(1, (0, 5)) < CorrelatorKey(1, (1,))
    assert CorrelatorKey(2, ()) > CorrelatorKey(1, (9,)) >= CorrelatorKey(1, (9,))
    with pytest.raises(TypeError):
        CorrelatorKey(1, (0,)) < (1, (0,))
    table = correlator_table(1, 2, 3)
    assert min(table.entries) == CorrelatorKey(0, (0,))
    assert max(table.entries) == CorrelatorKey(1, (3,))


def test_assigning_an_attribute_raises():
    for a, _, _ in _cases():
        name = FIELDS[type(a)][0]
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert getattr(a, name) is before


def test_copy_deepcopy_and_pickle_round_trip():
    h = hamiltonian_density(4, max_grade=2)
    values = [v for case in _cases() for v in case] + [h, h.terms[-1]]
    for a in values:
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(twin) is type(a)
            assert twin == a
    table = _table()
    deep = copy.deepcopy(table)
    assert deep.entries == table.entries and deep.entries is not table.entries


def test_construction_still_validates():
    coeff = MultiPoly.const(1, slot_names(2))
    with pytest.raises(ValueError):
        SymbolTerm(0, 2, MultiPoly.const(1, ("x", "y")), (2,))
    with pytest.raises(ValueError):
        SymbolTerm(0, 2, MultiPoly.const(1, ("a2", "a1")), (2,))
    with pytest.raises(ValueError):
        SymbolTerm(0, 2, coeff, (1,))
    with pytest.raises(ValueError):
        SymbolTerm(0, 2, coeff, (2, 1))
    with pytest.raises(ValueError):
        SymbolTerm(-1, 2, coeff, (2,))
    with pytest.raises(ValueError):
        FourierSymbol("neither", ())
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition(())
    assert Partition((1, 3, 2)).parts == (3, 2, 1)
    assert Partition((1, 3, 2)).degree == 6 and len(Partition((1, 3, 2))) == 3


def test_identity_report_reads_its_verdict():
    passed, failed = _report(), _report(Fraction(-1, 3))
    assert passed.ok and not failed.ok
    assert failed.to_json() == {"name": "carlitz", "params": {"d": 2, "K": 5}, "order": 5,
                                "max_abs_discrepancy": "-1/3", "ok": False}
    assert failed.to_json()["params"] is not failed.params
