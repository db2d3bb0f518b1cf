"""The memo tables: exactly the listed lru_caches, and warm values equal cold ones."""

import importlib
import inspect
import pkgutil

import qwk
from qwk.correlators import correlator
from qwk.hurwitz import Partition, factorization_count, hurwitz_correlator, one_part_number
from qwk.qkdv import bracket, hamiltonian_density, integrate_hamiltonian
from qwk.special import sigma_coefficients
from qwk.symbols import symmetrize

# A change that adds or drops a memo table updates this list.
MEMO_TABLES = {
    ("qwk.correlators", "_correlator_cached"),
    ("qwk.hurwitz", "_walk_state"),
    ("qwk.qkdv", "_hamiltonian_term"),
    ("qwk.qkdv", "_prefix"),
    ("qwk.special", "_ehrhart_cached"),
    ("qwk.special", "genus_table"),
    ("qwk.special", "power_of_sum"),
}


def _modules():
    return [importlib.import_module(f"qwk.{info.name}")
            for info in pkgutil.iter_modules(qwk.__path__)
            if not info.name.startswith("_")]


def _memo_tables():
    found = {}
    for mod in _modules():
        for name in dir(mod):
            obj = getattr(mod, name)
            if callable(obj) and hasattr(obj, "cache_clear"):
                found[(obj.__module__, obj.__qualname__)] = obj
    return found


def _values():
    h1 = hamiltonian_density(1, max_grade=1)
    return ([correlator(d, g) for d, g in (([2], 1), ([1, 2], 2), ([1, 1, 3], 2))]
            + [hurwitz_correlator(d, g) for d, g in (([1, 2], 2), ([0, 1, 1, 2], 1))]
            + [one_part_number(g, Partition(mu)) for g, mu in ((1, (3,)), (2, (2, 2, 1)))]
            + [factorization_count(2, Partition((2, 2, 1)))]
            + [sigma_coefficients(g) for g in (0, 3)]
            + [hamiltonian_density(d, max_grade=2).to_json() for d in (-1, 0, 5)]
            + [symmetrize(bracket(h1, integrate_hamiltonian(h1), 1)).to_json()])


def test_memo_tables_are_the_listed_lru_caches():
    tables = _memo_tables()
    assert set(tables) == MEMO_TABLES
    # no decorated cache hides where the module walk cannot see it
    decorators = sum(inspect.getsource(mod).count("@lru_cache") for mod in _modules())
    assert decorators == len(MEMO_TABLES)


def test_warm_values_equal_cold_values():
    tables = _memo_tables().values()
    for table in tables:
        table.cache_clear()
    cold = _values()
    # every table took part in the cold run
    assert all(table.cache_info().currsize for table in tables)
    hits = sum(table.cache_info().hits for table in tables)
    assert _values() == cold
    assert sum(table.cache_info().hits for table in tables) > hits
