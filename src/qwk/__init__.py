"""Exact correlators of the quantum KdV hierarchy at epsilon = 0.

The package computes, in exact rational arithmetic:

  * correlators of the hbar-deformation of the Witten-Kontsevich
    intersection-number series, via the star-product commutator engine of
    the quantum KdV Hamiltonians evaluated at the string point;
  * one-part double Hurwitz numbers and their correlators, via the closed
    polynomial formula and an independent permutation-factorization count;
  * executable verifications of the supporting combinatorial identities
    (Carlitz, Eulerian generating functions, hyperbolic-sine identities,
    the variational-derivative identity).

The headline fact checked by the acceptance suite is that the two correlator
routes agree.

``import qwk`` loads only the engine, the closed Hurwitz formula and the
factorization oracle.  The checking kit loads on first use: the truncated
series (``qwk.series``), the u-representation (``qwk.diffpoly``), the
finite-mode Weyl oracle (``qwk.weyl``) and the identity checks
(``qwk.identities``); the names this package exports from the first two
resolve through the module ``__getattr__``.
"""

from .algebra import GaussRat, MultiPoly, Rat, rat_str
from .correlators import (CorrelatorKey, CorrelatorTable, constant_term,
                          correlator, correlator_table, correlator_tau0,
                          series_coefficient, vanishes_by_level)
from .hurwitz import (Partition, aut_factor, factorization_count,
                      hurwitz_correlator, one_part_number, one_part_polynomial)
from .qkdv import (bracket, hamiltonian_density, integrate_hamiltonian,
                   nested_bracket)
from .special import ehrhart_convolution, eulerian_polynomial
from .symbols import (FourierSymbol, SymbolTerm, d_x, eval_string_point,
                      symmetrize)

# names that live off the engine path, imported on first access (PEP 562)
_LAZY = {
    "DiffPoly": "diffpoly", "d_dp0": "diffpoly", "from_diff_poly": "diffpoly",
    "to_diff_poly": "diffpoly", "variational_derivative": "diffpoly",
    "ehrhart_brute_force": "series", "s_series": "series", "series_exp_log": "series",
    "series_inverse": "series", "series_product": "series",
}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
