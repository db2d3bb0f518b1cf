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
"""

from .algebra import GaussRat, MultiPoly, Rat, rat_str
from .correlators import (CorrelatorKey, CorrelatorTable, constant_term,
                          correlator, correlator_table, correlator_tau0,
                          series_coefficient, vanishes_by_level)
from .hurwitz import (Partition, aut_factor, factorization_count,
                      hurwitz_correlator, one_part_number, one_part_polynomial)
from .qkdv import (BracketBudget, bracket, hamiltonian_density,
                   integrate_hamiltonian, nested_bracket)
from .special import (EhrhartPoly, ehrhart_brute_force, ehrhart_convolution,
                      eulerian_polynomial, s_series, series_exp_log,
                      series_inverse, series_product)
from .symbols import (DiffPoly, FourierSymbol, SymbolTerm, d_dp0, d_x,
                      eval_string_point, from_diff_poly, symmetrize,
                      to_diff_poly, variational_derivative)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
