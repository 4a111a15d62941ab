"""Quantum isomonodromic Hamiltonians on polynomial spaces.

Exact operator realizations, finite-dimensional Pfaffian restrictions with
ODE transport, and hypergeometric integral solutions with series and
cohomology cross-checks.
"""

from .errors import (ChamberError, ConvergenceError, ParameterError,
                     PropagationError, QimsError, SingularityError,
                     StructureError, SubspaceError)
from .polyalg import enumerate_basis, enumerate_basis_FT
from .weylops import (Parameters, make_parameters, flatten, hamiltonian,
                      hamiltonian_flat, commutator_residual,
                      ahat_commutator_residual, braid_residual_adjacent,
                      braid_residual_disjoint, garnier_example_residual,
                      Q, P, Sc, Add, Mul)
from .pfaffian import PfaffianSystem, ZPath, flatness_residual, propagate
from .quadrature import QuadratureSpec
from .hypint import (ExponentsM, dictionary_M, eval_psi1, eval_psiM, pde_residual,
                     series_psi1)
from .cohomology import (LEMMA_IDS, compare_cohomology_operator, lemma_residual,
                         pfaffian_from_cohomology, random_lemma_sample)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
