"""Desk-scale numerical laboratory for the cyclic solid-on-solid model.

Elliptic theta machinery, the dynamical R-matrix and its transfer
operators, Bethe ground states, determinant representations of scalar
products and multi-point matrix elements, and thermodynamic-limit local
height probabilities, with every formula backed by a brute-force oracle.
"""

from .elliptic import ModelParams, theta, theta_log
from .lattice import (LatticeConfig, StateVector, homogeneous_config,
                      monodromy_entry_apply, transfer_apply)
from .bethe import (BetheRootSet, all_ground_states, bethe_residual,
                    bethe_vector, eigenstate_residual, eigenvalue_tau,
                    log_bethe_residual, solve_ground_state)
from .scalar import gaudin_matrix, norm_det
from .matel import (AdjacentPath, finite_lhp, mpme_bruteforce, mpme_det,
                    vertical_path)
from .thermo import lhp_table, multipoint_lhp, one_point_barP
from .contract import density, fredholm_det, kernel_fourier

__version__ = "0.1.0"
